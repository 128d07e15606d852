#include "graphio/io/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>

#include "graphio/support/contracts.hpp"

namespace graphio::io {

// --- writer ----------------------------------------------------------------

void JsonWriter::comma_if_needed() {
  if (stack_.empty()) return;
  if (!first_in_frame_.back() && !pending_key_) out_ << ",";
  first_in_frame_.back() = false;
}

void JsonWriter::expect_value_allowed() {
  GIO_EXPECTS_MSG(!done_, "document already complete");
  if (!stack_.empty() && stack_.back() == Frame::kObject)
    GIO_EXPECTS_MSG(pending_key_, "object members need a key first");
}

JsonWriter& JsonWriter::begin_object() {
  expect_value_allowed();
  comma_if_needed();
  out_ << "{";
  stack_.push_back(Frame::kObject);
  first_in_frame_.push_back(true);
  pending_key_ = false;
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  GIO_EXPECTS_MSG(!stack_.empty() && stack_.back() == Frame::kObject,
                  "no object to close");
  GIO_EXPECTS_MSG(!pending_key_, "dangling key");
  out_ << "}";
  stack_.pop_back();
  first_in_frame_.pop_back();
  if (stack_.empty()) done_ = true;
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  expect_value_allowed();
  comma_if_needed();
  out_ << "[";
  stack_.push_back(Frame::kArray);
  first_in_frame_.push_back(true);
  pending_key_ = false;
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  GIO_EXPECTS_MSG(!stack_.empty() && stack_.back() == Frame::kArray,
                  "no array to close");
  out_ << "]";
  stack_.pop_back();
  first_in_frame_.pop_back();
  if (stack_.empty()) done_ = true;
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  GIO_EXPECTS_MSG(!stack_.empty() && stack_.back() == Frame::kObject,
                  "keys only make sense inside objects");
  GIO_EXPECTS_MSG(!pending_key_, "two keys in a row");
  comma_if_needed();
  out_ << '"' << json_escape(k) << "\":";
  pending_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view v) {
  expect_value_allowed();
  comma_if_needed();
  out_ << '"' << json_escape(v) << '"';
  pending_key_ = false;
  if (stack_.empty()) done_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(const char* v) {
  return value(std::string_view(v));
}

JsonWriter& JsonWriter::value(double v) {
  expect_value_allowed();
  comma_if_needed();
  if (std::isfinite(v)) {
    out_ << format_double_exact(v);
  } else {
    out_ << "null";  // JSON has no inf/nan
  }
  pending_key_ = false;
  if (stack_.empty()) done_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  expect_value_allowed();
  comma_if_needed();
  out_ << v;
  pending_key_ = false;
  if (stack_.empty()) done_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(int v) {
  return value(static_cast<std::int64_t>(v));
}

JsonWriter& JsonWriter::value(bool v) {
  expect_value_allowed();
  comma_if_needed();
  out_ << (v ? "true" : "false");
  pending_key_ = false;
  if (stack_.empty()) done_ = true;
  return *this;
}

JsonWriter& JsonWriter::null() {
  expect_value_allowed();
  comma_if_needed();
  out_ << "null";
  pending_key_ = false;
  if (stack_.empty()) done_ = true;
  return *this;
}

std::string JsonWriter::str() const {
  GIO_EXPECTS_MSG(done_ && stack_.empty(),
                  "document incomplete (open containers)");
  return out_.str();
}

std::string format_double_exact(double v) {
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v,
                                       std::chars_format::general, 17);
  GIO_ASSERT(ec == std::errc());
  return std::string(buf, static_cast<std::size_t>(end - buf));
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// --- value parser ------------------------------------------------------------

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value(0);
    skip_ws();
    check(pos_ >= text_.size(), "trailing characters after value");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw contract_error("JSON parse error at offset " +
                         std::to_string(pos_) + ": " + what);
  }
  void check(bool ok, const char* what) const {
    if (!ok) fail(what);
  }
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r'))
      ++pos_;
  }
  [[nodiscard]] char peek() const {
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }
  void expect(char c, const char* what) {
    check(peek() == c, what);
    ++pos_;
  }
  bool consume(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  std::string parse_string() {
    expect('"', "expected string");
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return out;
      }
      check(static_cast<unsigned char>(c) >= 0x20,
            "raw control character in string");
      if (c == '\\') {
        ++pos_;
        check(pos_ < text_.size(), "truncated escape");
        switch (text_[pos_]) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            check(pos_ + 4 < text_.size(), "truncated \\u escape");
            unsigned code = 0;
            for (int i = 1; i <= 4; ++i) {
              const char h = text_[pos_ + static_cast<std::size_t>(i)];
              check(std::isxdigit(static_cast<unsigned char>(h)) != 0,
                    "bad \\u escape");
              code = code * 16 +
                     static_cast<unsigned>(
                         h <= '9' ? h - '0' : (h | 0x20) - 'a' + 10);
            }
            pos_ += 4;
            // UTF-8 encode (surrogate pairs are passed through as two
            // 3-byte sequences; the writer never emits them).
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default: fail("unknown escape");
        }
        ++pos_;
      } else {
        out += c;
        ++pos_;
      }
    }
    fail("unterminated string");
  }

  /// Consumes a run of digits; false when there is none.
  bool digits() {
    const std::size_t begin = pos_;
    while (std::isdigit(static_cast<unsigned char>(peek())) != 0) ++pos_;
    return pos_ > begin;
  }

  /// RFC 8259 number: -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?
  double parse_number() {
    const std::size_t begin = pos_;
    if (peek() == '-') ++pos_;
    if (peek() == '0')
      ++pos_;
    else
      check(digits(), "expected number");
    if (peek() == '.') {
      ++pos_;
      check(digits(), "expected digit after '.'");
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      check(digits(), "expected digit in exponent");
    }
    double v = 0.0;
    const auto [end, ec] =
        std::from_chars(text_.data() + begin, text_.data() + pos_, v);
    check(ec == std::errc() && end == text_.data() + pos_,
          "number out of range");
    return v;
  }

  JsonValue parse_value(int depth) {
    check(depth <= 256, "nesting too deep");
    skip_ws();
    check(pos_ < text_.size(), "unexpected end of input");
    JsonValue v;
    switch (peek()) {
      case '{': {
        ++pos_;
        v.type_ = JsonValue::Type::kObject;
        skip_ws();
        if (peek() == '}') {
          ++pos_;
          return v;
        }
        for (;;) {
          skip_ws();
          std::string key = parse_string();
          skip_ws();
          expect(':', "expected ':' after object key");
          v.object_.emplace_back(std::move(key), parse_value(depth + 1));
          skip_ws();
          if (peek() == ',') {
            ++pos_;
            continue;
          }
          expect('}', "expected ',' or '}' in object");
          return v;
        }
      }
      case '[': {
        ++pos_;
        v.type_ = JsonValue::Type::kArray;
        skip_ws();
        if (peek() == ']') {
          ++pos_;
          return v;
        }
        for (;;) {
          v.array_.push_back(parse_value(depth + 1));
          skip_ws();
          if (peek() == ',') {
            ++pos_;
            continue;
          }
          expect(']', "expected ',' or ']' in array");
          return v;
        }
      }
      case '"':
        v.type_ = JsonValue::Type::kString;
        v.string_ = parse_string();
        return v;
      case 't':
        check(consume("true"), "bad literal");
        v.type_ = JsonValue::Type::kBool;
        v.bool_ = true;
        return v;
      case 'f':
        check(consume("false"), "bad literal");
        v.type_ = JsonValue::Type::kBool;
        v.bool_ = false;
        return v;
      case 'n':
        check(consume("null"), "bad literal");
        return v;
      default:
        v.type_ = JsonValue::Type::kNumber;
        v.number_ = parse_number();
        return v;
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

JsonValue JsonValue::parse(std::string_view text) {
  return JsonParser(text).parse_document();
}

bool json_valid(std::string_view text) {
  try {
    (void)JsonValue::parse(text);
    return true;
  } catch (const contract_error&) {
    return false;
  }
}

namespace {
const char* type_name(JsonValue::Type t) {
  switch (t) {
    case JsonValue::Type::kNull: return "null";
    case JsonValue::Type::kBool: return "bool";
    case JsonValue::Type::kNumber: return "number";
    case JsonValue::Type::kString: return "string";
    case JsonValue::Type::kArray: return "array";
    case JsonValue::Type::kObject: return "object";
  }
  return "?";
}

[[noreturn]] void type_fail(const char* wanted, JsonValue::Type got) {
  throw contract_error(std::string("JSON value is ") + type_name(got) +
                       ", not " + wanted);
}
}  // namespace

bool JsonValue::as_bool() const {
  if (!is_bool()) type_fail("bool", type_);
  return bool_;
}

double JsonValue::as_double() const {
  if (!is_number()) type_fail("number", type_);
  return number_;
}

std::int64_t JsonValue::as_int() const {
  if (!is_number()) type_fail("integer", type_);
  // Range-check before the cast: double→int64 outside the representable
  // range is undefined behavior, and job lines are untrusted input. Both
  // bounds are exactly representable doubles (±2^63); NaN fails both.
  GIO_EXPECTS_MSG(
      number_ >= -9223372036854775808.0 && number_ < 9223372036854775808.0,
      "JSON number out of integer range");
  const auto v = static_cast<std::int64_t>(number_);
  GIO_EXPECTS_MSG(static_cast<double>(v) == number_,
                  "JSON number is not an integer");
  return v;
}

const std::string& JsonValue::as_string() const {
  if (!is_string()) type_fail("string", type_);
  return string_;
}

std::size_t JsonValue::size() const {
  if (is_array()) return array_.size();
  if (is_object()) return object_.size();
  type_fail("array or object", type_);
}

const JsonValue& JsonValue::at(std::size_t i) const {
  if (!is_array()) type_fail("array", type_);
  GIO_EXPECTS_MSG(i < array_.size(), "JSON array index out of range");
  return array_[i];
}

const std::vector<JsonValue>& JsonValue::items() const {
  if (!is_array()) type_fail("array", type_);
  return array_;
}

const JsonValue* JsonValue::get(std::string_view key) const {
  if (!is_object()) type_fail("object", type_);
  for (const auto& [k, v] : object_)
    if (k == key) return &v;
  return nullptr;
}

const JsonValue& JsonValue::at(std::string_view key) const {
  const JsonValue* v = get(key);
  GIO_EXPECTS_MSG(v != nullptr,
                  "missing JSON object key '" + std::string(key) + "'");
  return *v;
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::members()
    const {
  if (!is_object()) type_fail("object", type_);
  return object_;
}

// --- converters ---------------------------------------------------------------

std::string graph_to_json(const Digraph& g) {
  JsonWriter w;
  w.begin_object();
  w.key("n").value(g.num_vertices());
  w.key("edges").begin_array();
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (VertexId c : g.children(v)) {
      w.begin_array();
      w.value(v);
      w.value(c);
      w.end_array();
    }
  }
  w.end_array();
  bool any_names = false;
  for (VertexId v = 0; v < g.num_vertices() && !any_names; ++v)
    any_names = !g.name(v).empty();
  if (any_names) {
    w.key("names").begin_object();
    for (VertexId v = 0; v < g.num_vertices(); ++v)
      if (!g.name(v).empty()) w.key(std::to_string(v)).value(g.name(v));
    w.end_object();
  }
  w.end_object();
  return w.str();
}

}  // namespace graphio::io
