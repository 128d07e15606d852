// Minimal streaming JSON writer and value parser.
//
// The writer emits machine-readable experiment artifacts — graphs, bound
// reports, bench series — without an external JSON dependency. It checks
// nesting discipline at runtime (object keys before values, matching
// closes) so misuse fails loudly in tests rather than producing garbage.
// JsonValue is the read side: the serve subsystem parses JSONL job lines
// and result-store records with it, so the library round-trips its own
// output. There is one grammar, RFC 8259's: json_valid() is "parse
// succeeds", which the test suite uses to certify everything the writer
// (or a bench) produces.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "graphio/graph/digraph.hpp"

namespace graphio::io {

class JsonWriter {
 public:
  /// Writes into an internal buffer; collect with str().
  JsonWriter() = default;

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Key for the next value (objects only).
  JsonWriter& key(std::string_view k);

  JsonWriter& value(std::string_view v);
  JsonWriter& value(const char* v);
  JsonWriter& value(double v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(int v);
  JsonWriter& value(bool v);
  JsonWriter& null();

  /// Finished document (throws if containers remain open).
  [[nodiscard]] std::string str() const;

 private:
  enum class Frame { kObject, kArray };
  void comma_if_needed();
  void expect_value_allowed();

  std::ostringstream out_;
  std::vector<Frame> stack_;
  std::vector<bool> first_in_frame_;
  bool pending_key_ = false;
  bool done_ = false;
};

/// Escapes a string per RFC 8259 (quotes, backslash, control characters).
std::string json_escape(std::string_view s);

/// Exact text for a finite double: 17 significant digits, which parse back
/// to the same binary64. JsonWriter renders doubles with it, and the
/// stores' key encoders use it so a value always looks up the way it was
/// written.
std::string format_double_exact(double v);

/// A parsed JSON document: one immutable tree of values. Object member
/// order is preserved; duplicate keys keep the first occurrence (lookups
/// are front-to-back). Accessors throw contract_error on type mismatches
/// so malformed job lines surface as one catchable error with context.
class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  /// Parses one complete JSON value (trailing non-whitespace is an
  /// error). Throws contract_error with a byte offset on malformed input.
  static JsonValue parse(std::string_view text);

  JsonValue() = default;

  [[nodiscard]] Type type() const noexcept { return type_; }
  [[nodiscard]] bool is_null() const noexcept { return type_ == Type::kNull; }
  [[nodiscard]] bool is_bool() const noexcept { return type_ == Type::kBool; }
  [[nodiscard]] bool is_number() const noexcept {
    return type_ == Type::kNumber;
  }
  [[nodiscard]] bool is_string() const noexcept {
    return type_ == Type::kString;
  }
  [[nodiscard]] bool is_array() const noexcept {
    return type_ == Type::kArray;
  }
  [[nodiscard]] bool is_object() const noexcept {
    return type_ == Type::kObject;
  }

  /// Typed accessors (throwing on mismatch). as_int additionally rejects
  /// non-integral numbers.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_double() const;
  [[nodiscard]] std::int64_t as_int() const;
  [[nodiscard]] const std::string& as_string() const;

  /// Array access. size() also works for objects (member count).
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] const JsonValue& at(std::size_t i) const;
  [[nodiscard]] const std::vector<JsonValue>& items() const;

  /// Object access: get() returns nullptr when absent, at() throws.
  [[nodiscard]] const JsonValue* get(std::string_view key) const;
  [[nodiscard]] const JsonValue& at(std::string_view key) const;
  [[nodiscard]] const std::vector<std::pair<std::string, JsonValue>>&
  members() const;

 private:
  friend class JsonParser;

  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> object_;
};

/// True iff JsonValue::parse(text) succeeds: `text` is one complete
/// RFC 8259 value whose numbers fit a double.
bool json_valid(std::string_view text);

/// Serializes a graph as {"n": ..., "edges": [[u, v], ...],
/// "names": {"id": "name", ...}} (names only when present).
std::string graph_to_json(const Digraph& g);

}  // namespace graphio::io
