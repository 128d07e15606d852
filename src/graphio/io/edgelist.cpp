#include "graphio/io/edgelist.hpp"

#include <charconv>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>

#include "graphio/support/contracts.hpp"

namespace graphio::io {

namespace {

[[noreturn]] void fail(std::int64_t line, const std::string& what) {
  throw contract_error("edgelist parse error at line " +
                       std::to_string(line) + ": " + what);
}

/// The classic-locale whitespace that `std::istream >>` skips: space and
/// \t \n \v \f \r.
bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

/// The tokens of one line, read as `std::istream >>` reads them in the
/// classic locale.
class LineCursor {
 public:
  explicit LineCursor(std::string_view line) : rest_(line) {}

  /// The next whitespace-delimited token; empty at the end of the line.
  std::string_view token() {
    skip_space();
    std::size_t end = 0;
    while (end < rest_.size() && !is_space(rest_[end])) ++end;
    const std::string_view token = rest_.substr(0, end);
    rest_.remove_prefix(end);
    return token;
  }

  /// A decimal integer after optional whitespace: an optional '+' or '-',
  /// then digits, ending at the first non-digit (which stays unread).
  /// False when there are no digits or the value overflows `Int`.
  template <class Int>
  bool integer(Int& value) {
    skip_space();
    const char* first = rest_.data();
    const char* const last = first + rest_.size();
    // std::from_chars takes '-' but not '+'; a '+' must precede a digit.
    if (first != last && *first == '+' &&
        (++first == last || *first < '0' || *first > '9'))
      return false;
    const auto [end, error] = std::from_chars(first, last, value);
    if (error != std::errc{}) return false;
    rest_.remove_prefix(static_cast<std::size_t>(end - rest_.data()));
    return true;
  }

  /// The unread remainder of the line.
  [[nodiscard]] std::string_view rest() const { return rest_; }

 private:
  void skip_space() {
    while (!rest_.empty() && is_space(rest_.front())) rest_.remove_prefix(1);
  }

  std::string_view rest_;
};

/// Parses a whole edge-list document. Lines split at '\n' as
/// std::getline splits them: a final line without '\n' still counts, and
/// a '\r' before the '\n' is whitespace (or part of a vertex name).
Digraph parse_edgelist(std::string_view text) {
  std::int64_t line_no = 0;
  bool saw_header = false;
  bool saw_n = false;
  Digraph g;

  for (std::size_t start = 0; start < text.size();) {
    const std::size_t newline = text.find('\n', start);
    const std::size_t stop =
        newline == std::string_view::npos ? text.size() : newline;
    std::string_view line = text.substr(start, stop - start);
    start = stop + 1;
    ++line_no;
    // Strip comments and whitespace-only lines.
    line = line.substr(0, line.find('#'));
    LineCursor cursor(line);
    const std::string_view tag = cursor.token();
    if (tag.empty()) continue;

    if (!saw_header) {
      if (tag != "graphio-edgelist") fail(line_no, "missing header");
      int version = 0;
      if (!cursor.integer(version) || version != 1)
        fail(line_no, "unsupported version");
      saw_header = true;
      continue;
    }
    if (tag == "n") {
      if (saw_n) fail(line_no, "duplicate n directive");
      std::int64_t n = -1;
      if (!cursor.integer(n) || n < 0) fail(line_no, "bad vertex count");
      g = Digraph(n);
      saw_n = true;
    } else if (tag == "v") {
      if (!saw_n) fail(line_no, "v before n");
      VertexId v = -1;
      if (!cursor.integer(v) || !g.contains(v)) fail(line_no, "bad vertex id");
      // The name is the rest of the line after leading blanks — a
      // trailing '\r' (CRLF files) stays part of it.
      const std::string_view name = cursor.rest();
      if (const auto first = name.find_first_not_of(" \t");
          first != std::string_view::npos)
        g.set_name(v, std::string(name.substr(first)));
    } else if (tag == "e") {
      if (!saw_n) fail(line_no, "e before n");
      VertexId u = -1;
      VertexId w = -1;
      if (!cursor.integer(u) || !cursor.integer(w) || !g.contains(u) ||
          !g.contains(w))
        fail(line_no, "bad edge endpoint");
      if (u == w) fail(line_no, "self-loop");
      g.add_edge(u, w);
    } else {
      fail(line_no, "unknown directive '" + std::string(tag) + "'");
    }
  }
  if (!saw_header) fail(line_no, "empty document (missing header)");
  if (!saw_n) fail(line_no, "missing n directive");
  return g;
}

}  // namespace

void write_edgelist(std::ostream& out, const Digraph& g) {
  out << "graphio-edgelist 1\n";
  out << "n " << g.num_vertices() << "\n";
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const std::string& name = g.name(v);
    if (!name.empty()) out << "v " << v << " " << name << "\n";
  }
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    for (VertexId c : g.children(v)) out << "e " << v << " " << c << "\n";
}

Digraph read_edgelist(std::istream& in) {
  std::string text;
  char chunk[1 << 16];
  while (in.read(chunk, sizeof chunk), in.gcount() > 0)
    text.append(chunk, static_cast<std::size_t>(in.gcount()));
  return parse_edgelist(text);
}

void save_edgelist(const std::filesystem::path& path, const Digraph& g) {
  std::ofstream out(path);
  GIO_EXPECTS_MSG(out.good(), "cannot open file for writing");
  write_edgelist(out, g);
  GIO_EXPECTS_MSG(out.good(), "write failed");
}

Digraph load_edgelist(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  GIO_EXPECTS_MSG(in.good(), "cannot open file for reading");
  return read_edgelist(in);
}

std::string to_edgelist_string(const Digraph& g) {
  std::ostringstream os;
  write_edgelist(os, g);
  return os.str();
}

Digraph from_edgelist_string(const std::string& text) {
  return parse_edgelist(text);
}

}  // namespace graphio::io
