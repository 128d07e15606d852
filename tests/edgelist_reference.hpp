// Reference for the edge-list reader: read_edgelist exactly as graphio
// shipped it, one std::getline per line and one std::istringstream per
// line, tokenized by operator>> in the classic locale. The production
// reader (one buffer, std::from_chars) must accept exactly the documents
// this accepts, build identical graphs and throw the same message with
// the same line number — the quirks included: any whitespace (a CRLF
// file's '\r' too) separates tokens, a leading '+' is a sign, trailing
// tokens and digits followed by garbage are accepted, overflow is not.
#pragma once

#include <cstdint>
#include <istream>
#include <sstream>
#include <string>

#include "graphio/graph/digraph.hpp"
#include "graphio/support/contracts.hpp"

namespace graphio::io::reference {

[[noreturn]] inline void fail(std::int64_t line, const std::string& what) {
  throw contract_error("edgelist parse error at line " +
                       std::to_string(line) + ": " + what);
}

inline Digraph read_edgelist(std::istream& in) {
  std::string line;
  std::int64_t line_no = 0;
  bool saw_header = false;
  bool saw_n = false;
  Digraph g;

  while (std::getline(in, line)) {
    ++line_no;
    // Strip comments and whitespace-only lines.
    if (const auto hash = line.find('#'); hash != std::string::npos)
      line.resize(hash);
    std::istringstream ls(line);
    std::string tag;
    if (!(ls >> tag)) continue;

    if (!saw_header) {
      if (tag != "graphio-edgelist") fail(line_no, "missing header");
      int version = 0;
      if (!(ls >> version) || version != 1)
        fail(line_no, "unsupported version");
      saw_header = true;
      continue;
    }
    if (tag == "n") {
      if (saw_n) fail(line_no, "duplicate n directive");
      std::int64_t n = -1;
      if (!(ls >> n) || n < 0) fail(line_no, "bad vertex count");
      g = Digraph(n);
      saw_n = true;
    } else if (tag == "v") {
      if (!saw_n) fail(line_no, "v before n");
      VertexId v = -1;
      if (!(ls >> v) || !g.contains(v)) fail(line_no, "bad vertex id");
      std::string name;
      std::getline(ls, name);
      if (const auto start = name.find_first_not_of(" \t");
          start != std::string::npos)
        g.set_name(v, name.substr(start));
    } else if (tag == "e") {
      if (!saw_n) fail(line_no, "e before n");
      VertexId u = -1;
      VertexId w = -1;
      if (!(ls >> u >> w) || !g.contains(u) || !g.contains(w))
        fail(line_no, "bad edge endpoint");
      if (u == w) fail(line_no, "self-loop");
      g.add_edge(u, w);
    } else {
      fail(line_no, "unknown directive '" + tag + "'");
    }
  }
  if (!saw_header) fail(line_no, "empty document (missing header)");
  if (!saw_n) fail(line_no, "missing n directive");
  return g;
}

inline Digraph from_edgelist_string(const std::string& text) {
  std::istringstream is(text);
  return read_edgelist(is);
}

}  // namespace graphio::io::reference
