// Plain-text edge-list serialization for computation graphs.
//
// Format (line oriented, '#' starts a comment):
//   graphio-edgelist 1        header, required
//   n <num_vertices>          required, before any v/e line
//   v <id> <name>             optional vertex name (rest of line)
//   e <u> <w>                 one directed edge; repeat for parallel edges
//
// Tokens are separated by any whitespace (so CRLF files read like LF
// ones), a number may carry a leading '+' or '-', and anything after the
// tokens a directive needs is ignored — including trailing characters
// glued to the last number ("e 0 1x" is the edge 0→1); out-of-range and
// overflowing numbers are errors. A `v` name is the rest of its line
// after leading blanks, a CRLF file's '\r' included.
//
// Every reader parses one in-memory buffer with std::from_chars:
// load_edgelist and read_edgelist read the whole input first, and
// from_edgelist_string parses its argument in place.
//
// The format is deliberately trivial: it exists so users can feed their
// own computation graphs to the bound tools (tools/graphio-cli) without
// writing C++, and so benches can persist generated workloads.
#pragma once

#include <filesystem>
#include <iosfwd>
#include <string>

#include "graphio/graph/digraph.hpp"

namespace graphio::io {

/// Writes `g` in edge-list format. Names are emitted only when non-empty.
void write_edgelist(std::ostream& out, const Digraph& g);

/// Parses an edge-list document. Throws contract_error with a line number
/// on malformed input (unknown directive, ids out of range, missing
/// header, duplicate n line, edges before n).
Digraph read_edgelist(std::istream& in);

/// File convenience wrappers (throw on unopenable paths).
void save_edgelist(const std::filesystem::path& path, const Digraph& g);
Digraph load_edgelist(const std::filesystem::path& path);

/// Round-trip helpers used by tests and tools.
std::string to_edgelist_string(const Digraph& g);
Digraph from_edgelist_string(const std::string& text);

}  // namespace graphio::io
