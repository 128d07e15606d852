#include "graphio/engine/fingerprint.hpp"

#include <charconv>

#include "graphio/support/contracts.hpp"

namespace graphio::engine {

std::uint64_t graph_fingerprint(const Digraph& g) noexcept {
  std::uint64_t h = fnv64_begin();
  h = fnv64_mix(h, static_cast<std::uint64_t>(g.num_vertices()));
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    // Delimit each adjacency list so (1-child, 1-child) hashes differently
    // from (2-children, 0-children).
    h = fnv64_mix(h, static_cast<std::uint64_t>(g.out_degree(v)));
    for (VertexId c : g.children(v))
      h = fnv64_mix(h, static_cast<std::uint64_t>(c));
  }
  return h;
}

std::uint64_t subgraph_fingerprint(const Digraph& g, const WeakComponents& wc,
                                   int c) noexcept {
  // Mirrors graph_fingerprint over the virtual subgraph: local vertex i
  // is wc.vertices[c][i] (ascending original ids, the extraction order),
  // and each child maps through wc.local_id — the same values the
  // extracted subgraph's adjacency lists would hold, in the same order.
  const std::vector<VertexId>& ids =
      wc.vertices[static_cast<std::size_t>(c)];
  std::uint64_t h = fnv64_begin();
  h = fnv64_mix(h, static_cast<std::uint64_t>(ids.size()));
  for (VertexId v : ids) {
    h = fnv64_mix(h, static_cast<std::uint64_t>(g.out_degree(v)));
    for (VertexId w : g.children(v))
      h = fnv64_mix(
          h, static_cast<std::uint64_t>(
                 wc.local_id[static_cast<std::size_t>(w)]));
  }
  return h;
}

std::string fingerprint_hex(std::uint64_t fingerprint) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = digits[fingerprint & 0xF];
    fingerprint >>= 4;
  }
  return out;
}

std::uint64_t parse_fingerprint_hex(std::string_view hex) {
  std::uint64_t fp = 0;
  const char* end = hex.data() + hex.size();
  const auto [p, ec] = std::from_chars(hex.data(), end, fp, 16);
  GIO_EXPECTS_MSG(hex.size() == 16 && ec == std::errc() && p == end,
                  "bad fingerprint '" + std::string(hex) + "'");
  return fp;
}

}  // namespace graphio::engine
