// DynamicGraph — a mutable computation graph with stable external ids.
//
// Digraph (graph/digraph.hpp) is append-only by design: every analysis in
// the library consumes a frozen graph. A stream of patches needs the
// complement — removal support and ids that survive removal, so mutation
// k+1 can reference vertices created before mutation k deleted others.
// DynamicGraph keeps adjacency per external id with an alive flag; dead
// ids are never reused. materialize() compacts the alive vertices (in
// ascending external-id order) into a frozen Digraph for analysis; the
// compaction preserves per-vertex adjacency-list order, so a subgraph of
// the materialized graph is bit-identical — same content fingerprint —
// to one extracted directly from the live structure.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "graphio/graph/digraph.hpp"

namespace graphio::stream {

class DynamicGraph {
 public:
  DynamicGraph() = default;
  /// Seeds from a frozen graph: external id i is Digraph vertex i.
  explicit DynamicGraph(const Digraph& g);

  /// Appends one alive isolated vertex; returns its external id.
  VertexId add_vertex();
  /// Removes an alive vertex and every incident edge (all multiplicities).
  /// The id stays dead forever.
  void remove_vertex(VertexId v);
  /// Adds one u -> v edge (parallel edges accumulate; self-loops throw).
  void add_edge(VertexId u, VertexId v);
  /// Removes one multiplicity of u -> v; throws if the edge is absent.
  void remove_edge(VertexId u, VertexId v);

  /// Ids ever allocated (alive + dead) — the bound on valid external ids.
  [[nodiscard]] std::int64_t id_limit() const noexcept {
    return static_cast<std::int64_t>(out_.size());
  }
  [[nodiscard]] std::int64_t num_vertices() const noexcept {
    return num_alive_;
  }
  [[nodiscard]] std::int64_t num_edges() const noexcept { return num_edges_; }
  [[nodiscard]] bool alive(VertexId v) const noexcept {
    return v >= 0 && v < id_limit() && alive_[static_cast<std::size_t>(v)];
  }

  /// Out-/in-neighbors of an alive vertex, with multiplicity.
  [[nodiscard]] std::span<const VertexId> children(VertexId v) const;
  [[nodiscard]] std::span<const VertexId> parents(VertexId v) const;

  void set_name(VertexId v, std::string name);
  [[nodiscard]] const std::string& name(VertexId v) const;

  /// Freezes the alive vertices into a Digraph: external ids compact to
  /// 0..n-1 in ascending order; edges keep per-vertex list order and
  /// names survive.
  [[nodiscard]] Digraph materialize() const;

  // Inverse-mutation journal: while active, every mutation records its
  // exact inverse (list positions included), so a failed patch rolls back
  // in O(state the patch touched) instead of the O(n + m) a full
  // snapshot costs on EVERY patch, successful ones included. Rollback is
  // bit-exact: adjacency-list order, names, and counters all return to
  // the begin_journal() state — same content fingerprints.

  /// Starts recording. O(1); any previous journal is discarded.
  void begin_journal();
  /// Accepts the mutations since begin_journal and drops the journal.
  void commit_journal();
  /// Reverts every mutation since begin_journal, newest first.
  void rollback_journal();

 private:
  struct Undo {
    enum class Kind { kAddVertex, kAddEdge, kRemoveEdge, kRemoveVertex };
    Kind kind;
    VertexId u = -1;
    VertexId v = -1;
    /// kRemoveEdge: positions the edge occupied in out_[u] / in_[v].
    std::size_t out_pos = 0;
    std::size_t in_pos = 0;
    /// kRemoveVertex: v's former adjacency (moved out, not copied) …
    std::vector<VertexId> out_adj;
    std::vector<VertexId> in_adj;
    /// … and where each mirror occurrence was erased, in erase order:
    /// out_mirror = (w, index of v in in_[w]), in_mirror = (w, index of v
    /// in out_[w]). Undone in reverse, so every index is exact.
    std::vector<std::pair<VertexId, std::size_t>> out_mirror;
    std::vector<std::pair<VertexId, std::size_t>> in_mirror;
    std::string name;
  };

  void check_alive(VertexId v, const char* role) const;
  void undo_one(const Undo& undo);

  std::vector<std::vector<VertexId>> out_;
  std::vector<std::vector<VertexId>> in_;
  std::vector<bool> alive_;
  std::vector<std::string> names_;
  std::int64_t num_alive_ = 0;
  std::int64_t num_edges_ = 0;
  bool journaling_ = false;
  std::vector<Undo> journal_;
};

}  // namespace graphio::stream
