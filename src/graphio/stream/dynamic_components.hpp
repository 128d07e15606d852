// DynamicComponents — weakly-connected components of a DynamicGraph,
// maintained incrementally across patches.
//
// The per-component spectral pipeline (core/spectral_pipeline.hpp) made
// spectra component-local; for a stream of patches the remaining cost is
// knowing *which* components a patch touched, so everything else can be
// served from the fingerprint-keyed component cache. This structure keeps
// that set exact and cheap:
//
//  - insertions (add_vertex / add_edge) update labels by weighted union —
//    the smaller component's vertices relabel into the larger, the
//    classic union-find-by-size bound (each vertex relabels O(log n)
//    times across a patch history);
//  - deletions (remove_edge / remove_vertex) cannot be resolved locally
//    (the component may or may not split), so the touched component is
//    queued and flush() rebuilds just the queued components by a BFS over
//    their own vertices — an epoch-style partial rebuild that never
//    touches clean components.
//
// Every component whose *content* changed this patch (membership or any
// internal edge) lands in dirty(), even when its vertex set is unchanged;
// clean components keep their id, membership, and — because external ids
// are stable and subgraph extraction is order-deterministic — their
// content fingerprint, which is exactly what StreamSession needs to reuse
// their cached spectra.
//
// The structure has no rollback of its own: StreamSession notifies it only
// after every mutation of a patch has applied to the DynamicGraph, so a
// failed patch never reaches the labels (the graph's journal alone unwinds
// it).
#pragma once

#include <cstdint>
#include <vector>

#include "graphio/graph/digraph.hpp"
#include "graphio/stream/dynamic_graph.hpp"

namespace graphio::stream {

class DynamicComponents {
 public:
  DynamicComponents() = default;
  /// Full decomposition of the current graph (one BFS epoch over all).
  explicit DynamicComponents(const DynamicGraph& g) { reset(g); }

  void reset(const DynamicGraph& g);

  /// Starts a patch: clears the dirty set (the rebuild queue carries over
  /// only within a patch; flush() must have been called before).
  void begin_patch();

  // Mutation notifications, in patch order. They read and update the
  // labels only, never the graph, so they may run after the DynamicGraph
  // applied the whole patch; flush() then reads the post-patch adjacency.
  void on_add_vertex(VertexId v);
  void on_add_edge(VertexId u, VertexId v);
  void on_remove_edge(VertexId u, VertexId v);
  void on_remove_vertex(VertexId v);

  /// Resolves queued deletions by partially rebuilding only the touched
  /// components; afterwards labels are exact. Components created by a
  /// split keep ids deterministic (the split component's id goes to the
  /// piece containing its smallest vertex; new pieces get fresh ids in
  /// ascending smallest-vertex order).
  void flush(const DynamicGraph& g);

  /// Alive component count (valid after flush()).
  [[nodiscard]] int count() const noexcept { return alive_count_; }

  /// Ascending ids of the alive components.
  [[nodiscard]] std::vector<int> component_ids() const;

  /// Ids of components whose content changed since begin_patch(),
  /// ascending. Dead components (fully removed or absorbed by a merge)
  /// are not listed — they have no spectrum to solve.
  [[nodiscard]] std::vector<int> dirty() const;

  /// Component id of an alive vertex.
  [[nodiscard]] int component_of(VertexId v) const;

  /// True when `c` currently names an alive component.
  [[nodiscard]] bool alive(int c) const noexcept {
    return c >= 0 && static_cast<std::size_t>(c) < slots_.size() &&
           slots_[static_cast<std::size_t>(c)].alive;
  }

  /// External ids of component c, ascending.
  [[nodiscard]] const std::vector<VertexId>& vertices_of(int c) const;

  /// The induced subgraph of component c: local ids in ascending
  /// external-id order, adjacency-list order preserved — bit-identical
  /// (same content fingerprint) to WeakComponents::subgraph of the
  /// materialized graph, which is how cached component spectra stay valid
  /// across patches.
  [[nodiscard]] Digraph subgraph(const DynamicGraph& g, int c) const;

  /// Test hook: true when labels equal a from-scratch decomposition.
  [[nodiscard]] bool matches(const DynamicGraph& g) const;

 private:
  struct Slot {
    /// External ids; ascending whenever `sorted`. Merges append the
    /// smaller side unsorted (O(|smaller|)) and flush() restores order
    /// with one sort per dirty component, so a k-mutation patch never
    /// pays O(k · |component|) in list copies.
    std::vector<VertexId> vertices;
    bool alive = false;
    bool sorted = true;
  };

  int new_slot();
  void mark_dirty(int c);
  void queue_rebuild(int c);
  /// Labels every unlabeled vertex reachable from `root` with `c` and
  /// lists them, ascending, in slot c (whose list starts empty).
  void label_from(const DynamicGraph& g, VertexId root, int c,
                  std::vector<VertexId>& stack);

  std::vector<Slot> slots_;
  std::vector<int> component_of_;  ///< by external id; -1 for dead ids
  std::vector<bool> dirty_flag_;   ///< by slot id
  std::vector<int> dirty_list_;
  std::vector<bool> rebuild_flag_;  ///< by slot id
  std::vector<int> rebuild_list_;
  int alive_count_ = 0;
};

}  // namespace graphio::stream
