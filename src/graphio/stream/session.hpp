// StreamSession — incremental I/O-bound analysis of one evolving graph.
//
//   stream::StreamSession session("g");
//   session.load("fft:6");                        // or an explicit Digraph
//   stream::PatchReport r = session.apply(patch); // mutate + invalidate
//   engine::BoundRequest req;
//   req.memories = {8};
//   req.methods = {"spectral"};
//   engine::BoundReport report = session.evaluate(req);
//
// The session owns an engine::Engine and keeps the patched graph
// installed under its name, so queries between patches share one
// ArtifactCache (spectra, wavefront cuts computed once). A patch:
//
//   1. applies its mutations to the DynamicGraph under the graph's
//      rollback journal; once all of them applied, replays them as
//      DynamicComponents notifications, which update the labels
//      incrementally (union-find insertions, partial-rebuild deletions)
//      and collect the dirty-component set;
//   2. re-fingerprints only the dirty components and recombines the
//      session fingerprint from the per-component values — clean
//      components are never re-hashed;
//   3. invalidates exactly what died: the named graph's whole-graph
//      artifacts (replaced via Engine::install_graph) and the artifact-
//      store memory-tier entries whose content no longer occurs in the
//      graph (refcounted across equal components, evicted at zero; a
//      disk tier, being append-only, keeps them for restarts).
//
// The next evaluate() then recomputes the dirty components only — for
// every artifact kind, not just spectra: clean components hit the
// fingerprint-keyed store::ArtifactStore, and the graph itself is handed
// to the engine lazily (engine::LazyGraph), so a query for topo/min-cut/
// memsim artifacts never rematerializes the whole Digraph — while
// producing bounds identical to a from-scratch analysis of the final
// graph (the decomposition is exact; bench/stream_updates.cpp certifies
// parity and the speedup, tests/stream_session_test.cpp the property).
//
// Thread safety: all public methods serialize on one internal mutex, so a
// session can be shared by a mutating thread and querying threads; each
// caller sees a consistent patch boundary.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "graphio/engine/engine.hpp"
#include "graphio/stream/dynamic_components.hpp"
#include "graphio/stream/dynamic_graph.hpp"
#include "graphio/stream/mutation.hpp"
#include "graphio/telemetry/metrics.hpp"

namespace graphio::stream {

/// What one apply() did — the stream result-line payload.
struct PatchReport {
  std::string graph;       ///< session name
  std::string label;       ///< patch label (may be empty)
  std::int64_t mutations = 0;
  std::int64_t vertices = 0;  ///< alive vertices after the patch
  std::int64_t edges = 0;
  int components = 0;
  int dirty_components = 0;  ///< components whose content changed
  int clean_components = 0;  ///< components untouched (spectra reusable)
  std::int64_t evicted = 0;  ///< artifact-store entries invalidated
  std::string fingerprint;   ///< session fingerprint after the patch (hex)
  double seconds = 0.0;      ///< apply wall time (excluded from JSONL)
};

class StreamSession {
 public:
  /// `name` addresses the evolving graph inside the owned Engine; it must
  /// not parse as a family spec or name an existing graph file (the
  /// closed-form method would otherwise trust the name's family metadata
  /// for a graph the patches have since changed). `store` shares a
  /// content-addressed artifact store with other sessions/engines (the
  /// serve layer passes its process-wide, possibly disk-backed one);
  /// when null the session owns a private memory-only store.
  explicit StreamSession(std::string name = "stream",
                         std::shared_ptr<store::ArtifactStore> store =
                             nullptr);

  /// Seeds the session from a spec ("fft:6", a .gel/.dot path) or an
  /// explicit graph; replaces any previous state (a load is patch zero:
  /// every component is dirty).
  PatchReport load(const std::string& spec);
  PatchReport load(const Digraph& graph);

  /// Applies one patch atomically: the DynamicGraph's inverse-mutation
  /// journal (not an O(n+m) snapshot) backs the rollback, so a failing
  /// mutation unwinds in O(state the patch touched); the component labels
  /// only hear the patch after every mutation applied, so they never need
  /// an undo. Throws contract_error (leaving the session on the last good
  /// graph, bit-identically) when a mutation does not apply — callers
  /// retry with a corrected patch.
  PatchReport apply(const Patch& patch);

  /// Evaluates a request against the current graph. request.spec/graph
  /// are ignored (the session's graph wins); methods/memories/options
  /// pass through. Clean components resolve from the artifact store.
  engine::BoundReport evaluate(engine::BoundRequest request);

  /// Session content fingerprint: the combination (order-independent) of
  /// the current components' content fingerprints — equal iff the graphs
  /// have equal component multisets. Maintained incrementally: a patch
  /// re-hashes dirty components only.
  [[nodiscard]] std::uint64_t fingerprint() const;

  /// The current graph, frozen (compacted ids ascend with external ids).
  [[nodiscard]] Digraph graph() const;

  /// Current structural counts, without materializing anything — the
  /// serve layer stamps result lines with these.
  [[nodiscard]] std::int64_t num_vertices() const;
  [[nodiscard]] std::int64_t num_edges() const;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] bool loaded() const;

  struct Stats {
    std::int64_t patches = 0;
    std::int64_t mutations = 0;
    std::int64_t dirty_components = 0;  ///< summed over patches
    std::int64_t clean_components = 0;
    std::int64_t evicted = 0;           ///< artifact-store evictions
    std::int64_t queries = 0;
    /// The counter table (telemetry/metrics.hpp); registry names
    /// `stream.<key>`.
    static constexpr auto fields() {
      using F = telemetry::Field<Stats>;
      return std::array{F{"patches", &Stats::patches},
                        F{"mutations", &Stats::mutations},
                        F{"dirty_components", &Stats::dirty_components},
                        F{"clean_components", &Stats::clean_components},
                        F{"evicted", &Stats::evicted},
                        F{"queries", &Stats::queries}};
    }
  };
  [[nodiscard]] Stats stats() const;

  /// The owned engine (test/introspection hook; the artifact store and
  /// artifact stats live there).
  [[nodiscard]] engine::Engine& engine() noexcept { return *engine_; }

 private:
  PatchReport load_locked(const Digraph& graph);
  PatchReport finish_patch_locked(const Patch& patch,
                                  const std::vector<int>& dirty,
                                  std::int64_t evicted_before,
                                  double seconds);
  void refingerprint_locked(const std::vector<int>& dirty);
  std::uint64_t combined_fingerprint_locked() const;

  mutable std::mutex mutex_;
  std::string name_;
  std::unique_ptr<engine::Engine> engine_;
  DynamicGraph graph_;
  DynamicComponents components_;
  bool loaded_ = false;
  /// Content fingerprint per alive component id.
  std::map<int, std::uint64_t> component_fingerprint_;
  /// How many current components share each content fingerprint; an
  /// eviction fires when a count reaches zero.
  std::map<std::uint64_t, int> fingerprint_refcount_;
  Stats stats_;
  /// Dirty/clean split of the most recent patch — stamped onto
  /// "stream.query" spans so a trace relates each query's cost to how
  /// much of the graph the preceding patch invalidated.
  int last_dirty_ = 0;
  int last_clean_ = 0;
};

}  // namespace graphio::stream
