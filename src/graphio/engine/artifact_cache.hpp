// Shared analysis artifacts for one computation graph.
//
// Every bound family consumes a handful of expensive graph-derived
// objects: a topological order, eigen-spectra, and the maximum wavefront
// cut of the convex min-cut baseline. None of them depend on the memory
// size M, so one cache instance serves every method and every M of a
// sweep — the Engine computes each artifact at most once per graph. Per-component artifacts (spectra, topo orders, min-cut
// sweeps, memsim rows, partition rows) additionally resolve through the
// content-addressed store::ArtifactStore before computing, so equal
// components across specs, stream patches, and (with a disk tier)
// process restarts compute once. Every kind takes a component's
// fingerprint from component_fingerprint and its subgraph from
// component_graph; the M-independent uniform kinds share one
// resolve-or-compute loop (resolve_each), the two M-dependent ones
// (memsim and partition rows) resolve all of a request's memories in one
// pass per component (resolve_each_memory), and spectra add the warm
// tier and the certified merge (core/spectral_pipeline.hpp). A merged
// spectrum is kept as the merge's own PipelineResult, one record per
// Laplacian kind; the cache keeps nothing per request — an evaluation
// lists the spectra it used itself (SpectrumUse). Hit/miss counters are
// exposed so tests (and the CLI's JSON reports) can certify the reuse,
// e.g. that a full `--method all --memory 4,8,16` run performs exactly
// one eigendecomposition per Laplacian kind.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "graphio/core/spectral_bound.hpp"
#include "graphio/core/spectral_pipeline.hpp"
#include "graphio/flow/convex_mincut.hpp"
#include "graphio/graph/components.hpp"
#include "graphio/graph/digraph.hpp"
#include "graphio/graph/laplacian.hpp"
#include "graphio/store/artifact_store.hpp"
#include "graphio/telemetry/metrics.hpp"

namespace graphio::engine {

/// A precomputed component decomposition handed to an ArtifactCache by a
/// caller that already maintains one — the stream session's
/// DynamicComponents membership plus its incrementally-maintained
/// per-component fingerprints. With a seed installed, a per-component
/// artifact query never decomposes, never re-fingerprints, and
/// materializes only the components whose fingerprints miss the
/// ArtifactStore (for a stream session: exactly the dirty ones).
struct ComponentSeed {
  struct Component {
    /// Vertex ids of the owning graph, ascending (the extraction order).
    std::vector<VertexId> vertices;
    /// Edges inside the component (weak components are edge-closed).
    std::int64_t edges = 0;
    /// Content fingerprint — must equal graph_fingerprint of the
    /// component's extracted subgraph (the seeder's contract; the stream
    /// session maintains exactly this invariant across patches).
    std::uint64_t fingerprint = 0;
    /// Session-stable external id per vertex, aligned with `vertices`
    /// (ascending). Lets a retained eigenbasis remap its rows across
    /// vertex add/remove patches; empty when unavailable (warm reuse
    /// then requires an identical vertex count). A dirty component's
    /// warm basis is found under `fingerprint`: the session re-keys it
    /// at patch time (store::ArtifactStore::adopt_eigenbasis).
    std::vector<VertexId> external_ids;
  };
  std::vector<Component> components;
};

/// A graph described by callbacks instead of an owned Digraph — the
/// stream session hands one of these (plus a seed) after every patch, so
/// a query that only touches per-component artifacts never pays the
/// O(n + m) whole-graph materialization. `component` receives the index
/// of the seed component (in the caller's pre-sort order) to extract.
struct LazyGraph {
  std::int64_t vertices = 0;
  std::int64_t edges = 0;
  std::function<Digraph()> materialize;
  std::function<Digraph(int)> component;
  std::function<std::int64_t()> max_out_degree;
  std::function<std::int64_t()> max_in_degree;
};

class ArtifactCache {
 public:
  struct Stats;  ///< per-instance counters, declared below

  /// Takes ownership of the graph; artifacts are computed lazily.
  /// Per-component artifacts resolve through `store`, the
  /// fingerprint-keyed content-addressed artifact store — pass an
  /// Engine-shared instance so equal components across specs (and across
  /// the Engines of a serve::Scheduler's workers) compute once per process
  /// (or, with a disk tier, once ever); when null, the cache creates a private
  /// memory-only one (identical components *within* one graph still
  /// dedupe). Every count also adds into `totals` when given: an
  /// Engine's lifetime totals across every cache it creates.
  explicit ArtifactCache(Digraph graph,
                         std::shared_ptr<store::ArtifactStore> store = nullptr,
                         Stats* totals = nullptr);

  /// Lazy variant: the graph stays unmaterialized until a whole-graph
  /// consumer (pebble-exact, monolithic spectra) asks for it;
  /// per-component artifact queries extract through `lazy.component` —
  /// only store misses — instead. The `seed` (validated against the
  /// graph on first use) pre-installs the decomposition and
  /// per-component fingerprints, so the query path skips both: without
  /// known fingerprints every component would have to materialize
  /// anyway, defeating the point.
  ArtifactCache(LazyGraph lazy, std::shared_ptr<store::ArtifactStore> store,
                ComponentSeed seed, Stats* totals = nullptr);

  /// The graph, materializing it on first use for lazily-constructed
  /// caches.
  [[nodiscard]] const Digraph& graph();

  /// Structural counts, without materializing a lazy graph.
  [[nodiscard]] std::int64_t num_vertices() const noexcept;
  [[nodiscard]] std::int64_t num_edges() const noexcept;
  [[nodiscard]] std::int64_t max_out_degree();
  [[nodiscard]] std::int64_t max_in_degree();

  /// Content fingerprint of the graph (engine/fingerprint.hpp), computed
  /// on first use and cached — the serve ResultStore asks for it on every
  /// request.
  [[nodiscard]] std::uint64_t fingerprint();

  /// Kahn topological order (lowest-id-first), assembled per weak
  /// component: each component's order resolves from the ArtifactStore by
  /// content fingerprint or runs Kahn on just that component, and the
  /// per-component orders merge by smallest next global id — bit-identical
  /// to whole-graph Kahn, because the global greedy always picks the
  /// minimum over the components' local minima. Throws contract_error on
  /// cyclic graphs.
  const std::vector<VertexId>& topo_order();

  /// One spectrum an evaluation used: its Laplacian kind, and whether the
  /// evaluation computed it (a cache miss) or was served it (a hit).
  struct SpectrumUse {
    LaplacianKind kind = LaplacianKind::kOutDegreeNormalized;
    bool computed = false;
  };

  /// The merged spectrum of `kind` at h = min(count, n): the merge's
  /// PipelineResult, kept as is, one record per kind with the solve
  /// options it was computed under. A converged record covering the
  /// request (count not larger, same solver-relevant options) is a cache
  /// hit and triggers no eigensolve; it may hold more than `count` values
  /// — every consumer in the library maximizes over a prefix, so extra
  /// values only help. Anything else merges again and replaces the
  /// record: a larger count, changed options, or a record that did not
  /// converge (a deadline skipped or a `solver.converge` fault tripped
  /// its solves, or a solve failed). A re-merge takes every component
  /// solve the store kept — converged, or genuinely failed — from the
  /// store, so only skipped or tripped components solve again.
  ///
  /// `uses`, when given, is the calling evaluation's list of the spectra
  /// it used: a kind's first use appends (kind, computed), and a kind
  /// already on it is served as a hit even when not converged, so every
  /// row of one evaluation derives from one spectrum per kind. A merge
  /// checks the evaluation's `deadline` at every component. Solves retain
  /// eigenbases only on a lazy (stream-installed) graph while the store
  /// budgets them.
  const PipelineResult& spectrum(LaplacianKind kind, int count,
                                 const SpectralOptions& options = {},
                                 std::vector<SpectrumUse>* uses = nullptr,
                                 const Deadline& deadline = {});

  /// The memory-independent core of the convex min-cut baseline, per weak
  /// component: cuts[c] = max_v C(v) within component c. Components share
  /// no wavefront (a down-closed set of a disjoint union is the union of
  /// per-component down-closed sets), so the bound at memory M composes
  /// per Kwasniewski-style subgraph summation:
  ///     J* ≥ Σ_c 2·max(0, cuts[c] − M)
  /// — equal to the classical whole-graph bound on connected graphs and
  /// at least as strong on disjoint unions. Each component's sweep
  /// resolves from the ArtifactStore by content fingerprint or computes
  /// (and, when completed, publishes). Computed once per cache; a finite
  /// time budget applies per component on the first (computing) call.
  /// Each computing sweep adds its max-flows and pruned vertices to the
  /// `mincut.flows` / `mincut.pruned` counters and `mincut` span.
  struct WavefrontArtifact {
    std::vector<std::int64_t> cuts;  ///< per component, component order
    std::int64_t best_cut = 0;       ///< max over components
    VertexId best_vertex = -1;       ///< global id of the argmax vertex
    bool completed = true;           ///< every component sweep completed
    int components = 1;
  };
  const WavefrontArtifact& max_wavefront_cut(
      const flow::ConvexMinCutOptions& options = {});

  /// Best simulated schedule cost at (memory, random_orders) for every
  /// entry of one request's `memories`, one row per entry, each summed per
  /// weak component. Components share no values, so scheduling them one
  /// after another is feasible whenever each fits — the sum is a valid
  /// (and never weaker) upper bound, identical to the whole-graph
  /// simulation on connected graphs. Per-component rows resolve from the
  /// ArtifactStore by content fingerprint, one (component, M) key each; a
  /// component that misses any memory extracts once and simulates every
  /// missed memory in one sim::best_schedule pass. Each entry counts one
  /// cache hit or miss, as a one-memory request would. Requires every
  /// memory ≥ the graph's max in-degree (the caller's feasibility guard);
  /// throws contract_error like sim::best_schedule_io otherwise.
  struct MemsimArtifact {
    std::int64_t reads = 0;
    std::int64_t writes = 0;
    int components = 1;
    [[nodiscard]] std::int64_t total() const noexcept {
      return reads + writes;
    }
  };
  std::vector<MemsimArtifact> memsim_rows(
      const std::vector<std::int64_t>& memories, int random_orders);

  /// Optimal Lemma 1 partition certificate at every entry of one
  /// request's `memories`, one row per entry, composed per weak
  /// component: segment costs are additive across components (no cross
  /// edges), and merging adjacent segments at a component seam costs
  /// nothing while refunding one 2M segment charge, so for the
  /// component-concatenated natural order the whole-graph optimum is
  ///     max(0, Σ_c objective_c + 2M·(k − 1))
  /// over the k components with edges (edgeless components fold into a
  /// neighboring segment at zero cost — their own −2M optimum exactly
  /// cancels their seam refund). Per-component objectives resolve from
  /// the ArtifactStore by content fingerprint, one (component, M) key
  /// each (and persist through its disk tier); a component that misses
  /// any memory extracts its subgraph and resolves its order once, then
  /// runs one O(n²) DP pass over every missed memory — a stream patch
  /// recomputes exactly the dirty components. Each entry counts one cache
  /// hit or miss, as a one-memory request would. At least as strong as
  /// the former whole-graph DP on the interleaved merged order, and
  /// identical on connected graphs. Throws contract_error on cyclic
  /// graphs.
  struct PartitionArtifact {
    double bound = 0.0;         ///< max(0, composed objective)
    std::int64_t segments = 0;  ///< maximizing partition (0 when bound 0)
    int components = 1;
  };
  std::vector<PartitionArtifact> partition_rows(
      const std::vector<double>& memories);

  struct Stats {
    std::int64_t hits = 0;         ///< artifact requests served from cache
    std::int64_t misses = 0;       ///< artifact requests that computed
    std::int64_t eigensolves = 0;  ///< per-component eigendecomposition runs
    std::int64_t mincut_sweeps = 0;  ///< per-component wavefront sweeps run
    std::int64_t topo_computes = 0;  ///< per-component Kahn runs
    std::int64_t memsim_runs = 0;    ///< per-component schedule simulations
    std::int64_t partition_runs = 0; ///< per-component Lemma 1 DP runs
    /// Component solves served by the shared artifact store instead of an
    /// eigensolver run.
    std::int64_t component_hits = 0;
    /// Component subgraphs extracted (store misses, every artifact kind)
    /// — the stream invariant is extractions == dirty components.
    std::int64_t subgraph_extractions = 0;
    /// Component fingerprints computed, every artifact kind (zero for
    /// seeded stream queries).
    std::int64_t fingerprint_computes = 0;
    /// Component eigensolves warm-started from a retained basis.
    std::int64_t warm_hits = 0;
    /// Iterations those warm starts avoided versus their producing solves.
    std::int64_t warm_iterations_saved = 0;
    /// Cumulative per-phase wall time (the stream bench's fingerprint /
    /// extract / solve / merge breakdown). Fingerprint and extract time
    /// cover the same events as their counts, for every artifact kind;
    /// solve and merge time are the spectrum's.
    double fingerprint_seconds = 0.0;
    double extract_seconds = 0.0;
    double solve_seconds = 0.0;
    double merge_seconds = 0.0;

    /// The counter table (telemetry/metrics.hpp): one row per field, in
    /// JSON order; registry names `cache.<key>`. The warm rows are
    /// instance-only: their registry twins are the spectral pipeline's
    /// `solver.warm_*`.
    static constexpr auto fields() {
      using F = telemetry::Field<Stats>;
      return std::array{
          F{"hits", &Stats::hits},
          F{"misses", &Stats::misses},
          F{"eigensolves", &Stats::eigensolves},
          F{"mincut_sweeps", &Stats::mincut_sweeps},
          F{"topo_computes", &Stats::topo_computes},
          F{"memsim_runs", &Stats::memsim_runs},
          F{"partition_runs", &Stats::partition_runs},
          F{"component_hits", &Stats::component_hits},
          F{"subgraph_extractions", &Stats::subgraph_extractions},
          F{"fingerprint_computes", &Stats::fingerprint_computes},
          F{"warm_hits", &Stats::warm_hits, {}, false},
          F{"warm_iterations_saved", &Stats::warm_iterations_saved, {}, false},
          F{"fingerprint_seconds", {}, &Stats::fingerprint_seconds},
          F{"extract_seconds", {}, &Stats::extract_seconds},
          F{"solve_seconds", {}, &Stats::solve_seconds},
          F{"merge_seconds", {}, &Stats::merge_seconds}};
    }
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  /// The content-addressed artifact store this cache resolves against
  /// (shared with the owning Engine, or private).
  [[nodiscard]] const std::shared_ptr<store::ArtifactStore>&
  artifact_store() const noexcept {
    return store_;
  }

  /// Every spectrum record currently cached, by Laplacian kind — const
  /// introspection for the provenance layer; never computes.
  [[nodiscard]] const std::map<LaplacianKind, PipelineResult>&
  cached_spectra() const noexcept {
    return spectra_;
  }

 private:
  /// The cached decomposition behind every per-component artifact:
  /// computed once per graph (all artifact kinds and option groups share
  /// it), either from a seed (zero work) or by one BFS. Fingerprints fill
  /// in lazily — at most once per component for the cache's lifetime.
  struct Decomposition {
    WeakComponents wc;
    std::vector<std::int64_t> edges;         ///< per component
    std::vector<std::uint64_t> fingerprints; ///< valid where known
    std::vector<bool> known;
    /// Pre-sort position of each component in the caller's seed — the
    /// index LazyGraph::component expects (empty for unseeded caches).
    std::vector<int> source_index;
    /// Session-stable external ids per component (seeded caches only;
    /// inner vectors may be empty) — the eigenbasis row-remap key.
    std::vector<std::vector<VertexId>> external_ids;
  };
  Decomposition& decomposition();
  /// The component index that names the whole graph as one component —
  /// a monolithic spectrum (options.decompose off), content-addressed by
  /// the whole-graph fingerprint and never decomposed.
  static constexpr int kWholeGraph = -1;
  /// The content fingerprint of component c, computed on first use under
  /// a "fingerprint" span, counted in fingerprint_computes and timed in
  /// fingerprint_seconds.
  std::uint64_t component_fingerprint(int c);
  /// Component c as a graph: the materialized graph itself when it is the
  /// only component, else its extracted subgraph in `scratch`, built
  /// under an "extract" span, counted in subgraph_extractions and timed
  /// in extract_seconds.
  const Digraph& component_graph(int c, Digraph& scratch);
  /// Component c's spectrum into `merge`: the store's solve, else a fresh
  /// one (warm where the warm tier applies) published to the store unless
  /// the merge's fault seam tripped it.
  void merge_component_spectrum(SpectrumMerge& merge, int c,
                                LaplacianKind kind,
                                const SpectralOptions& options);
  /// Component c's K artifact under its fingerprint: the store's entry,
  /// else compute(c, sub) on the component graph — `*sub` when
  /// given, else extracted — published to the store.
  template <store::ArtifactKind K, class Compute>
  store::ArtifactStore::Artifact<K> resolve(int c, const Digraph* sub,
                                            Compute&& compute);
  /// resolve<K> for every component with edges, in component order,
  /// handing each artifact to use(c, artifact). Edgeless components'
  /// artifacts are trivial — cheaper to regenerate than to fingerprint —
  /// so they never touch the store.
  template <store::ArtifactKind K, class Compute, class Use>
  void resolve_each(Compute&& compute, Use&& use);
  /// resolve_each for a kind keyed by (fingerprint, memory, options...),
  /// over a list of distinct memories: per component with edges, every
  /// (component, M) key is looked up; on any miss the component extracts
  /// once and compute(c, sub, missed) returns the missed memories'
  /// artifacts from one pass, each published under its own key. Then
  /// use(c, i, artifact) receives memories[i]'s artifact, every i.
  template <store::ArtifactKind K, class Memory, class Compute, class Use,
            class... Options>
  void resolve_each_memory(const std::vector<Memory>& memories,
                           Compute&& compute, Use&& use,
                           const Options&... options);
  /// memo's row for every entry of `memories`, one hit or miss counted
  /// per entry: the distinct entries memo lacks go, in first-seen order,
  /// to one compute(missed) call, whose rows memo then keeps.
  template <class Memory, class Row, class Compute>
  std::vector<Row> memoized_rows(const std::vector<Memory>& memories,
                                 std::map<Memory, Row>& memo,
                                 Compute&& compute);
  /// Min-first Kahn on one component graph (the `topo` compute of
  /// topo_order and of the partition DP's order).
  store::TopoOrderArtifact kahn(int c, const Digraph& sub);
  /// Adds `delta` to one Stats field, its registry metric and totals_.
  template <auto Member, class T>
  void bump(T delta);

  Digraph graph_;
  bool materialized_ = true;
  std::optional<LazyGraph> lazy_;
  std::shared_ptr<store::ArtifactStore> store_;
  std::optional<ComponentSeed> seed_;
  std::optional<Decomposition> decomp_;
  Stats stats_;
  Stats* totals_ = nullptr;
  std::optional<std::uint64_t> fingerprint_;
  std::optional<std::vector<VertexId>> topo_;
  std::map<LaplacianKind, PipelineResult> spectra_;
  std::map<LaplacianKind, SpectralOptions> spectra_options_;
  std::optional<WavefrontArtifact> max_cut_;
  /// Memsim rows by random_orders, then memory.
  std::map<int, std::map<std::int64_t, MemsimArtifact>> memsims_;
  std::map<double, PartitionArtifact> partitions_;
};

}  // namespace graphio::engine
