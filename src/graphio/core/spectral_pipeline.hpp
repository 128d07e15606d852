// SpectralPipeline — decompose-and-conquer evaluation of Laplacian
// spectra, the hot path behind every Theorem 4/5/6 bound.
//
// The Laplacian of a graph is block-diagonal over its weakly connected
// components (graph/components.hpp), so its spectrum is the multiset
// union of the components' spectra (Spectrum::merge) — the same
// decomposition Section 5 exploits analytically (Lemmas 8–11) applied to
// the numerical path. The pipeline:
//
//   1. decomposes the graph into weak components (skipped when
//      options.decompose is off or the graph is connected);
//   2. solves each component independently, choosing a solver tier per
//      component with la::choose_solver — a disjoint union
//      too big for the dense solver usually splits into components that
//      are not, turning one O(n³) monolithic solve into c solves of
//      O((n/c)³), and edgeless components into no solve at all (their
//      spectrum is identically zero);
//   3. merges the per-component spectra and returns the smallest h values
//      of the union — exactly what a monolithic solve would have
//      produced, at any tolerance, because the decomposition is exact.
//
// The hot path is *lookup-then-extract*: callers that know the
// decomposition up front (the engine's ArtifactCache, the stream
// session) describe it as a ComponentPlan — shape, content fingerprint,
// and a lazy materializer per component — and run_plan consults a
// fingerprint-first resolver (the content-addressed ArtifactStore,
// store/artifact_store.hpp) before touching any vertex data. A
// resolved (clean) component is never materialized, never re-hashed,
// and never solved: a cache hit costs one map lookup and zero
// allocations. Only resolver misses build their subgraph and run a
// solver, so batch/serve workloads sharing components across specs
// eigensolve — and extract — each distinct component once per process,
// and a stream query pays only for the components its patch dirtied.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "graphio/core/spectral_bound.hpp"
#include "graphio/core/spectrum.hpp"
#include "graphio/graph/digraph.hpp"
#include "graphio/graph/laplacian.hpp"
#include "graphio/la/solver_policy.hpp"

namespace graphio {

/// The solved spectrum of one weakly connected component.
struct ComponentSolve {
  std::int64_t vertices = 0;
  std::int64_t edges = 0;
  /// Tier that produced the values (meaningful when solver_ran).
  la::SolverKind solver = la::SolverKind::kDense;
  /// False for trivial components (edgeless: spectrum identically zero)
  /// and for cache-served solves — no eigensolver ran for this call.
  bool solver_ran = false;
  /// True when a component-spectrum cache served the values.
  bool from_cache = false;
  /// True when the cached values originated in the store's disk tier
  /// (JSONL replay) rather than this process — only meaningful together
  /// with from_cache.
  bool from_disk = false;
  /// True when the solve consumed a retained predecessor eigenbasis (the
  /// warm tier): an accepted refresh or a seeded block iteration. A
  /// seeded solve handed to a solver's internal dense fallback does not
  /// count; it reports the dense tier.
  bool warm_started = false;
  /// True when the warm tier's single certified Rayleigh–Ritz refresh
  /// was accepted (implies warm_started and iterations == 1).
  bool refresh = false;
  /// Iterations (LOBPCG) or restart cycles (Lanczos) the solve spent;
  /// 0 for the dense tier.
  int iterations = 0;
  /// Largest residual norm ‖Ax − θx‖ over the returned pairs before the
  /// certified clamp — the certificate width: every reported value is at
  /// least θ − this. 0 for the dense tier and trivial components.
  double max_residual = 0.0;
  /// The solver choice's reason string; `warm(pred=<fp>)` on warm hits.
  std::string solver_reason;
  /// Fingerprint the warm basis was solved for: its adopted
  /// Eigenbasis::predecessor, or this component's own fingerprint for a
  /// basis it retained itself (0 when cold).
  std::uint64_t warm_predecessor = 0;
  /// Content fingerprint of the component, stamped by run_plan whenever
  /// one was available (precomputed or computed for the lookup); 0 with
  /// fingerprinted == false otherwise (trivial or unplanned components).
  std::uint64_t fingerprint = 0;
  bool fingerprinted = false;
  /// Certified smallest eigenvalues of the component's Laplacian block,
  /// ascending; may be shorter than requested on non-convergence.
  std::vector<double> values;
  bool converged = true;
  /// True when the run's deadline skipped this solve entirely: `values`
  /// is then h_c zeros — a complete pointwise lower bound on the true
  /// spectrum (each Laplacian block is PSD), which keeps the merge sound
  /// without engaging the truncation cutoff.
  bool skipped = false;
  double seconds = 0.0;
};

/// A retained component eigenbasis: the converged Ritz vectors of a past
/// solve, kept in the artifact store's memory-only eigenbasis tier keyed
/// by (component fingerprint, Laplacian kind) so a patched successor can
/// warm-start from them. Rows are addressed by the session-stable
/// external vertex ids recorded at retention time — an edge-only patch
/// reuses the basis as-is, a vertex add/remove patch remaps surviving
/// rows and random-fills new ones.
struct Eigenbasis {
  /// Ritz vectors, one column of length n per retained eigenpair.
  std::vector<std::vector<double>> vectors;
  /// External id per row, ascending; empty means rows are positional
  /// (reusable only by a successor with the identical vertex count).
  std::vector<VertexId> row_ids;
  /// The pre-patch fingerprint when a stream patch re-keyed this basis to
  /// its successor (ArtifactStore::adopt_eigenbasis, the one record of
  /// the warm predecessor link); 0 for a basis retained under its own
  /// fingerprint, whose warm hits then name that fingerprint.
  std::uint64_t predecessor = 0;
  /// Iterations the producing solve spent (its cold cost — what a warm
  /// successor saves against).
  int source_iterations = 0;
  [[nodiscard]] std::size_t bytes() const {
    std::size_t total = sizeof(Eigenbasis) + row_ids.size() * sizeof(VertexId);
    for (const std::vector<double>& col : vectors)
      total += col.size() * sizeof(double) + sizeof(col);
    return total;
  }
};

/// The merged result of one pipeline run.
struct PipelineResult {
  /// Smallest h eigenvalues of the whole graph's Laplacian, ascending.
  std::vector<double> values;
  /// False when any contributing component solve did not converge.
  bool converged = true;
  /// True when the run was certified-truncated — a deadline
  /// (options.deadline_seconds) or injected fault skipped or weakened
  /// component solves, and the merge was cut to what the completed ones
  /// certify. The values are still a valid lower-bound spectrum prefix.
  bool degraded = false;
  /// Component solves skipped outright by the deadline.
  std::int64_t skipped_components = 0;
  /// Weak components the graph decomposed into (1 when decomposition is
  /// disabled).
  int components = 1;
  /// Eigensolver runs actually performed (excludes trivial components and
  /// cache hits) — the count BENCH_solver.json and the ArtifactCache
  /// stats report.
  std::int64_t eigensolves = 0;
  /// Component solves served by an injected cache.
  std::int64_t component_cache_hits = 0;
  /// Component subgraphs actually built. On the fingerprint-first path
  /// this equals the resolver misses that reached a solver — the
  /// "extractions == dirty components" invariant of the stream bench.
  std::int64_t subgraph_extractions = 0;
  /// Component fingerprints computed by this run (entries that arrived
  /// pre-fingerprinted, e.g. from a stream session, cost zero).
  std::int64_t fingerprint_computes = 0;
  /// Solves seeded from a retained predecessor eigenbasis.
  std::int64_t warm_hits = 0;
  /// Σ max(0, producing solve's iterations − warm solve's iterations)
  /// across warm hits — the iteration count the warm starts avoided.
  std::int64_t warm_iterations_saved = 0;
  /// Where the wall time went — the stream bench's per-phase breakdown.
  struct Phases {
    double fingerprint_seconds = 0.0;
    double extract_seconds = 0.0;
    double solve_seconds = 0.0;
    double merge_seconds = 0.0;
  };
  Phases phases;
  /// Per-component detail, in component order.
  std::vector<ComponentSolve> per_component;
  double seconds = 0.0;
};

/// One component of a precomputed decomposition, described without its
/// vertex data: shape up front, content fingerprint either precomputed or
/// computable on demand, and the subgraph itself built only when a
/// fingerprint-first resolver cannot answer. This is what lets a
/// ArtifactStore hit cost one map lookup and zero allocations.
struct PlannedComponent {
  std::int64_t vertices = 0;
  std::int64_t edges = 0;
  /// Content fingerprint (engine/fingerprint.hpp scheme); consulted only
  /// when `fingerprinted` is true.
  std::uint64_t fingerprint = 0;
  bool fingerprinted = false;
  /// Computes the fingerprint on demand (null when unavailable — the
  /// resolver is then skipped for this component). Each call is counted
  /// in PipelineResult::fingerprint_computes.
  std::function<std::uint64_t()> fingerprint_fn;
  /// Builds the induced subgraph; called only when the solve cannot be
  /// resolved by fingerprint. Each call is counted in
  /// PipelineResult::subgraph_extractions.
  std::function<Digraph()> materialize;
  /// When non-null, the component IS this graph (single-component plans:
  /// a connected graph, or decomposition disabled) — solved in place,
  /// never copied.
  const Digraph* in_place = nullptr;
  /// External id per local vertex, ascending — lets a retained eigenbasis
  /// remap rows across vertex add/remove patches. Empty when unavailable
  /// (warm reuse then requires an identical vertex count). A warm basis
  /// is looked up under `fingerprint`; it carries its own predecessor
  /// (Eigenbasis::predecessor).
  std::vector<VertexId> external_ids;
};

/// A full decomposition handed to SpectralPipeline::run_plan. Invariant:
/// the components partition one graph (their vertex counts sum to its
/// order), in the deterministic smallest-original-vertex order of
/// weakly_connected_components.
struct ComponentPlan {
  std::vector<PlannedComponent> components;
};

/// Solves one graph as a single block on the tier la::choose_solver picks
/// for options.solver and returns certified smallest eigenvalues. The
/// pipeline's default component solver, exposed for cache layers that
/// wrap it.
ComponentSolve solve_component_spectrum(const Digraph& component,
                                        LaplacianKind kind, int h,
                                        const SpectralOptions& options);

class SpectralPipeline {
 public:
  /// Hook signature for replacing the per-component solve (an
  /// instrumented or caching wrapper). Receives the component subgraph
  /// and the clamped per-component h. Runs only after the resolver (if
  /// any) missed — i.e. on components that must materialize.
  using ComponentSolver = std::function<ComponentSolve(
      const Digraph&, LaplacianKind, int, const SpectralOptions&)>;

  /// Fingerprint-first resolver: the cached solve for
  /// (fingerprint, kind, h, options), or nullopt. Never sees vertex data
  /// — (n, nnz) describe the component's shape so a resolver can reason
  /// about tiers without the graph.
  using ComponentResolver = std::function<std::optional<ComponentSolve>(
      std::uint64_t fingerprint, std::int64_t n, std::int64_t nnz,
      LaplacianKind kind, int h, const SpectralOptions&)>;

  /// Publishes a freshly computed solve under its fingerprint so the next
  /// run resolves it without materializing.
  using ComponentPublisher =
      std::function<void(std::uint64_t fingerprint, LaplacianKind kind,
                         int requested, const SpectralOptions&,
                         const ComponentSolve&)>;

  /// Eigenbasis hooks (the warm-start layer). The resolver returns the
  /// retained basis of (fingerprint, kind) or nullopt; the publisher
  /// retains a freshly converged basis. Consulted only when
  /// options().retain_basis is set.
  using BasisResolver = std::function<std::optional<Eigenbasis>(
      std::uint64_t fingerprint, LaplacianKind kind)>;
  using BasisPublisher = std::function<void(
      std::uint64_t fingerprint, LaplacianKind kind, Eigenbasis basis)>;

  explicit SpectralPipeline(SpectralOptions options = {});

  /// Replaces the default solve_component_spectrum with a caching or
  /// instrumented wrapper.
  void set_component_solver(ComponentSolver solver);

  /// Installs the fingerprint-first hooks (the engine's
  /// ArtifactStore). With a resolver installed, run_plan
  /// consults it before ever touching a component's vertex data;
  /// components it resolves are neither materialized nor solved.
  void set_component_resolver(ComponentResolver resolver,
                              ComponentPublisher publisher = nullptr);

  /// Installs the eigenbasis retention/warm-start hooks (the artifact
  /// store's memory-only eigenbasis tier).
  void set_basis_hooks(BasisResolver resolver, BasisPublisher publisher);

  [[nodiscard]] const SpectralOptions& options() const noexcept {
    return options_;
  }

  /// Computes the smallest h eigenvalues of g's Laplacian by per-component
  /// decomposition (per options().decompose). h is clamped to the vertex
  /// count. Decomposes and extracts eagerly — callers that already know
  /// the decomposition (and fingerprints) use run_plan instead.
  [[nodiscard]] PipelineResult run(const Digraph& g, LaplacianKind kind,
                                   int h) const;

  /// Lookup-then-extract: for each planned component, resolve by
  /// fingerprint first and materialize the subgraph only on a miss. The
  /// merged result is identical to run() on the assembled graph (the
  /// decomposition is exact); the difference is pure overhead — resolved
  /// components cost one lookup and zero allocations.
  [[nodiscard]] PipelineResult run_plan(const ComponentPlan& plan,
                                        LaplacianKind kind, int h) const;

 private:
  ComponentSolve solve_planned(const PlannedComponent& entry,
                               LaplacianKind kind, int h,
                               PipelineResult& result) const;

  SpectralOptions options_;
  ComponentSolver solver_;
  /// True after set_component_solver: a custom solver cannot accept warm
  /// seeds or emit a basis, so the warm-start layer steps aside.
  bool custom_solver_ = false;
  ComponentResolver resolver_;
  ComponentPublisher publisher_;
  BasisResolver basis_resolver_;
  BasisPublisher basis_publisher_;
};

}  // namespace graphio
