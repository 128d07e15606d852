// SpectralPipeline — decompose-and-conquer evaluation of Laplacian
// spectra, the hot path behind every Theorem 4/5/6 bound.
//
// The Laplacian of a graph is block-diagonal over its weakly connected
// components (graph/components.hpp), so its spectrum is the multiset
// union of the components' spectra (Spectrum::merge) — the same
// decomposition Section 5 exploits analytically (Lemmas 8–11) applied to
// the numerical path. Every spectrum goes through two pieces:
//
//   1. solve_component_spectrum solves one component on the tier
//      la::choose_solver picks for it — a disjoint union too big for the
//      dense solver usually splits into components that are not, turning
//      one O(n³) monolithic solve into c solves of O((n/c)³). It returns
//      certified lower estimates (multiplicity certificate, dense
//      rescue), cold or warm from a retained eigenbasis (WarmStart);
//   2. SpectrumMerge pools the per-component solves and returns the
//      smallest h values of the union — exactly what a monolithic solve
//      would have produced, because the decomposition is exact. It also
//      owns the deadline skip, the `solver.converge` fault seam and the
//      certified-cutoff truncation of partial solves. Edgeless components
//      never reach a solver: their spectrum is identically zero.
//
// SpectralPipeline::run drives both over an eager decomposition, for the
// spectral_bound* free functions. The engine's ArtifactCache drives them
// over its cached decomposition instead, resolving each component from
// the content-addressed ArtifactStore by fingerprint before extracting
// it (engine/artifact_cache.hpp), so only store misses extract and solve.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "graphio/core/spectral_bound.hpp"
#include "graphio/core/spectrum.hpp"
#include "graphio/graph/digraph.hpp"
#include "graphio/graph/laplacian.hpp"
#include "graphio/la/solver_policy.hpp"
#include "graphio/support/timer.hpp"

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
  /// Content fingerprint of the component, stamped by the engine's
  /// ArtifactCache, which keys the store by it; 0 with fingerprinted ==
  /// false otherwise (trivial components, store-less runs).
  std::uint64_t fingerprint = 0;
  bool fingerprinted = false;
  /// Certified smallest eigenvalues of the component's Laplacian block,
  /// ascending; may be shorter than requested on non-convergence.
  std::vector<double> values;
  bool converged = true;
  /// True when the evaluation's deadline skipped this solve entirely:
  /// `values` is then h_c zeros — a complete pointwise lower bound on the
  /// true spectrum (each Laplacian block is PSD), which keeps the merge
  /// sound without engaging the truncation cutoff.
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

/// The merged result of one pipeline run — also the one record of a
/// merged spectrum that the engine's ArtifactCache keeps per Laplacian
/// kind.
struct PipelineResult {
  /// Smallest h eigenvalues of the whole graph's Laplacian, ascending.
  /// Shorter than `requested` when a solve did not converge.
  std::vector<double> values;
  /// The h the merge was asked for, clamped to the vertex count.
  int requested = 0;
  /// False when any contributing component solve did not converge.
  bool converged = true;
  /// True when the run was certified-truncated — a deadline or injected
  /// fault skipped or weakened component solves, and the merge was cut
  /// to what the completed ones
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
  /// Component solves served by the artifact store.
  std::int64_t component_cache_hits = 0;
  /// Wall time of the solves that ran, and of the final merge.
  double solve_seconds = 0.0;
  double merge_seconds = 0.0;
  /// Per-component detail, in component order.
  std::vector<ComponentSolve> per_component;
  double seconds = 0.0;
};

/// The warm tier of one component solve — on a stream session's graph
/// with an eigenbasis budget, engaged only where la::choose_solver's warm
/// choice is an iterative tier.
struct WarmStart {
  /// The component's content fingerprint: the key its basis is retained
  /// under, and the predecessor a warm hit names when `basis` was
  /// retained under it (Eigenbasis::predecessor == 0).
  std::uint64_t fingerprint = 0;
  /// The basis found under `fingerprint`, or null: the solve then runs
  /// cold and only retains.
  const Eigenbasis* basis = nullptr;
  /// External id per local vertex, ascending — remaps `basis` rows across
  /// vertex add/remove patches and keys the retained basis's rows. Empty
  /// when unavailable (reuse then requires an identical vertex count).
  std::span<const VertexId> external_ids;
  /// Out: the converged eigenvectors to retain under `fingerprint`; empty
  /// when the solve did not converge.
  std::optional<Eigenbasis> retained;
  /// Out: iterations a warm hit saved against basis->source_iterations.
  int iterations_saved = 0;
};

/// Solves one graph as a single block on the tier la::choose_solver picks
/// for options.solver and returns certified smallest eigenvalues, under a
/// "solve" trace span. With `warm`, seeds from warm->basis (one certified
/// Rayleigh–Ritz refresh first, then seeded LOBPCG) and fills
/// warm->retained.
ComponentSolve solve_component_spectrum(const Digraph& component,
                                        LaplacianKind kind, int h,
                                        const SpectralOptions& options,
                                        WarmStart* warm = nullptr);

/// The certified merge of per-component solves, added in component order,
/// into the smallest h values of their union.
class SpectrumMerge {
 public:
  /// Merges `components` components toward the h smallest values of a
  /// graph of `vertices` vertices (h is clamped to it) within `deadline`,
  /// the budget of the whole evaluation, started by its owner.
  SpectrumMerge(int components, std::int64_t vertices, int h,
                Deadline deadline = {});

  /// The clamped h; 0 means there is nothing to merge.
  [[nodiscard]] int h() const noexcept { return h_; }
  /// A component's share of the request: min(h, vertices).
  [[nodiscard]] int request(std::int64_t vertices) const noexcept;

  /// Adds a component that needs no solve and returns true, or returns
  /// false. Edgeless components contribute zeros (their spectrum). Once
  /// the deadline has expired, every component is skipped and
  /// claims request() zeros — a complete pointwise lower bound on its
  /// spectrum (each Laplacian block is PSD), so the merge stays sound
  /// without engaging the truncation cutoff.
  bool add_unsolved(std::int64_t vertices, std::int64_t edges);

  /// Adds one component's solve, fresh or served from a cache. A solve
  /// that ran first passes the `solver.converge` fault seam, which can
  /// force it to report non-convergence; returns false when it did — a
  /// tripped solve must not be shared through any cache.
  bool add(ComponentSolve solve);

  /// The merged result. Values above the smallest last value of a
  /// non-converged solve are cut: each solver locks eigenvalues in
  /// ascending order, so only those below that cutoff are certified.
  [[nodiscard]] PipelineResult finish();

 private:
  WallTimer timer_;
  int h_ = 0;
  Deadline deadline_;
  double certified_cutoff_ = std::numeric_limits<double>::infinity();
  std::vector<double> pooled_;
  PipelineResult result_;
};

/// The store-less pipeline behind the spectral_bound* free functions:
/// decomposes eagerly and solves every component with edges cold.
class SpectralPipeline {
 public:
  explicit SpectralPipeline(SpectralOptions options = {});

  /// Computes the smallest h eigenvalues of g's Laplacian by per-component
  /// decomposition (per options.decompose). h is clamped to the vertex
  /// count. A connected graph (or decomposition disabled) is solved in
  /// place, never copied.
  [[nodiscard]] PipelineResult run(const Digraph& g, LaplacianKind kind,
                                   int h) const;

 private:
  SpectralOptions options_;
};

}  // namespace graphio
