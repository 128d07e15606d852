// The paper's primary contribution: spectral I/O lower bounds.
//
//   Theorem 4:  J* ≥ max_k ⌊n/k⌋ · Σ_{i=1..k} λ_i(L̃) − 2kM
//   Theorem 5:  J* ≥ max_k ⌊n/k⌋/dout_max · Σ_{i=1..k} λ_i(L) − 2kM
//   Theorem 6:  J* ≥ max_k ⌊n/(kp)⌋ · Σ_{i=1..k} λ_i(L̃) − 2kM  (p procs)
//
// Any k yields a valid bound, so only the h = min(100, n) smallest
// eigenvalues are needed (Section 6.5: the optimal k stays far below 100;
// bench/ablation_k verifies). Every entry point below, like every Engine
// request, solves h = min(max_eigenvalues, n) once and maximizes over
// k ≤ h for each memory size. Each weak component's eigenvalues come from
// the tier la::choose_solver picks: the dense QL solver for small
// components, deflated block Lanczos or block LOBPCG for large ones, and
// the warm tier (a refresh or seeded LOBPCG from a retained basis) for
// patched components of a stream session.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <tuple>
#include <vector>

#include "graphio/graph/digraph.hpp"
#include "graphio/graph/laplacian.hpp"
#include "graphio/la/lanczos.hpp"
#include "graphio/la/solver_policy.hpp"

namespace graphio {

/// What a caller chooses about a spectral solve; the rest is constant
/// (kBoundRelTol, kBoundLanczos, la/solver_policy.hpp's thresholds).
struct SpectralOptions {
  /// h — how many of the smallest Laplacian eigenvalues to compute,
  /// capped at the vertex count.
  int max_eigenvalues = 100;
  /// Solver policy (la/solver_policy.hpp): empty is "auto", which picks a
  /// tier per connected component; a kind forces that tier everywhere.
  std::optional<la::SolverKind> solver;
  /// Decompose into weakly connected components and eigensolve each
  /// independently (core/spectral_pipeline.hpp). Exact — the union's
  /// spectrum is the multiset union of the components' — and cheaper
  /// whenever components are small enough to flip solver tiers. Disable
  /// to force one monolithic solve (the pre-pipeline behavior).
  bool decompose = true;
};

/// Residual tolerance of the iterative tiers, relative to the Gershgorin
/// bound. Loose on purpose: the bound consumes *certified lower estimates*
/// θ − ‖Az − θz‖, which stay sound at any tolerance, and convergence to
/// 1e-6 is often orders of magnitude faster than to eigensolver-grade
/// 1e-9 on the clustered spectra the evaluation graphs produce.
inline constexpr double kBoundRelTol = 1e-6;
/// The Lanczos tier's settings: la/lanczos.hpp's defaults at kBoundRelTol.
inline constexpr la::LanczosOptions kBoundLanczos{.rel_tol = kBoundRelTol};

struct SpectralBound {
  /// max(0, best over k) — the reported lower bound on J*.
  double bound = 0.0;
  /// The k attaining the maximum (0 when every k was non-positive).
  int best_k = 0;
  /// The smallest eigenvalues used (of L̃ for Theorems 4/6, L for 5).
  std::vector<double> eigenvalues;
  /// False when the sparse eigensolver returned fewer than h values; the
  /// bound is then still valid, just maximized over fewer k.
  bool eigensolver_converged = true;
  double seconds = 0.0;
};

/// Theorem 4 (out-degree-normalized Laplacian L̃).
SpectralBound spectral_bound(const Digraph& g, double memory,
                             const SpectralOptions& options = {});

/// Theorem 4 for several memory sizes at once. The spectrum does not
/// depend on M, so the (dominant) eigendecomposition is done once and the
/// cheap max-over-k is repeated per memory size — the natural shape for
/// the paper's figures, which sweep M ∈ {4, 8, 16} over one graph.
/// Returns one SpectralBound per entry of `memories`, all sharing the same
/// `eigenvalues`; `seconds` on entry i is the time attributable to that
/// entry (the decomposition is charged to the first).
std::vector<SpectralBound> spectral_bounds(const Digraph& g,
                                           std::span<const double> memories,
                                           const SpectralOptions& options = {});

/// Theorem 5 for several memory sizes from one decomposition of L.
std::vector<SpectralBound> spectral_bounds_plain(
    const Digraph& g, std::span<const double> memories,
    const SpectralOptions& options = {});

/// Theorem 5 (plain Laplacian L with the 1/max-out-degree factor) — the
/// variant used for closed-form analysis in Section 5.
SpectralBound spectral_bound_plain(const Digraph& g, double memory,
                                   const SpectralOptions& options = {});

/// Theorem 6: parallel bound for p processors (at least one processor
/// incurs this much I/O).
SpectralBound parallel_spectral_bound(const Digraph& g, double memory,
                                      std::int64_t processors,
                                      const SpectralOptions& options = {});

/// Shared primitive: max over k ≤ |lambda| of
///   scale · ⌊n/(k·p)⌋ · Σ_{i≤k} λ_i − 2kM, clamped at 0.
/// `lambda` must be ascending. Exposed for closed-form spectra (Section 5).
struct BoundOverK {
  double bound = 0.0;
  int best_k = 0;
};
BoundOverK bound_from_spectrum(std::span<const double> lambda, std::int64_t n,
                               double memory, std::int64_t processors = 1,
                               double scale = 1.0);

/// The h smallest Laplacian eigenvalues of the graph, ascending — the
/// per-component SpectralPipeline (core/spectral_pipeline.hpp) behind a
/// plain-vector interface. Returns less than h values only if a sparse
/// solve failed to converge (converged flag in `converged`).
std::vector<double> smallest_laplacian_eigenvalues(
    const Digraph& g, LaplacianKind kind, int h,
    const SpectralOptions& options = {}, bool* converged = nullptr);

/// The inputs that change what the eigensolver computes, in the order of
/// ArtifactStore::spectral_options_key — the one list behind both that key
/// and solver_options_equal. The tolerance, the Lanczos settings, the warm
/// refresh gate and the tier thresholds are constants, listed so that
/// changing one also changes every stored key (each former per-call option
/// keeps its slot).
inline auto solve_inputs(const SpectralOptions& o) {
  return std::tie(o.solver, o.decompose, kBoundRelTol,
                  la::kWarmRefreshRelTol, la::kDenseMaxN, la::kDenseRescueMaxN,
                  kBoundLanczos.block_size, kBoundLanczos.max_basis,
                  kBoundLanczos.stall_basis_cap, kBoundLanczos.max_cycles);
}

/// Equality of solve_inputs — the one shared definition of "same solve"
/// used by every spectrum cache (engine ArtifactCache, per-component
/// cache).
bool solver_options_equal(const SpectralOptions& a, const SpectralOptions& b);

}  // namespace graphio
