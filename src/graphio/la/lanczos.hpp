// Block thick-restart Lanczos for the smallest eigenvalues of a large
// sparse symmetric PSD matrix (the graph Laplacians of Section 4).
//
// Algorithm: maintain an orthonormal basis V (all columns orthogonal to
// every locked eigenvector), its image AV, and the exact projected matrix
// T = VᵀAV. Expand V block by block with two-pass full
// reorthogonalization; at the basis cap, solve the dense Rayleigh–Ritz
// problem on T, lock the ascending prefix of Ritz pairs whose *explicit*
// residual ‖Az − θz‖ passes the tolerance, then thick-restart: compact V
// to the remaining smallest Ritz vectors (T becomes diag(θ) exactly) and
// continue expanding from the saved residual block plus a fresh random
// block (the random injection re-discovers eigenvalue copies beyond the
// block size — hypercube Laplacians have multiplicities in the hundreds).
//
// Design notes (soundness of the I/O bound depends on these):
//
//  * Rayleigh–Ritz values from a subspace *over*-estimate the true smallest
//    eigenvalues (Cauchy interlacing), so a bound computed from unconverged
//    or *skipped* eigenvalues could exceed the true lower bound. We
//    therefore lock a Ritz pair only after an explicit residual check
//    ‖Az − θz‖ ≤ tol with a freshly assembled z and a fresh matvec, and we
//    lock strictly in ascending-prefix order: nothing above an unconverged
//    Ritz value is ever locked.
//
//  * T = VᵀAV is maintained exactly (every entry is a fresh dot product
//    with the stored AV column), so restart compaction and random refills
//    cannot corrupt the projected problem.
#pragma once

#include <cstdint>
#include <vector>

#include "graphio/la/csr_matrix.hpp"

namespace graphio::la {

/// Lanczos always starts from a random block and takes no warm seed:
/// seed columns on top of a full random block widen the first Krylov
/// block, so the capped basis reaches less depth, and a seeded solve
/// measured slower than a cold one. The warm tier seeds LOBPCG only
/// (LobpcgOptions::warm_start).
struct LanczosOptions {
  /// Krylov block width.
  int block_size = 8;
  /// Basis-column cap per restart cycle
  /// (0 = auto: max(want + 4·block, 6·block, 192)).
  int max_basis = 0;
  /// Hard ceiling on stall-driven basis widening. Each stalled cycle
  /// doubles the basis cap (wider Krylov spaces resolve clustered interior
  /// eigenvalues) but Rayleigh–Ritz is cubic in the basis width, so
  /// unbounded doubling would turn a stall into an effective hang.
  int stall_basis_cap = 1024;
  /// Restart-cycle cap before giving up.
  int max_cycles = 120;
  /// Residual tolerance relative to the Gershgorin bound of A.
  double rel_tol = 1e-9;
  /// Degree of the Chebyshev polynomial that amplifies the low end of the
  /// spectrum when generating new Krylov directions (< 2 disables the
  /// filter). Tightly clustered smallest eigenvalues (butterfly and path
  /// Laplacians) converge orders of magnitude faster with the filter; it
  /// never affects correctness because T and the locking certification are
  /// always computed with the unfiltered operator.
  int cheb_degree = 24;
  /// PRNG seed for start blocks and refills.
  std::uint64_t seed = 0x5EEDBA5EULL;
  /// n at or below which the problem is handed to the dense solver.
  int dense_fallback = 320;
  /// Retain the locked eigenvectors in LanczosResult::vectors.
  bool return_vectors = false;
};

struct LanczosResult {
  std::vector<double> values;  ///< locked eigenvalues, ascending
  /// Explicit residual ‖Az − θz‖ of each locked pair (same order as
  /// `values`). |θ − λ| ≤ residual for the matched true eigenvalue, so
  /// θ − residual is a *certified lower estimate* — what the I/O bound
  /// consumes when run at loose tolerance.
  std::vector<double> residuals;
  /// Locked eigenvectors, same order as `values` (only when
  /// LanczosOptions::return_vectors; empty otherwise).
  std::vector<std::vector<double>> vectors;
  bool converged = false;  ///< all `want` values locked
  int cycles = 0;          ///< restart cycles used
  std::int64_t matvecs = 0;    ///< sparse matvec count
  int max_basis_used = 0;      ///< widest basis across cycles
};

/// Computes the `want` smallest eigenvalues (with multiplicity) of the
/// symmetric matrix A. `want` is clamped to A.size().
LanczosResult smallest_eigenvalues(const CsrMatrix& a, int want,
                                   const LanczosOptions& opts = {});

}  // namespace graphio::la
