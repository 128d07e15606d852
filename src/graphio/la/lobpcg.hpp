// LOBPCG (locally optimal block preconditioned conjugate gradient) for the
// smallest eigenvalues of a large sparse symmetric PSD matrix — the second
// sparse backend next to block Lanczos (la/lanczos.hpp).
//
// Unpreconditioned block LOBPCG with hard locking: each iteration performs
// a Rayleigh–Ritz extraction on the 3-block subspace span[X, R, P]
// (current iterates, residuals, conjugate directions), which is the
// locally optimal update for the block Rayleigh quotient. Converged Ritz
// pairs are locked in *ascending-prefix order only* — same soundness rule
// as Lanczos: Ritz values over-estimate true eigenvalues (Cauchy
// interlacing), so the I/O bound must never consume a value whose smaller
// neighbours are unconverged — and every locked pair carries an explicit
// residual ‖Az − θz‖ so callers can use the certified lower estimate
// θ − ‖r‖.
//
// Compared with Lanczos: no restart machinery and a much smaller working
// set (3 blocks instead of a growing Krylov basis), but one dense 3b×3b
// eigenproblem per iteration; on clustered spectra Lanczos's Chebyshev
// filter usually wins. bench/ablation_solver measures the trade.
#pragma once

#include <cstdint>
#include <vector>

#include "graphio/la/csr_matrix.hpp"

namespace graphio::la {

struct LobpcgOptions {
  /// Block width (0 = auto: want + max(4, want/4), capped by n).
  int block_size = 0;
  /// Iteration cap before giving up.
  int max_iterations = 600;
  /// Residual tolerance relative to the Gershgorin bound of A.
  double rel_tol = 1e-9;
  /// PRNG seed for the start block and replacement directions.
  std::uint64_t seed = 0x10BCD6ULL;
  /// n at or below which the problem is handed to the dense solver.
  int dense_fallback = 320;
  /// Optional warm-start block — the warm tier's one seeded solver
  /// (core/spectral_pipeline.cpp): columns of length n that seed X in place
  /// of the random start (surplus columns are dropped, missing ones are
  /// random-filled, wrong-length columns are ignored). Warm starts change
  /// only the iteration count — convergence criteria, explicit-residual
  /// locking, and the ascending-prefix rule are untouched.
  std::vector<std::vector<double>> warm_start;
  /// Retain the locked Ritz vectors in LobpcgResult::vectors.
  bool return_vectors = false;
};

struct LobpcgResult {
  std::vector<double> values;     ///< locked eigenvalues, ascending
  std::vector<double> residuals;  ///< explicit ‖Az − θz‖ per locked pair
  /// Locked Ritz vectors, same order as `values` (only when
  /// LobpcgOptions::return_vectors; empty otherwise).
  std::vector<std::vector<double>> vectors;
  bool converged = false;         ///< all `want` values locked
  int iterations = 0;
  std::int64_t matvecs = 0;
};

/// Computes the `want` smallest eigenvalues (with multiplicity) of the
/// symmetric matrix A. `want` is clamped to A.size().
LobpcgResult lobpcg_smallest(const CsrMatrix& a, int want,
                             const LobpcgOptions& opts = {});

}  // namespace graphio::la
