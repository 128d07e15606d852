// Eigensolver tier selection, the la-level half of the decompose-and-
// conquer spectral pipeline (core/spectral_pipeline.hpp).
//
// The library has three routes to the smallest h eigenvalues of a sparse
// symmetric PSD matrix: the dense Householder+QL solver (cubic, exact),
// block thick-restart Lanczos (the default sparse path), and block LOBPCG
// (smaller working set, better at tiny h on very sparse operators; see
// bench/ablation_solver). choose_solver is the one place the choice is
// made, as a pure function of the policy and the problem shape (n, nnz,
// h), so the spectral pipeline can pick a different tier per connected
// component — the whole point of decomposing: a graph too big for the
// dense solver often splits into components that are not.
//
// A policy is a std::optional<SolverKind>: empty is "auto" (shape-based
// selection, the default), a kind forces that tier ("dense", "lanczos",
// "lobpcg") for every problem.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace graphio::la {

/// The three eigensolver tiers.
enum class SolverKind {
  kDense,    ///< Householder + implicit-shift QL (la/symmetric_eigen.hpp)
  kLanczos,  ///< block thick-restart Lanczos (la/lanczos.hpp)
  kLobpcg,   ///< block LOBPCG (la/lobpcg.hpp)
};

std::string_view to_string(SolverKind kind);

/// The accepted policy names, in order — the CLI's --solver usage line
/// and the "known:" list of parse_solver_policy's error.
inline constexpr std::string_view kSolverPolicyNames =
    "auto|dense|lanczos|lobpcg";

/// "auto" → empty, a tier name → that tier. Throws contract_error
/// "unknown solver policy '<name>' (known: auto|dense|lanczos|lobpcg)" —
/// the one "bad --solver" message of the CLI and the serve job parser.
std::optional<SolverKind> parse_solver_policy(std::string_view name);

/// Inverse of parse_solver_policy: "auto" for the empty policy.
std::string_view solver_policy_name(std::optional<SolverKind> policy);

/// "auto" picks the cubic dense solver at or below this dimension
/// (the evidence is in bench/ablation_solver).
inline constexpr std::int64_t kDenseMaxN = 2048;
/// An "auto" iterative solve that fails to converge is redone densely at
/// or below this dimension rather than returning a partial spectrum.
inline constexpr std::int64_t kDenseRescueMaxN = 4096;
/// The warm tier's refresh gate: a Rayleigh–Ritz pass over a retained
/// basis is accepted when every pair's residual is at or below this
/// fraction of the component Laplacian's Gershgorin scale
/// (core/spectral_pipeline.cpp). Soundness never depends on it — the
/// accepted values are certified θ − ‖r‖ — it only trades bound
/// tightness on a patched component for latency.
inline constexpr double kWarmRefreshRelTol = 1e-2;

/// Shape of one eigenproblem: the operator's dimension, its nonzero
/// count, and how many of the smallest eigenvalues are wanted.
struct SolverProblem {
  std::int64_t n = 0;
  std::int64_t nnz = 0;
  int h = 0;
  /// True when a predecessor eigenbasis is resident for this component —
  /// the warm tier: a block iteration seeded with the old basis converges
  /// in a handful of iterations. It beats every cold tier above
  /// kDenseMaxN, but below it only while h is small against n; "auto"
  /// takes it only there (choose_solver).
  bool warm = false;
};

/// The chosen tier, with a human-readable reason for reports and the
/// artifact store.
struct SolverChoice {
  SolverKind kind = SolverKind::kDense;
  std::string reason;
};

/// Picks the tier for one problem. Pure: equal inputs yield equal
/// choices, so cached spectra stay valid under replay. A forced policy
/// ignores the shape ("forced by policy"); "auto" takes the warm tier
/// (LOBPCG) when a basis is resident and either n > kDenseMaxN or n > 3h
/// (where a refresh undercuts a cold dense solve), dense up to
/// kDenseMaxN, LOBPCG for large, very sparse, tiny-h problems, and
/// Lanczos otherwise. A caller asks whether a retained basis would ever
/// be read by asking for the warm choice: a dense answer means no.
SolverChoice choose_solver(std::optional<SolverKind> policy,
                           const SolverProblem& problem);

}  // namespace graphio::la
