#include "graphio/la/solver_policy.hpp"

#include "graphio/support/contracts.hpp"

namespace graphio::la {

namespace {

/// The LOBPCG niche of "auto": only large (below this, Lanczos's
/// Chebyshev filter amortizes and usually wins outright) ...
constexpr std::int64_t kLobpcgMinN = 4096;
/// ... requests of at most this many eigenvalues (LOBPCG pays a dense
/// 3b×3b Rayleigh–Ritz per iteration, so its advantage is confined to
/// small blocks) ...
constexpr int kLobpcgMaxH = 8;
/// ... on very sparse operators (denser rows make the per-iteration
/// matvec block dominate).
constexpr double kLobpcgMaxDensity = 3.0;

/// The warm tier's crossover below kDenseMaxN: a Rayleigh–Ritz refresh
/// over a retained basis undercuts a cold values-only dense solve only
/// while n > kWarmMinNPerH · h. The refresh is a dense m×m eigenproblem
/// plus O(n·h²) Gram and rotation work, so its cost grows with h while
/// the dense solve's does not. One patch-and-solve on a one-component
/// stream session (bench/micro_la's BM_StreamPatchSolve with the warm
/// tier taken at every shape; one thread, Release), warm vs cold dense
/// values in ms: n=200 h=32 1.8 vs 4.6, n=200 h=64 3.9 vs 4.6, n=200
/// h=100 9.8 vs 4.3, n=300 h=100 11.8 vs 11.1, n=400 h=100 17.5 vs 22.3,
/// n=100 h=32 0.87 vs 0.91, n=96 h=32 0.99 vs 0.84, n=64 h=32 0.74 vs
/// 0.48. Across n = 64…1600 and h = 8…100 the line n = 3h separates the
/// wins from the losses, with at most ~20 % lost either way in the few
/// points near it.
constexpr std::int64_t kWarmMinNPerH = 3;

}  // namespace

std::string_view to_string(SolverKind kind) {
  switch (kind) {
    case SolverKind::kDense: return "dense";
    case SolverKind::kLanczos: return "lanczos";
    case SolverKind::kLobpcg: return "lobpcg";
  }
  return "?";
}

std::optional<SolverKind> parse_solver_policy(std::string_view name) {
  if (name == "auto") return std::nullopt;
  for (const SolverKind kind :
       {SolverKind::kDense, SolverKind::kLanczos, SolverKind::kLobpcg})
    if (to_string(kind) == name) return kind;
  GIO_EXPECTS_MSG(false, "unknown solver policy '" + std::string(name) +
                             "' (known: " + std::string(kSolverPolicyNames) +
                             ")");
  return std::nullopt;  // unreachable
}

std::string_view solver_policy_name(std::optional<SolverKind> policy) {
  return policy ? to_string(*policy) : "auto";
}

SolverChoice choose_solver(std::optional<SolverKind> policy,
                           const SolverProblem& problem) {
  if (policy) return {*policy, "forced by policy"};
  // Warm tier first where it pays: a resident predecessor basis makes the
  // block iteration converge in O(1) iterations, which beats every cold
  // tier above kDenseMaxN and beats the cold dense solve below it only
  // on tall-thin shapes (n > kWarmMinNPerH · h). Elsewhere a warm
  // problem answers exactly as a cold one would (the caller decorates a
  // warm reason with the predecessor fingerprint).
  if (problem.warm &&
      (problem.n > kDenseMaxN ||
       problem.n > kWarmMinNPerH * static_cast<std::int64_t>(problem.h)))
    return {SolverKind::kLobpcg, "warm"};
  if (problem.n <= kDenseMaxN)
    return {SolverKind::kDense, "n=" + std::to_string(problem.n) +
                                    " <= dense_n=" +
                                    std::to_string(kDenseMaxN)};
  const double density =
      problem.n > 0
          ? static_cast<double>(problem.nnz) / static_cast<double>(problem.n)
          : 0.0;
  if (problem.n >= kLobpcgMinN && problem.h <= kLobpcgMaxH &&
      density <= kLobpcgMaxDensity)
    return {SolverKind::kLobpcg, "h=" + std::to_string(problem.h) +
                                     " and nnz/n=" + std::to_string(density) +
                                     " fit the LOBPCG niche"};
  return {SolverKind::kLanczos,
          "n=" + std::to_string(problem.n) + " above dense threshold"};
}

}  // namespace graphio::la
