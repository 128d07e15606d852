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
  // Warm tier first: a resident predecessor basis makes the block
  // iteration converge in O(1) iterations, so it wins even below the
  // cold dense threshold (the caller decorates the reason with the
  // predecessor fingerprint).
  if (problem.warm) return {SolverKind::kLobpcg, "warm"};
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
