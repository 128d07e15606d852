#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "graphio/la/solver_policy.hpp"
#include "graphio/support/contracts.hpp"

namespace graphio::la {
namespace {

constexpr SolverProblem kNiche{4096, 2 * 4096, 8};  // the LOBPCG niche

TEST(SolverPolicy, ParsesEveryDocumentedName) {
  EXPECT_EQ(kSolverPolicyNames, "auto|dense|lanczos|lobpcg");
  EXPECT_EQ(parse_solver_policy("auto"), std::nullopt);
  EXPECT_EQ(parse_solver_policy("dense"), SolverKind::kDense);
  EXPECT_EQ(parse_solver_policy("lanczos"), SolverKind::kLanczos);
  EXPECT_EQ(parse_solver_policy("lobpcg"), SolverKind::kLobpcg);
  for (const char* name : {"auto", "dense", "lanczos", "lobpcg"})
    EXPECT_EQ(solver_policy_name(parse_solver_policy(name)), name);
}

TEST(SolverPolicy, UnknownNameListsKnownPolicies) {
  try {
    (void)parse_solver_policy("qr");
    FAIL() << "expected contract_error";
  } catch (const contract_error& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "unknown solver policy 'qr' (known: "
                  "auto|dense|lanczos|lobpcg)"),
              std::string::npos)
        << e.what();
  }
}

TEST(SolverPolicy, AutoPicksDenseAtOrBelowThreshold) {
  EXPECT_EQ(kDenseMaxN, 2048);
  EXPECT_EQ(choose_solver(std::nullopt, {2048, 4 * 2048, 100}).kind,
            SolverKind::kDense);
  EXPECT_EQ(choose_solver(std::nullopt, {1, 1, 1}).kind, SolverKind::kDense);
  EXPECT_EQ(choose_solver(std::nullopt, {2049, 4 * 2048, 100}).kind,
            SolverKind::kLanczos);
}

TEST(SolverPolicy, AutoPicksLobpcgOnlyInItsNiche) {
  // Large, very sparse (nnz/n = 2 <= 3), tiny h (<= 8): the LOBPCG niche.
  EXPECT_EQ(choose_solver(std::nullopt, kNiche).kind, SolverKind::kLobpcg);
  // Each violated condition falls back to Lanczos.
  SolverProblem too_many_values = kNiche;
  too_many_values.h = 9;
  EXPECT_EQ(choose_solver(std::nullopt, too_many_values).kind,
            SolverKind::kLanczos);
  SolverProblem too_dense = kNiche;
  too_dense.nnz = 6 * kNiche.n;
  EXPECT_EQ(choose_solver(std::nullopt, too_dense).kind,
            SolverKind::kLanczos);
  SolverProblem too_small = kNiche;
  too_small.n = 4095;
  too_small.nnz = 2 * too_small.n;
  EXPECT_EQ(choose_solver(std::nullopt, too_small).kind,
            SolverKind::kLanczos);
}

TEST(SolverPolicy, ForcedPoliciesIgnoreShape) {
  const SolverProblem tiny{4, 8, 2};
  EXPECT_EQ(choose_solver(SolverKind::kLanczos, tiny).kind,
            SolverKind::kLanczos);
  EXPECT_EQ(choose_solver(SolverKind::kLobpcg, tiny).kind,
            SolverKind::kLobpcg);
  EXPECT_EQ(choose_solver(SolverKind::kDense, {1 << 20, 1 << 22, 100}).kind,
            SolverKind::kDense);
  EXPECT_EQ(choose_solver(SolverKind::kLanczos, {4, 8, 2, /*warm=*/true}).kind,
            SolverKind::kLanczos);
}

// "auto" takes the warm tier only where it undercuts a cold solve: above
// the dense threshold at any h, below it only while n > 3h (a
// Rayleigh–Ritz refresh over h columns loses to a values-only dense
// solve once h exceeds about n/3).
TEST(SolverPolicy, AutoTakesWarmTierOnlyWhereItPays) {
  const auto warm = [](std::int64_t n, int h) {
    return choose_solver(std::nullopt, {n, 3 * n, h, /*warm=*/true}).kind;
  };
  EXPECT_EQ(warm(301, 100), SolverKind::kLobpcg);
  EXPECT_EQ(warm(300, 100), SolverKind::kDense);  // n = 3h: on the line
  EXPECT_EQ(warm(450, 32), SolverKind::kLobpcg);
  EXPECT_EQ(warm(200, 64), SolverKind::kLobpcg);
  EXPECT_EQ(warm(200, 67), SolverKind::kDense);
  EXPECT_EQ(warm(200, 100), SolverKind::kDense);
  EXPECT_EQ(warm(64, 16), SolverKind::kLobpcg);
  EXPECT_EQ(warm(64, 32), SolverKind::kDense);
  EXPECT_EQ(warm(2048, 683), SolverKind::kDense);
  // Above kDenseMaxN the only cold tiers are iterative: warm at any h.
  EXPECT_EQ(warm(2049, 100), SolverKind::kLobpcg);
  EXPECT_EQ(warm(2049, 2049), SolverKind::kLobpcg);
  EXPECT_EQ(warm(5000, 4000), SolverKind::kLobpcg);
  // The same shapes without a resident basis keep their cold tiers.
  EXPECT_EQ(choose_solver(std::nullopt, {450, 1350, 32}).kind,
            SolverKind::kDense);
  EXPECT_EQ(choose_solver(std::nullopt, {5000, 15000, 4000}).kind,
            SolverKind::kLanczos);
  // A forced dense policy never takes the warm tier; forced iterative
  // tiers always read a resident basis.
  EXPECT_EQ(choose_solver(SolverKind::kDense, {450, 1350, 32, true}).kind,
            SolverKind::kDense);
  EXPECT_EQ(choose_solver(SolverKind::kLobpcg, {200, 600, 100, true}).kind,
            SolverKind::kLobpcg);
}

// The reasons are persisted in artifacts.jsonl ("reason") and shown by
// --explain, so their bytes are pinned.
TEST(SolverPolicy, ChoicesCarryReasons) {
  EXPECT_EQ(choose_solver(std::nullopt, {10, 20, 4}).reason,
            "n=10 <= dense_n=2048");
  EXPECT_EQ(choose_solver(std::nullopt, kNiche).reason,
            "h=8 and nnz/n=2.000000 fit the LOBPCG niche");
  EXPECT_EQ(choose_solver(std::nullopt, {5000, 20000, 100}).reason,
            "n=5000 above dense threshold");
  EXPECT_EQ(choose_solver(std::nullopt, {301, 903, 100, /*warm=*/true}).reason,
            "warm");
  // A declined warm tier answers with the cold choice's reason, byte for
  // byte what a fresh solve of the component records.
  EXPECT_EQ(choose_solver(std::nullopt, {200, 600, 100, /*warm=*/true}).reason,
            "n=200 <= dense_n=2048");
  EXPECT_EQ(choose_solver(std::nullopt, {10, 20, 4, /*warm=*/true}).reason,
            "n=10 <= dense_n=2048");
  for (const SolverKind kind :
       {SolverKind::kDense, SolverKind::kLanczos, SolverKind::kLobpcg})
    EXPECT_EQ(choose_solver(kind, {10, 20, 4}).reason, "forced by policy");
}

}  // namespace
}  // namespace graphio::la
