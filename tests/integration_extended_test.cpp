// Sandwich and cross-engine sweeps over the extended (beyond-the-paper)
// workload families: stencils, prefix scan, bitonic sorting networks,
// triangular solve, Cholesky. These are the low-expansion kernels where
// the spectral bound is weakest (§5.3 connectivity caveat) — exactly
// where soundness bugs would hide, since the bound must stay below tight
// schedules rather than comfortably below loose ones.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "graphio/core/hierarchy.hpp"
#include "graphio/core/spectral_bound.hpp"
#include "graphio/flow/convex_mincut.hpp"
#include "graphio/graph/builders.hpp"
#include "graphio/graph/topo.hpp"
#include "graphio/graph/transforms.hpp"
#include "graphio/sim/anneal.hpp"
#include "graphio/sim/memsim.hpp"
#include "graphio/sim/parallel_memsim.hpp"

namespace graphio {
namespace {

enum class Kernel {
  kStencil1d,
  kStencil2d,
  kScan,
  kBitonic,
  kTrisolve,
  kCholesky,
};

std::string kernel_name(Kernel k) {
  switch (k) {
    case Kernel::kStencil1d: return "stencil1d";
    case Kernel::kStencil2d: return "stencil2d";
    case Kernel::kScan: return "scan";
    case Kernel::kBitonic: return "bitonic";
    case Kernel::kTrisolve: return "trisolve";
    case Kernel::kCholesky: return "cholesky";
  }
  return "?";
}

Digraph build(Kernel k, int size) {
  switch (k) {
    case Kernel::kStencil1d: return builders::stencil1d(6 * size, 2 * size);
    case Kernel::kStencil2d: return builders::stencil2d(3 * size, 3 * size, size);
    case Kernel::kScan: return builders::prefix_scan(size + 2);
    case Kernel::kBitonic: return builders::bitonic_sort(size + 1);
    case Kernel::kTrisolve: return builders::triangular_solve(4 * size);
    case Kernel::kCholesky: return builders::cholesky(3 * size);
  }
  return Digraph();
}

using Case = std::tuple<Kernel, int, std::int64_t>;  // kernel, size, M

class ExtendedSandwich : public ::testing::TestWithParam<Case> {};

TEST_P(ExtendedSandwich, AllLowerBoundsBelowTightSchedules) {
  const auto [kernel, size, memory] = GetParam();
  const Digraph g = build(kernel, size);
  ASSERT_TRUE(is_dag(g));
  if (g.max_in_degree() > memory) GTEST_SKIP() << "infeasible M";

  // The tightest cheap upper bound we have: anneal from the best
  // heuristic schedule.
  sim::AnnealOptions anneal;
  anneal.iterations = g.num_vertices() > 1500 ? 150 : 600;
  anneal.seed = static_cast<std::uint64_t>(size) * 31 +
                static_cast<std::uint64_t>(memory);
  const std::int64_t upper = sim::anneal_schedule(g, memory, anneal).io;

  const double m = static_cast<double>(memory);
  const double thm4 = spectral_bound(g, m).bound;
  const double thm5 = spectral_bound_plain(g, m).bound;
  const double mincut = flow::convex_mincut_bound(g, m).bound;

  EXPECT_LE(thm4, static_cast<double>(upper) + 1e-6)
      << kernel_name(kernel) << " size=" << size << " M=" << memory;
  EXPECT_LE(thm5, thm4 + 1e-9);
  EXPECT_LE(mincut, static_cast<double>(upper) + 1e-6);
}

TEST_P(ExtendedSandwich, ParallelBoundBelowPartitionedExecutions) {
  const auto [kernel, size, memory] = GetParam();
  const Digraph g = build(kernel, size);
  if (g.max_in_degree() > memory) GTEST_SKIP() << "infeasible M";
  for (std::int64_t p : {2, 4}) {
    const double lower =
        parallel_spectral_bound(g, static_cast<double>(memory), p).bound;
    const auto upper = sim::best_parallel_schedule_io(g, memory, p);
    EXPECT_LE(lower, static_cast<double>(upper.max_total()) + 1e-6)
        << kernel_name(kernel) << " p=" << p;
  }
}

TEST_P(ExtendedSandwich, ReversalKeepsTheoremFiveInvariant) {
  // The adjoint computation has the same undirected skeleton; Theorem 5's
  // eigenvalue sum is identical, only the degree normalization differs
  // (max out-degree becomes max in-degree).
  const auto [kernel, size, memory] = GetParam();
  const Digraph g = build(kernel, size);
  const Digraph r = reverse(g);
  const double m = static_cast<double>(memory);
  const double fwd = spectral_bound_plain(g, m).bound;
  const double bwd = spectral_bound_plain(r, m).bound;
  const double degree_ratio =
      static_cast<double>(g.max_out_degree()) /
      static_cast<double>(std::max<std::int64_t>(r.max_out_degree(), 1));
  // fwd/bwd can differ only through the degree factor.
  if (fwd > 0.0 && bwd > 0.0 && std::abs(degree_ratio - 1.0) < 1e-12) {
    EXPECT_NEAR(fwd, bwd, 1e-6 * std::max(1.0, fwd));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, ExtendedSandwich,
    ::testing::Combine(
        ::testing::Values(Kernel::kStencil1d, Kernel::kStencil2d,
                          Kernel::kScan, Kernel::kBitonic, Kernel::kTrisolve,
                          Kernel::kCholesky),
        ::testing::Values(2, 3), ::testing::Values<std::int64_t>(5, 12)),
    [](const ::testing::TestParamInfo<Case>& param_info) {
      return kernel_name(std::get<0>(param_info.param)) + "_s" +
             std::to_string(std::get<1>(param_info.param)) + "_m" +
             std::to_string(std::get<2>(param_info.param));
    });

TEST(ExtendedIntegration, HierarchyProfileAgreesWithSandwich) {
  // Each hierarchy level must itself respect the two-level sandwich.
  const Digraph g = builders::cholesky(8);
  const std::vector<double> capacities{4.0, 8.0, 16.0};
  const HierarchyProfile profile = hierarchy_profile(g, capacities);
  for (const LevelTraffic& level : profile.levels) {
    if (g.max_in_degree() > static_cast<std::int64_t>(level.capacity))
      continue;
    const auto upper = sim::best_schedule_io(
        g, static_cast<std::int64_t>(level.capacity));
    EXPECT_LE(level.traffic_bound, static_cast<double>(upper.total()) + 1e-6)
        << "capacity " << level.capacity;
  }
}

}  // namespace
}  // namespace graphio
