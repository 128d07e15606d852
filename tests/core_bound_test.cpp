#include <gtest/gtest.h>

#include <cmath>

#include "graphio/core/spectral_bound.hpp"
#include "graphio/graph/builders.hpp"
#include "graphio/support/contracts.hpp"

namespace graphio {
namespace {

TEST(BoundFromSpectrum, HandComputedExample) {
  // λ = {0, 1, 2}, n = 10, M = 1:
  //   k=1: 10·0 − 2 = −2;  k=2: 5·1 − 4 = 1;  k=3: 3·3 − 6 = 3.
  const std::vector<double> lambda{0.0, 1.0, 2.0};
  const BoundOverK b = bound_from_spectrum(lambda, 10, 1.0);
  EXPECT_DOUBLE_EQ(b.bound, 3.0);
  EXPECT_EQ(b.best_k, 3);
}

TEST(BoundFromSpectrum, ClampsAtZero) {
  const std::vector<double> lambda{0.0, 0.1};
  const BoundOverK b = bound_from_spectrum(lambda, 4, 100.0);
  EXPECT_DOUBLE_EQ(b.bound, 0.0);
  EXPECT_EQ(b.best_k, 0);
}

TEST(BoundFromSpectrum, FloorsSegmentCount) {
  // n = 7, k = 2 → ⌊7/2⌋ = 3 segments of the smaller size.
  const std::vector<double> lambda{0.0, 2.0};
  const BoundOverK b = bound_from_spectrum(lambda, 7, 0.0);
  EXPECT_DOUBLE_EQ(b.bound, 3.0 * 2.0);
}

TEST(BoundFromSpectrum, ProcessorsShrinkSegments) {
  const std::vector<double> lambda{0.0, 1.0, 2.0};
  const BoundOverK serial = bound_from_spectrum(lambda, 64, 1.0, 1);
  const BoundOverK parallel4 = bound_from_spectrum(lambda, 64, 1.0, 4);
  EXPECT_GT(serial.bound, parallel4.bound);
}

TEST(BoundFromSpectrum, ScaleActsLinearlyOnEigenvalueTerm) {
  const std::vector<double> lambda{0.0, 4.0};
  const BoundOverK full = bound_from_spectrum(lambda, 8, 0.0, 1, 1.0);
  const BoundOverK half = bound_from_spectrum(lambda, 8, 0.0, 1, 0.5);
  EXPECT_DOUBLE_EQ(half.bound, full.bound / 2.0);
}

TEST(BoundFromSpectrum, RejectsUnsortedInput) {
  const std::vector<double> lambda{1.0, 0.0};
  EXPECT_THROW(bound_from_spectrum(lambda, 4, 1.0), contract_error);
}

TEST(BoundFromSpectrum, NegativeNoiseIsClampedConservatively) {
  // Tiny negative eigenvalues (numerical noise on PSD matrices) must not
  // reduce partial sums below their true non-negative values.
  const std::vector<double> noisy{-1e-13, 1.0};
  const std::vector<double> clean{0.0, 1.0};
  const BoundOverK a = bound_from_spectrum(noisy, 10, 0.0);
  const BoundOverK b = bound_from_spectrum(clean, 10, 0.0);
  EXPECT_DOUBLE_EQ(a.bound, b.bound);
}

TEST(SpectralBound, MonotoneNonIncreasingInMemory) {
  const Digraph g = builders::fft(6);
  double previous = spectral_bound(g, 2).bound;
  for (double m : {4.0, 8.0, 16.0, 64.0}) {
    const double current = spectral_bound(g, m).bound;
    EXPECT_LE(current, previous) << "M=" << m;
    previous = current;
  }
}

TEST(SpectralBound, PlainTheorem5NeverExceedsTheorem4) {
  // L̃ ⪰ L/dout_max in the PSD order, so eigenvalue-wise sums dominate.
  for (const Digraph& g :
       {builders::fft(5), builders::bhk_hypercube(6),
        builders::naive_matmul(4), builders::strassen_matmul(4)}) {
    for (double m : {2.0, 8.0}) {
      EXPECT_LE(spectral_bound_plain(g, m).bound,
                spectral_bound(g, m).bound + 1e-9);
    }
  }
}

TEST(SpectralBound, DenseAndLanczosBackendsAgree) {
  const Digraph g = builders::fft(6);  // 448 vertices
  SpectralOptions dense;
  dense.solver = la::SolverKind::kDense;
  SpectralOptions sparse;
  sparse.solver = la::SolverKind::kLanczos;
  const SpectralBound a = spectral_bound(g, 4, dense);
  const SpectralBound b = spectral_bound(g, 4, sparse);
  ASSERT_TRUE(b.eigensolver_converged);
  EXPECT_NEAR(a.bound, b.bound, 1e-5 * std::max(1.0, a.bound));
  EXPECT_EQ(a.best_k, b.best_k);
}

TEST(SpectralBound, ReportsEigenvaluesAscending) {
  const SpectralBound b = spectral_bound(builders::bhk_hypercube(6), 4);
  ASSERT_FALSE(b.eigenvalues.empty());
  EXPECT_NEAR(b.eigenvalues.front(), 0.0, 1e-9);
  for (std::size_t i = 1; i < b.eigenvalues.size(); ++i)
    EXPECT_LE(b.eigenvalues[i - 1], b.eigenvalues[i] + 1e-12);
}

TEST(SpectralBound, HonorsMaxEigenvalues) {
  SpectralOptions opts;
  opts.max_eigenvalues = 7;
  const SpectralBound b = spectral_bound(builders::fft(5), 4, opts);
  EXPECT_EQ(b.eigenvalues.size(), 7u);
  EXPECT_LE(b.best_k, 7);
}

TEST(SpectralBound, EdgelessAndTinyGraphs) {
  const Digraph isolated(5);
  EXPECT_DOUBLE_EQ(spectral_bound(isolated, 2).bound, 0.0);
  EXPECT_DOUBLE_EQ(spectral_bound_plain(isolated, 2).bound, 0.0);
  Digraph single(1);
  EXPECT_DOUBLE_EQ(spectral_bound(single, 1).bound, 0.0);
}

TEST(SpectralBound, RejectsNegativeMemory) {
  EXPECT_THROW(spectral_bound(builders::path(4), -1.0), contract_error);
}

TEST(SpectralBound, PositiveForConnectedGraphsWithTinyMemory) {
  // Section 5.1: the hypercube bound is positive while M ≤ 2^l/(l+1)².
  const Digraph g = builders::bhk_hypercube(8);  // threshold ≈ 3.16
  EXPECT_GT(spectral_bound(g, 2).bound, 0.0);
}

TEST(SpectralBoundsMulti, MatchesPerMemoryCallsOnDensePath) {
  const Digraph g = builders::fft(5);
  const std::vector<double> memories{4.0, 8.0, 16.0};
  const std::vector<SpectralBound> multi = spectral_bounds(g, memories);
  ASSERT_EQ(multi.size(), memories.size());
  for (std::size_t i = 0; i < memories.size(); ++i) {
    const SpectralBound single = spectral_bound(g, memories[i]);
    EXPECT_DOUBLE_EQ(multi[i].bound, single.bound);
    EXPECT_EQ(multi[i].best_k, single.best_k);
    EXPECT_EQ(multi[i].eigenvalues, multi[0].eigenvalues)
        << "all entries share one spectrum";
  }
}

TEST(SpectralBoundsMulti, SoundOnSparsePathForEveryMemory) {
  // Lanczos adaptivity must grow h until *every* memory size's best k is
  // interior; the multi result can only match or beat the single-call
  // bound (both are valid lower bounds from the same spectrum family).
  SpectralOptions options;
  options.solver = la::SolverKind::kLanczos;
  const Digraph g = builders::bhk_hypercube(9);
  const std::vector<double> memories{2.0, 16.0, 64.0};
  const std::vector<SpectralBound> multi =
      spectral_bounds(g, memories, options);
  for (std::size_t i = 0; i < memories.size(); ++i) {
    const SpectralBound single = spectral_bound(g, memories[i], options);
    EXPECT_NEAR(multi[i].bound, single.bound,
                1e-6 * std::max(1.0, single.bound));
  }
}

TEST(SpectralBoundsMulti, PlainVariantMatchesTheorem5) {
  const Digraph g = builders::naive_matmul(4);
  const std::vector<double> memories{8.0, 32.0};
  const std::vector<SpectralBound> multi = spectral_bounds_plain(g, memories);
  for (std::size_t i = 0; i < memories.size(); ++i)
    EXPECT_DOUBLE_EQ(multi[i].bound,
                     spectral_bound_plain(g, memories[i]).bound);
}

TEST(SpectralBoundsMulti, EmptyMemoryListAndEdgelessGraph) {
  const Digraph g = builders::path(6);
  EXPECT_TRUE(spectral_bounds(g, {}).empty());
  const Digraph isolated(4);
  const std::vector<double> memories{1.0, 2.0};
  for (const SpectralBound& b : spectral_bounds_plain(isolated, memories))
    EXPECT_DOUBLE_EQ(b.bound, 0.0);
}

TEST(SpectralBoundsMulti, MemoriesNeedNotBeSorted) {
  const Digraph g = builders::fft(4);
  const std::vector<double> memories{16.0, 4.0, 8.0};
  const std::vector<SpectralBound> multi = spectral_bounds(g, memories);
  EXPECT_GE(multi[1].bound, multi[2].bound);  // M=4 bound ≥ M=8 bound
  EXPECT_GE(multi[2].bound, multi[0].bound);  // M=8 bound ≥ M=16 bound
}

}  // namespace
}  // namespace graphio
