#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "graphio/core/analytic_spectra.hpp"
#include "graphio/core/spectrum.hpp"
#include "graphio/graph/builders.hpp"
#include "graphio/graph/laplacian.hpp"
#include "graphio/la/dense_matrix.hpp"
#include "graphio/la/symmetric_eigen.hpp"
#include "graphio/support/contracts.hpp"
#include "graphio/support/prng.hpp"

namespace graphio::la {
namespace {

DenseMatrix random_symmetric(std::size_t n, std::uint64_t seed) {
  Prng rng(seed);
  DenseMatrix a(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j <= i; ++j) {
      const double v = rng.uniform(-1.0, 1.0);
      a(i, j) = v;
      a(j, i) = v;
    }
  return a;
}

TEST(DenseMatrix, IdentityAndAccess) {
  DenseMatrix eye = DenseMatrix::identity(3);
  EXPECT_EQ(eye.rows(), 3u);
  EXPECT_EQ(eye(0, 0), 1.0);
  EXPECT_EQ(eye(0, 1), 0.0);
  eye(0, 1) = 5.0;
  EXPECT_EQ(eye(0, 1), 5.0);
  EXPECT_GT(eye.symmetry_error(), 0.0);
}

TEST(DenseMatrix, MatvecMatchesManualComputation) {
  DenseMatrix a(2, 3);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(0, 2) = 3;
  a(1, 0) = 4;
  a(1, 1) = 5;
  a(1, 2) = 6;
  std::vector<double> x{1.0, -1.0, 2.0};
  std::vector<double> y(2);
  a.matvec(x, y);
  EXPECT_DOUBLE_EQ(y[0], 1 - 2 + 6);
  EXPECT_DOUBLE_EQ(y[1], 4 - 5 + 12);
}

TEST(DenseMatrix, MultiplyAndTranspose) {
  DenseMatrix a(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 3;
  a(1, 1) = 4;
  const DenseMatrix at = a.transposed();
  EXPECT_EQ(at(0, 1), 3);
  const DenseMatrix prod = a.multiply(at);
  EXPECT_DOUBLE_EQ(prod(0, 0), 5);
  EXPECT_DOUBLE_EQ(prod(0, 1), 11);
  EXPECT_DOUBLE_EQ(prod(1, 1), 25);
  EXPECT_NEAR(prod.symmetry_error(), 0.0, 1e-15);
}

TEST(SymmetricEigen, DiagonalMatrix) {
  DenseMatrix a(3, 3);
  a(0, 0) = 3.0;
  a(1, 1) = -1.0;
  a(2, 2) = 2.0;
  const auto values = symmetric_eigenvalues(a);
  ASSERT_EQ(values.size(), 3u);
  EXPECT_NEAR(values[0], -1.0, 1e-12);
  EXPECT_NEAR(values[1], 2.0, 1e-12);
  EXPECT_NEAR(values[2], 3.0, 1e-12);
}

TEST(SymmetricEigen, TwoByTwoClosedForm) {
  DenseMatrix a(2, 2);
  a(0, 0) = 2.0;
  a(0, 1) = 1.0;
  a(1, 0) = 1.0;
  a(1, 1) = 2.0;
  const auto values = symmetric_eigenvalues(a);
  EXPECT_NEAR(values[0], 1.0, 1e-12);
  EXPECT_NEAR(values[1], 3.0, 1e-12);
}

TEST(SymmetricEigen, RejectsNonSymmetric) {
  DenseMatrix a(2, 2);
  a(0, 1) = 1.0;  // a(1,0) stays 0
  EXPECT_THROW(symmetric_eigenvalues(a), contract_error);
}

TEST(SymmetricEigen, RejectsNonSquare) {
  DenseMatrix a(2, 3);
  EXPECT_THROW(symmetric_eigenvalues(a), contract_error);
}

TEST(SymmetricEigen, TraceAndFrobeniusInvariants) {
  const DenseMatrix a = random_symmetric(40, 99);
  const auto values = symmetric_eigenvalues(a);
  double trace = 0.0;
  double frob = 0.0;
  for (std::size_t i = 0; i < 40; ++i) {
    trace += a(i, i);
    for (std::size_t j = 0; j < 40; ++j) frob += a(i, j) * a(i, j);
  }
  double vsum = 0.0;
  double vsq = 0.0;
  for (double v : values) {
    vsum += v;
    vsq += v * v;
  }
  EXPECT_NEAR(vsum, trace, 1e-9);
  EXPECT_NEAR(vsq, frob, 1e-8);
}

TEST(SymmetricEigen, EigenpairsSatisfyResidualAndOrthogonality) {
  const DenseMatrix a = random_symmetric(30, 7);
  const SymmetricEigen eig = symmetric_eigen(a);
  ASSERT_EQ(eig.values.size(), 30u);

  // Residuals ‖A v − λ v‖.
  std::vector<double> av(30);
  for (std::size_t j = 0; j < 30; ++j) {
    std::vector<double> v(30);
    for (std::size_t i = 0; i < 30; ++i) v[i] = eig.vectors(i, j);
    a.matvec(v, av);
    double res = 0.0;
    for (std::size_t i = 0; i < 30; ++i) {
      const double r = av[i] - eig.values[j] * v[i];
      res += r * r;
    }
    EXPECT_LT(std::sqrt(res), 1e-9) << "eigenpair " << j;
  }

  // VᵀV = I.
  const DenseMatrix vtv = eig.vectors.transposed().multiply(eig.vectors);
  EXPECT_LT(vtv.max_abs_diff(DenseMatrix::identity(30)), 1e-10);
}

TEST(SymmetricEigen, ValuesAreAscending) {
  const auto values = symmetric_eigenvalues(random_symmetric(25, 5));
  for (std::size_t i = 1; i < values.size(); ++i)
    EXPECT_LE(values[i - 1], values[i]);
}

// Exact, not approximate: incremental stream runs take the vectors path
// and scratch runs the values path (spectral_pipeline.cpp,
// dense_smallest_with_vectors), and the stream gates require their bounds
// to agree with max_abs_diff == 0.
TEST(SymmetricEigen, ValuesOnlyPathMatchesVectorPath) {
  std::vector<DenseMatrix> matrices;
  for (std::size_t n : {1, 2, 5, 35, 64, 101})
    matrices.push_back(random_symmetric(n, 21 + n));
  for (LaplacianKind kind :
       {LaplacianKind::kPlain, LaplacianKind::kOutDegreeNormalized}) {
    matrices.push_back(dense_laplacian(builders::fft(4), kind));
    matrices.push_back(dense_laplacian(builders::bhk_hypercube(5), kind));
    matrices.push_back(dense_laplacian(
        builders::erdos_renyi_dag(150, 0.05, 7), kind));
  }
  for (const DenseMatrix& a : matrices) {
    const auto values = symmetric_eigenvalues(a);
    const SymmetricEigen full = symmetric_eigen(a);
    ASSERT_EQ(values.size(), full.values.size());
    for (std::size_t i = 0; i < values.size(); ++i)
      EXPECT_EQ(values[i], full.values[i]) << "n=" << a.rows() << " i=" << i;
  }
}

// --- validation against known graph spectra ------------------------------

TEST(SymmetricEigen, CompleteGraphSpectrum) {
  const auto g = builders::complete_dag(12);
  const auto values =
      symmetric_eigenvalues(dense_laplacian(g, LaplacianKind::kPlain));
  const auto expected = analytic::complete_spectrum(12).smallest();
  for (std::size_t i = 0; i < values.size(); ++i)
    EXPECT_NEAR(values[i], expected[i], 1e-9);
}

TEST(SymmetricEigen, StarGraphSpectrum) {
  const auto g = builders::star(9);
  const auto values =
      symmetric_eigenvalues(dense_laplacian(g, LaplacianKind::kPlain));
  const auto expected = analytic::star_spectrum(9).smallest();
  for (std::size_t i = 0; i < values.size(); ++i)
    EXPECT_NEAR(values[i], expected[i], 1e-9);
}

TEST(SymmetricEigen, PathGraphSpectrum) {
  const auto g = builders::path(17);
  const auto values =
      symmetric_eigenvalues(dense_laplacian(g, LaplacianKind::kPlain));
  const auto expected = analytic::path_spectrum(17).smallest();
  for (std::size_t i = 0; i < values.size(); ++i)
    EXPECT_NEAR(values[i], expected[i], 1e-9);
}

TEST(SymmetricEigen, CycleGraphSpectrum) {
  const auto g = builders::cycle(16);
  const auto values =
      symmetric_eigenvalues(dense_laplacian(g, LaplacianKind::kPlain));
  const auto expected = analytic::cycle_spectrum(16).smallest();
  for (std::size_t i = 0; i < values.size(); ++i)
    EXPECT_NEAR(values[i], expected[i], 1e-9);
}

TEST(SymmetricEigen, HypercubeSpectrumWithMultiplicities) {
  const auto g = builders::bhk_hypercube(6);  // 64 vertices
  const auto values =
      symmetric_eigenvalues(dense_laplacian(g, LaplacianKind::kPlain));
  const auto expected = analytic::hypercube_spectrum(6).smallest();
  ASSERT_EQ(values.size(), expected.size());
  for (std::size_t i = 0; i < values.size(); ++i)
    EXPECT_NEAR(values[i], expected[i], 1e-8);
}

TEST(SymmetricEigen, HandlesOneByOneAndEmpty) {
  DenseMatrix a(1, 1);
  a(0, 0) = 4.0;
  const auto one = symmetric_eigenvalues(a);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_DOUBLE_EQ(one[0], 4.0);
  const auto none = symmetric_eigenvalues(DenseMatrix(0, 0));
  EXPECT_TRUE(none.empty());
}

}  // namespace
}  // namespace graphio::la
