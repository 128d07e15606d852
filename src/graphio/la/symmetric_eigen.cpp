#include "graphio/la/symmetric_eigen.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "graphio/la/householder.hpp"
#include "graphio/la/tridiagonal.hpp"
#include "graphio/support/contracts.hpp"

namespace graphio::la {

namespace {

void check_symmetric(const DenseMatrix& a) {
  GIO_EXPECTS_MSG(a.rows() == a.cols(), "matrix must be square");
  double scale = 0.0;
  for (double v : a.data()) scale = std::max(scale, std::fabs(v));
  GIO_EXPECTS_MSG(a.symmetry_error() <= 1e-10 * std::max(scale, 1.0),
                  "matrix must be symmetric");
}

}  // namespace

std::vector<double> symmetric_eigenvalues(DenseMatrix a) {
  check_symmetric(a);
  SymTridiag t = householder_tridiagonalize(a, /*accumulate=*/false);
  return tridiagonal_eigenvalues(std::move(t));
}

SymmetricEigen symmetric_eigen(DenseMatrix a) {
  check_symmetric(a);
  SymTridiag t = householder_tridiagonalize(a, /*accumulate=*/true);
  // `a` now holds the accumulated Q; transposed in place, QL rotates its
  // rows into the eigenvectors.
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < i; ++j) std::swap(a(i, j), a(j, i));
  TridiagEigen eig = tridiagonal_eigen(std::move(t), std::move(a));
  return {std::move(eig.values), std::move(eig.vectors)};
}

std::vector<double> smallest_eigenpairs(
    DenseMatrix a, int h, std::vector<std::vector<double>>* vectors) {
  const auto count = static_cast<std::size_t>(h);
  if (vectors == nullptr) {
    std::vector<double> values = symmetric_eigenvalues(std::move(a));
    values.resize(count);
    return values;
  }
  const SymmetricEigen eig = symmetric_eigen(std::move(a));
  const std::size_t n = eig.values.size();
  vectors->clear();
  vectors->reserve(count);
  for (std::size_t j = 0; j < count; ++j) {
    std::vector<double> col(n);
    for (std::size_t i = 0; i < n; ++i) col[i] = eig.vectors(i, j);
    vectors->push_back(std::move(col));
  }
  return {eig.values.begin(), eig.values.begin() + h};
}

}  // namespace graphio::la
