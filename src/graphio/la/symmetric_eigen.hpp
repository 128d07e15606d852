// Dense symmetric eigensolver: Householder tridiagonalization followed by
// implicit-shift QL. O(n³); used directly for graphs below the sparse
// threshold and for the projected matrices inside Lanczos.
#pragma once

#include <vector>

#include "graphio/la/dense_matrix.hpp"

namespace graphio::la {

/// All eigenvalues of the symmetric matrix `a`, ascending.
/// Throws contract_error if `a` is not square or visibly non-symmetric.
std::vector<double> symmetric_eigenvalues(DenseMatrix a);

struct SymmetricEigen {
  std::vector<double> values;  ///< ascending
  DenseMatrix vectors;         ///< column j is the eigenvector of values[j]
};

/// Full eigen decomposition A = V diag(values) Vᵀ.
SymmetricEigen symmetric_eigen(DenseMatrix a);

/// The h smallest eigenvalues of `a` (h ≤ its order), ascending — the
/// dense tier of every solver. With `vectors` non-null it also receives
/// their eigenvectors, one column per value; the values are bitwise the
/// same either way (SymmetricEigen.ValuesOnlyPathMatchesVectorPath).
std::vector<double> smallest_eigenpairs(
    DenseMatrix a, int h, std::vector<std::vector<double>>* vectors = nullptr);

}  // namespace graphio::la
