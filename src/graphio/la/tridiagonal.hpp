// Symmetric tridiagonal eigensolvers.
//
// The implicit-shift QL iteration (EISPACK tql1/tql2 lineage) is the
// workhorse of both the dense symmetric eigensolver (after Householder
// reduction) and the projected problems inside Lanczos. A closed form for
// tridiagonal Toeplitz matrices is also provided — it is exactly the P''
// path spectrum of the paper's Lemma 11.
//
// Layout: the eigenvector basis is kept transposed while QL runs, so each
// Givens rotation combines two contiguous rows of Zᵀ rather than two
// strided columns of Z. The rotation applies tql2's arithmetic to every
// element unchanged, so values and vectors are bit-identical to the
// column-rotating tql2 (tests/dense_reference.hpp holds that reference).
#pragma once

#include <vector>

#include "graphio/la/dense_matrix.hpp"

namespace graphio::la {

/// A symmetric tridiagonal matrix: diag has n entries, off has n−1
/// (off[i] couples rows i and i+1).
struct SymTridiag {
  std::vector<double> diag;
  std::vector<double> off;
};

/// Eigenvalues of T in ascending order. O(n²) worst case, no vectors.
std::vector<double> tridiagonal_eigenvalues(SymTridiag t);

struct TridiagEigen {
  std::vector<double> values;  ///< ascending
  DenseMatrix vectors;         ///< column j is the eigenvector of values[j]
};

/// Eigenvalues and orthonormal eigenvectors of T.
TridiagEigen tridiagonal_eigen(SymTridiag t);

/// Eigenpairs of T carried into the basis Q₀ given as its transpose: row k
/// of `basis_t` is column k of Q₀ (the accumulated Householder transform,
/// transposed once). Column j of the result is Q₀ times the j-th
/// eigenvector of T, i.e. an eigenvector of the original matrix.
TridiagEigen tridiagonal_eigen(SymTridiag t, DenseMatrix basis_t);

/// In-place implicit-shift QL on (d, e); if z is non-null (it must have n
/// rows) its rows are rotated alongside, so that on entry z = Q₀ᵀ
/// (accumulated Householder transform, transposed, or identity) yields on
/// exit row j = the eigenvector of d[j] of the original matrix.
/// e is laid out with e[i] coupling rows i and i+1; e must have size ≥ n−1.
/// The results are NOT sorted. Throws on non-convergence (> 64 sweeps).
void ql_implicit_shift(std::vector<double>& d, std::vector<double>& e,
                       DenseMatrix* z);

/// Closed-form eigenvalues (ascending) of the n×n tridiagonal Toeplitz
/// matrix with constant diagonal `a` and off-diagonal `b`:
/// λ_k = a + 2b·cos(kπ/(n+1)), k = 1..n.
std::vector<double> toeplitz_tridiagonal_eigenvalues(int n, double a, double b);

}  // namespace graphio::la
