// Householder reduction of a dense symmetric matrix to tridiagonal form
// (EISPACK tred2 lineage), with optional accumulation of the orthogonal
// transform for eigenvector computation.
//
// Layout: the row-major lower triangle is read and written one row at a
// time. The symmetric product p = A·u is a dot product per row followed
// by column contributions added as axpys in increasing row order, and Q
// is formed as g = uᵀQ by axpys over rows, then a row-by-row rank-1
// update. Every sum keeps tred2's operands and order, so T and Q are
// bit-identical to the textbook column-walking tred2
// (tests/dense_reference.hpp holds that reference); no spectrum stored
// by an earlier build changes. This holds while the compiler contracts no
// multiply-add into an FMA; baseline x86-64 has no FMA instruction.
#pragma once

#include "graphio/la/dense_matrix.hpp"
#include "graphio/la/tridiagonal.hpp"

namespace graphio::la {

/// Reduces the symmetric matrix `a` to tridiagonal T = Qᵀ A Q in place.
///
/// Only the lower triangle of `a` is read. When `accumulate` is true, on
/// return `a` holds Q (so eigenvectors of A are Q · eigenvectors of T);
/// otherwise the contents of `a` are unspecified scratch.
SymTridiag householder_tridiagonalize(DenseMatrix& a, bool accumulate);

}  // namespace graphio::la
