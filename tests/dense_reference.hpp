// Bitwise reference for the dense eigensolver: the textbook EISPACK
// tred2 reduction that walks columns of the lower triangle, and tql2 that
// rotates columns of a row-major Z, exactly as graphio shipped them before
// the row-wise kernels. The production kernels must reproduce every bit of
// T, Q, the eigenvalues and the eigenvectors these produce, which is what
// keeps stored spectra valid without an artifact key version bump.
#pragma once

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "graphio/la/dense_matrix.hpp"
#include "graphio/la/symmetric_eigen.hpp"
#include "graphio/la/tridiagonal.hpp"
#include "graphio/support/contracts.hpp"

namespace graphio::la::reference {

inline double sign_with(double magnitude, double sign_source) {
  return sign_source >= 0.0 ? std::fabs(magnitude) : -std::fabs(magnitude);
}

inline SymTridiag householder_tridiagonalize(DenseMatrix& a, bool accumulate) {
  GIO_EXPECTS(a.rows() == a.cols());
  const std::size_t n = a.rows();
  std::vector<double> d(n, 0.0);
  std::vector<double> e(n, 0.0);  // e[i] couples rows i-1 and i
  if (n == 0) return {};

  for (std::size_t i = n - 1; i >= 1; --i) {
    const std::size_t l = i - 1;
    double h = 0.0;
    double scale = 0.0;
    if (l > 0) {
      for (std::size_t k = 0; k <= l; ++k) scale += std::fabs(a(i, k));
      if (scale == 0.0) {
        e[i] = a(i, l);
      } else {
        for (std::size_t k = 0; k <= l; ++k) {
          a(i, k) /= scale;
          h += a(i, k) * a(i, k);
        }
        double f = a(i, l);
        const double g = f >= 0.0 ? -std::sqrt(h) : std::sqrt(h);
        e[i] = scale * g;
        h -= f * g;
        a(i, l) = f - g;
        f = 0.0;
        for (std::size_t j = 0; j <= l; ++j) {
          if (accumulate) a(j, i) = a(i, j) / h;
          double gg = 0.0;
          for (std::size_t k = 0; k <= j; ++k) gg += a(j, k) * a(i, k);
          for (std::size_t k = j + 1; k <= l; ++k) gg += a(k, j) * a(i, k);
          e[j] = gg / h;
          f += e[j] * a(i, j);
        }
        const double hh = f / (h + h);
        for (std::size_t j = 0; j <= l; ++j) {
          f = a(i, j);
          const double gg = e[j] - hh * f;
          e[j] = gg;
          for (std::size_t k = 0; k <= j; ++k)
            a(j, k) -= f * e[k] + gg * a(i, k);
        }
      }
    } else {
      e[i] = a(i, l);
    }
    d[i] = h;
  }

  if (accumulate) {
    d[0] = 0.0;
    e[0] = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (d[i] != 0.0) {
        for (std::size_t j = 0; j < i; ++j) {
          double g = 0.0;
          for (std::size_t k = 0; k < i; ++k) g += a(i, k) * a(k, j);
          for (std::size_t k = 0; k < i; ++k) a(k, j) -= g * a(k, i);
        }
      }
      d[i] = a(i, i);
      a(i, i) = 1.0;
      for (std::size_t j = 0; j < i; ++j) {
        a(j, i) = 0.0;
        a(i, j) = 0.0;
      }
    }
  } else {
    e[0] = 0.0;
    for (std::size_t i = 0; i < n; ++i) d[i] = a(i, i);
  }

  SymTridiag t;
  t.diag = std::move(d);
  t.off.assign(e.begin() + 1, e.end());
  return t;
}

inline void ql_implicit_shift(std::vector<double>& d, std::vector<double>& e,
                       DenseMatrix* z) {
  const std::size_t n = d.size();
  if (n == 0) return;
  GIO_EXPECTS(e.size() + 1 >= n);
  if (z != nullptr) GIO_EXPECTS(z->cols() == n);

  // Shift the off-diagonal so that e[i] couples rows i-1 and i (classic
  // tql2 layout), with e[n-1] used as scratch.
  std::vector<double> sub(n, 0.0);
  for (std::size_t i = 1; i < n; ++i) sub[i - 1] = e[i - 1];
  sub[n - 1] = 0.0;

  constexpr double eps = 2.22044604925031308e-16;
  for (std::size_t l = 0; l < n; ++l) {
    int iterations = 0;
    std::size_t m;
    do {
      for (m = l; m + 1 < n; ++m) {
        const double dd = std::fabs(d[m]) + std::fabs(d[m + 1]);
        if (std::fabs(sub[m]) <= eps * dd) break;
      }
      if (m != l) {
        if (++iterations > 64)
          throw std::runtime_error(
              "ql_implicit_shift: QL iteration failed to converge");
        double g = (d[l + 1] - d[l]) / (2.0 * sub[l]);
        double r = std::hypot(g, 1.0);
        g = d[m] - d[l] + sub[l] / (g + sign_with(r, g));
        double s = 1.0;
        double c = 1.0;
        double p = 0.0;
        bool underflow_restart = false;
        for (std::size_t i1 = m; i1-- > l;) {
          const std::size_t i = i1;
          double f = s * sub[i];
          const double b = c * sub[i];
          r = std::hypot(f, g);
          sub[i + 1] = r;
          if (r == 0.0) {
            d[i + 1] -= p;
            sub[m] = 0.0;
            underflow_restart = true;
            break;
          }
          s = f / r;
          c = g / r;
          g = d[i + 1] - p;
          r = (d[i] - g) * s + 2.0 * c * b;
          p = s * r;
          d[i + 1] = g + p;
          g = c * r - b;
          if (z != nullptr) {
            for (std::size_t k = 0; k < z->rows(); ++k) {
              f = (*z)(k, i + 1);
              (*z)(k, i + 1) = s * (*z)(k, i) + c * f;
              (*z)(k, i) = c * (*z)(k, i) - s * f;
            }
          }
        }
        if (underflow_restart) continue;
        d[l] -= p;
        sub[l] = g;
        sub[m] = 0.0;
      }
    } while (m != l);
  }

  e.assign(sub.begin(), sub.end() - 1);
}

inline std::vector<double> symmetric_eigenvalues(DenseMatrix a) {
  SymTridiag t = reference::householder_tridiagonalize(a, /*accumulate=*/false);
  reference::ql_implicit_shift(t.diag, t.off, nullptr);
  std::sort(t.diag.begin(), t.diag.end());
  return std::move(t.diag);
}

inline SymmetricEigen symmetric_eigen(DenseMatrix a) {
  const std::size_t n = a.rows();
  SymTridiag t = reference::householder_tridiagonalize(a, /*accumulate=*/true);
  // `a` now holds the accumulated Q; QL rotates it into the eigenvectors.
  reference::ql_implicit_shift(t.diag, t.off, &a);

  // Sort pairs ascending.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
    return t.diag[x] < t.diag[y];
  });

  SymmetricEigen out;
  out.values.resize(n);
  out.vectors = DenseMatrix(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    out.values[j] = t.diag[order[j]];
    for (std::size_t i = 0; i < n; ++i) out.vectors(i, j) = a(i, order[j]);
  }
  return out;
}

}  // namespace graphio::la::reference
