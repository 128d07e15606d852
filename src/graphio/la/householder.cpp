#include "graphio/la/householder.hpp"

#include <cmath>

#include "graphio/support/contracts.hpp"

namespace graphio::la {

namespace {

/// tred2's p = A·u over rows 0..l of the lower triangle, reading rows
/// only. p[j] is the dot product Σ_{k≤j} a(j,k)·u[k], summed in k order,
/// followed by the terms a(k,j)·u[k] of the rows k = j+1..l below it, added
/// in increasing k: exactly tred2's sum for p[j], term by term. Rows go in
/// blocks of four, each row with its own accumulator, and each block's
/// column terms are added while the block is hot in cache.
void lower_symmetric_product(const double* a, std::size_t n, std::size_t l,
                             const double* u, double* p) {
  constexpr std::size_t kBlock = 4;
  std::size_t k = 0;
  for (; k + kBlock <= l + 1; k += kBlock) {
    const double* r[kBlock];
    double s[kBlock];
    for (std::size_t q = 0; q < kBlock; ++q) {
      r[q] = a + (k + q) * n;
      s[q] = 0.0;
    }
    for (std::size_t c = 0; c < k; ++c)
      for (std::size_t q = 0; q < kBlock; ++q) s[q] += r[q][c] * u[c];
    for (std::size_t q = 0; q < kBlock; ++q)
      for (std::size_t c = k; c <= k + q; ++c) s[q] += r[q][c] * u[c];
    // Column terms of the block's rows: into the rows above the block...
    for (std::size_t c = 0; c < k; ++c) {
      double pc = p[c];
      for (std::size_t q = 0; q < kBlock; ++q) pc += r[q][c] * u[k + q];
      p[c] = pc;
    }
    // ...and into the block's own rows, after their dot products.
    for (std::size_t q = 0; q < kBlock; ++q) p[k + q] = s[q];
    for (std::size_t q = 1; q < kBlock; ++q)
      for (std::size_t c = k; c < k + q; ++c) p[c] += r[q][c] * u[k + q];
  }
  for (; k <= l; ++k) {
    const double* r = a + k * n;
    double s = 0.0;
    for (std::size_t c = 0; c <= k; ++c) s += r[c] * u[c];
    for (std::size_t c = 0; c < k; ++c) p[c] += r[c] * u[k];
    p[k] = s;
  }
}

}  // namespace

SymTridiag householder_tridiagonalize(DenseMatrix& a, bool accumulate) {
  GIO_EXPECTS(a.rows() == a.cols());
  const std::size_t n = a.rows();
  std::vector<double> d(n, 0.0);
  std::vector<double> e(n, 0.0);  // e[i] couples rows i-1 and i
  if (n == 0) return {};
  double* const base = a.data().data();
  const auto row = [base, n](std::size_t i) { return base + i * n; };

  for (std::size_t i = n - 1; i >= 1; --i) {
    const std::size_t l = i - 1;
    double* const u = row(i);
    double h = 0.0;
    double scale = 0.0;
    if (l > 0) {
      for (std::size_t k = 0; k <= l; ++k) scale += std::fabs(u[k]);
      if (scale == 0.0) {
        e[i] = u[l];
      } else {
        for (std::size_t k = 0; k <= l; ++k) {
          u[k] /= scale;
          h += u[k] * u[k];
        }
        double f = u[l];
        const double g = f >= 0.0 ? -std::sqrt(h) : std::sqrt(h);
        e[i] = scale * g;
        h -= f * g;
        u[l] = f - g;
        if (accumulate)
          for (std::size_t j = 0; j <= l; ++j) row(j)[i] = u[j] / h;
        lower_symmetric_product(base, n, l, u, e.data());
        f = 0.0;
        for (std::size_t j = 0; j <= l; ++j) {
          e[j] /= h;
          f += e[j] * u[j];
        }
        const double hh = f / (h + h);
        for (std::size_t j = 0; j <= l; ++j) {
          f = u[j];
          const double gg = e[j] - hh * f;
          e[j] = gg;
          double* const r = row(j);
          for (std::size_t k = 0; k <= j; ++k) r[k] -= f * e[k] + gg * u[k];
        }
      }
    } else {
      e[i] = u[l];
    }
    d[i] = h;
  }

  if (accumulate) {
    // Q is formed in the leading i×i block one Householder vector at a
    // time: g = uᵀQ by axpys over rows (k ascending for every j), then the
    // rank-1 update Q −= (u/h)·g row by row. u is row i, u/h is column i.
    std::vector<double> g(n);
    d[0] = 0.0;
    e[0] = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      double* const ri = row(i);
      if (d[i] != 0.0) {
        for (std::size_t j = 0; j < i; ++j) g[j] = 0.0;
        for (std::size_t k = 0; k < i; ++k) {
          const double* const rk = row(k);
          const double uk = ri[k];
          for (std::size_t j = 0; j < i; ++j) g[j] += uk * rk[j];
        }
        for (std::size_t k = 0; k < i; ++k) {
          double* const rk = row(k);
          const double vk = rk[i];
          for (std::size_t j = 0; j < i; ++j) rk[j] -= g[j] * vk;
        }
      }
      d[i] = ri[i];
      ri[i] = 1.0;
      for (std::size_t j = 0; j < i; ++j) {
        row(j)[i] = 0.0;
        ri[j] = 0.0;
      }
    }
  } else {
    e[0] = 0.0;
    for (std::size_t i = 0; i < n; ++i) d[i] = row(i)[i];
  }

  SymTridiag t;
  t.diag = std::move(d);
  t.off.assign(e.begin() + 1, e.end());
  return t;
}

}  // namespace graphio::la
