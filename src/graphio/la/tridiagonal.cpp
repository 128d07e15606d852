#include "graphio/la/tridiagonal.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "graphio/support/contracts.hpp"

namespace graphio::la {

namespace {

double sign_with(double magnitude, double sign_source) {
  return sign_source >= 0.0 ? std::fabs(magnitude) : -std::fabs(magnitude);
}

}  // namespace

void ql_implicit_shift(std::vector<double>& d, std::vector<double>& e,
                       DenseMatrix* z) {
  const std::size_t n = d.size();
  if (n == 0) return;
  GIO_EXPECTS(e.size() + 1 >= n);
  if (z != nullptr) GIO_EXPECTS(z->rows() == n);

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
            double* const zi = z->row(i).data();
            double* const zi1 = z->row(i + 1).data();
            for (std::size_t k = 0; k < z->cols(); ++k) {
              const double t = zi1[k];
              zi1[k] = s * zi[k] + c * t;
              zi[k] = c * zi[k] - s * t;
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

std::vector<double> tridiagonal_eigenvalues(SymTridiag t) {
  GIO_EXPECTS(t.off.size() + 1 == t.diag.size() || t.diag.empty());
  ql_implicit_shift(t.diag, t.off, nullptr);
  std::sort(t.diag.begin(), t.diag.end());
  return std::move(t.diag);
}

TridiagEigen tridiagonal_eigen(SymTridiag t) {
  const std::size_t n = t.diag.size();
  return tridiagonal_eigen(std::move(t), DenseMatrix::identity(n));
}

TridiagEigen tridiagonal_eigen(SymTridiag t, DenseMatrix basis_t) {
  GIO_EXPECTS(t.off.size() + 1 == t.diag.size() || t.diag.empty());
  const std::size_t n = t.diag.size();
  ql_implicit_shift(t.diag, t.off, &basis_t);

  // Sort pairs ascending; row order[j] of the rotated basis becomes
  // column j of the result.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
    return t.diag[x] < t.diag[y];
  });
  TridiagEigen out;
  out.values.resize(n);
  out.vectors = DenseMatrix(basis_t.cols(), n);
  for (std::size_t j = 0; j < n; ++j) {
    out.values[j] = t.diag[order[j]];
    const std::span<const double> v = basis_t.row(order[j]);
    for (std::size_t i = 0; i < v.size(); ++i) out.vectors(i, j) = v[i];
  }
  return out;
}

std::vector<double> toeplitz_tridiagonal_eigenvalues(int n, double a,
                                                     double b) {
  GIO_EXPECTS(n >= 0);
  std::vector<double> values;
  values.reserve(static_cast<std::size_t>(n));
  constexpr double pi = 3.14159265358979323846;
  for (int k = 1; k <= n; ++k)
    values.push_back(a + 2.0 * b * std::cos(k * pi / (n + 1)));
  std::sort(values.begin(), values.end());
  return values;
}

}  // namespace graphio::la
