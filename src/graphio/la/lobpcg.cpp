#include "graphio/la/lobpcg.hpp"

#include <algorithm>
#include <cmath>

#include "graphio/la/symmetric_eigen.hpp"
#include "graphio/la/vector_ops.hpp"
#include "graphio/support/contracts.hpp"
#include "graphio/support/parallel.hpp"
#include "graphio/support/prng.hpp"

namespace graphio::la {

namespace {

using Block = std::vector<std::vector<double>>;  // columns of length n

/// Two-pass modified Gram–Schmidt of `v` against `basis` (all columns).
void orthogonalize_against(const Block& basis, std::vector<double>& v) {
  for (int pass = 0; pass < 2; ++pass)
    for (const std::vector<double>& b : basis) axpy(-dot(b, v), b, v);
}

/// Orthonormalizes the columns of `block` against `locked` and among
/// themselves; columns that collapse numerically are dropped. Returns the
/// surviving columns.
Block orthonormalize(const Block& locked, Block block) {
  Block kept;
  kept.reserve(block.size());
  for (std::vector<double>& v : block) {
    orthogonalize_against(locked, v);
    orthogonalize_against(kept, v);
    if (normalize(v) > 1e-10) kept.push_back(std::move(v));
  }
  return kept;
}

}  // namespace

LobpcgResult lobpcg_smallest(const CsrMatrix& a, int want,
                             const LobpcgOptions& opts) {
  GIO_EXPECTS(want >= 0);
  GIO_EXPECTS(opts.max_iterations >= 1 && opts.rel_tol > 0.0);
  const std::int64_t n = a.size();
  want = static_cast<int>(std::min<std::int64_t>(want, n));

  LobpcgResult result;
  if (want == 0) {
    result.converged = true;
    return result;
  }
  if (n <= std::max<std::int64_t>(opts.dense_fallback, 2L * want)) {
    result.values = smallest_eigenpairs(
        a.to_dense(), want, opts.return_vectors ? &result.vectors : nullptr);
    result.residuals.assign(result.values.size(), 0.0);
    result.converged = true;
    return result;
  }

  const double scale = std::max(a.gershgorin_upper_bound(), 1e-300);
  const double tol = opts.rel_tol * scale;
  const auto block_width = [&](int remaining) {
    const int automatic = opts.block_size > 0
                              ? opts.block_size
                              : remaining + std::max(4, remaining / 4);
    return static_cast<int>(
        std::min<std::int64_t>(std::max(automatic, 1), n));
  };

  Prng rng(opts.seed);
  const auto nn = static_cast<std::size_t>(n);
  auto random_column = [&] {
    std::vector<double> v(nn);
    fill_normal(v, rng);
    return v;
  };
  auto apply = [&](const std::vector<double>& x) {
    std::vector<double> y(nn);
    a.matvec(x, y);
    ++result.matvecs;
    return y;
  };

  Block locked;  // converged eigenvectors, ascending eigenvalue order

  // Current iterates X, orthonormal; conjugate directions P start empty.
  // Warm-start columns (a retained predecessor eigenbasis) replace the
  // random seeds; whatever is missing or collapses under
  // orthonormalization is random-filled, so a degenerate warm block
  // degrades to the cold start rather than failing.
  Block x;
  for (const std::vector<double>& col : opts.warm_start) {
    if (static_cast<int>(x.size()) >= block_width(want)) break;
    if (static_cast<std::int64_t>(col.size()) == n) x.push_back(col);
  }
  while (static_cast<int>(x.size()) < block_width(want))
    x.push_back(random_column());
  x = orthonormalize(locked, std::move(x));
  while (static_cast<int>(x.size()) < block_width(want)) {
    Block extra;
    extra.push_back(random_column());
    Block ortho = orthonormalize(x, std::move(extra));
    if (ortho.empty()) break;
    for (auto& col : ortho) x.push_back(std::move(col));
  }
  Block p;

  for (int iter = 0; iter < opts.max_iterations; ++iter) {
    result.iterations = iter + 1;
    const int remaining = want - static_cast<int>(result.values.size());

    // Assemble the trial subspace S = [X | R | P], orthonormalized. The
    // residual block is computed from fresh matvecs on X.
    Block ax;
    ax.reserve(x.size());
    for (const auto& col : x) ax.push_back(apply(col));

    Block r;
    r.reserve(x.size());
    for (std::size_t j = 0; j < x.size(); ++j) {
      const double theta = dot(x[j], ax[j]);
      std::vector<double> res = ax[j];
      axpy(-theta, x[j], res);
      r.push_back(std::move(res));
    }

    Block s = x;  // X columns are already orthonormal vs locked
    for (auto& col : orthonormalize(s, std::move(r)))
      s.push_back(std::move(col));
    {
      Block p_copy = p;
      for (auto& col : orthonormalize(s, std::move(p_copy)))
        s.push_back(std::move(col));
    }
    // Guard against subspace collapse (all residuals dependent): inject a
    // random direction so Rayleigh–Ritz always has room to move.
    if (s.size() == x.size()) {
      Block extra;
      extra.push_back(random_column());
      for (auto& col : orthonormalize(s, std::move(extra)))
        s.push_back(std::move(col));
    }
    // The locked directions must stay out of S even after numerical drift.
    for (auto& col : s) orthogonalize_against(locked, col);

    const auto m = s.size();
    Block as;
    as.reserve(m);
    for (const auto& col : s) as.push_back(apply(col));

    DenseMatrix gram(m, m);
    // Upper triangle in parallel (disjoint rows), then mirrored.
    parallel_for(static_cast<std::int64_t>(m), [&](std::int64_t i) {
      const auto ui = static_cast<std::size_t>(i);
      for (std::size_t j = ui; j < m; ++j)
        gram(ui, j) = 0.5 * (dot(s[ui], as[j]) + dot(s[j], as[ui]));
    });
    for (std::size_t i = 0; i < m; ++i)
      for (std::size_t j = i + 1; j < m; ++j) gram(j, i) = gram(i, j);
    const SymmetricEigen ritz = symmetric_eigen(std::move(gram));

    // New iterates: the `width` smallest Ritz vectors mapped back to R^n;
    // conjugate directions: the same combinations with the X-block rows
    // zeroed (classic LOBPCG three-term recurrence).
    const int width = std::min<int>(block_width(remaining),
                                    static_cast<int>(m));
    Block new_x(static_cast<std::size_t>(width),
                std::vector<double>(nn, 0.0));
    Block new_p(static_cast<std::size_t>(width),
                std::vector<double>(nn, 0.0));
    std::vector<double> theta(static_cast<std::size_t>(width), 0.0);
    for (int j = 0; j < width; ++j) {
      theta[static_cast<std::size_t>(j)] =
          ritz.values[static_cast<std::size_t>(j)];
      for (std::size_t i = 0; i < m; ++i) {
        const double w = ritz.vectors(i, static_cast<std::size_t>(j));
        if (w == 0.0) continue;
        axpy(w, s[i], new_x[static_cast<std::size_t>(j)]);
        if (i >= x.size()) axpy(w, s[i], new_p[static_cast<std::size_t>(j)]);
      }
    }

    // Ascending-prefix locking with explicit residual certification.
    std::size_t lock_count = 0;
    std::vector<double> residual_norms(static_cast<std::size_t>(width), 0.0);
    for (int j = 0; j < width; ++j) {
      auto& candidate = new_x[static_cast<std::size_t>(j)];
      if (normalize(candidate) <= 1e-10) break;
      std::vector<double> res = apply(candidate);
      const double rayleigh = dot(candidate, res);
      axpy(-rayleigh, candidate, res);
      const double rnorm = nrm2(res);
      residual_norms[static_cast<std::size_t>(j)] = rnorm;
      theta[static_cast<std::size_t>(j)] = rayleigh;
      if (rnorm > tol) break;  // nothing above an unconverged pair locks
      ++lock_count;
      if (static_cast<int>(result.values.size()) + static_cast<int>(lock_count)
          >= want)
        break;
    }
    for (std::size_t j = 0; j < lock_count; ++j) {
      result.values.push_back(theta[j]);
      result.residuals.push_back(residual_norms[j]);
      locked.push_back(std::move(new_x[j]));
    }
    if (static_cast<int>(result.values.size()) >= want) {
      result.converged = true;
      break;
    }

    // Surviving (unlocked) iterates continue; re-orthonormalize and refill
    // to the block width against the enlarged locked set.
    Block next_x;
    for (std::size_t j = lock_count; j < new_x.size(); ++j)
      next_x.push_back(std::move(new_x[j]));
    next_x = orthonormalize(locked, std::move(next_x));
    const int target =
        block_width(want - static_cast<int>(result.values.size()));
    while (static_cast<int>(next_x.size()) < target) {
      Block extra;
      extra.push_back(random_column());
      Block ortho = orthonormalize(locked, std::move(extra));
      for (auto& col : ortho) {
        orthogonalize_against(next_x, col);
        if (normalize(col) > 1e-10) next_x.push_back(std::move(col));
      }
      if (ortho.empty()) break;  // space exhausted
    }
    x = std::move(next_x);

    Block next_p;
    for (std::size_t j = lock_count; j < new_p.size(); ++j)
      next_p.push_back(std::move(new_p[j]));
    p = orthonormalize(locked, std::move(next_p));
    if (x.empty()) break;  // nothing left to iterate on
  }

  // Values locked across iterations are ascending by construction within
  // an iteration but later iterations can certify slightly smaller copies
  // of a cluster; sort with paired residuals for a clean contract.
  std::vector<std::size_t> perm(result.values.size());
  for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = i;
  std::sort(perm.begin(), perm.end(), [&](std::size_t lhs, std::size_t rhs) {
    return result.values[lhs] < result.values[rhs];
  });
  std::vector<double> sorted_values(perm.size());
  std::vector<double> sorted_residuals(perm.size());
  for (std::size_t i = 0; i < perm.size(); ++i) {
    sorted_values[i] = result.values[perm[i]];
    sorted_residuals[i] = result.residuals[perm[i]];
  }
  result.values = std::move(sorted_values);
  result.residuals = std::move(sorted_residuals);
  if (opts.return_vectors) {
    // `locked` is aligned with the pre-sort value order.
    result.vectors.resize(perm.size());
    for (std::size_t i = 0; i < perm.size(); ++i)
      result.vectors[i] = std::move(locked[perm[i]]);
  }
  return result;
}

}  // namespace graphio::la
