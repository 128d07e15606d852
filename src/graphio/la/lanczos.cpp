#include "graphio/la/lanczos.hpp"

#include <algorithm>
#include <cmath>

#include "graphio/la/symmetric_eigen.hpp"
#include "graphio/la/vector_ops.hpp"
#include "graphio/support/contracts.hpp"
#include "graphio/support/parallel.hpp"
#include "graphio/support/prng.hpp"

namespace graphio::la {

namespace {

using Column = std::vector<double>;
using ColumnSet = std::vector<Column>;

/// w -= Σ_i (v_iᵀ w) v_i, classical Gram-Schmidt, one pass.
/// Coefficients are computed in parallel (independent dots), then the
/// update runs over disjoint row chunks.
void project_out_once(std::span<double> w, const ColumnSet& basis) {
  if (basis.empty()) return;
  const std::int64_t m = static_cast<std::int64_t>(basis.size());
  const std::int64_t n = static_cast<std::int64_t>(w.size());
  std::vector<double> coef(static_cast<std::size_t>(m));
  parallel_for(m, [&](std::int64_t i) {
    coef[static_cast<std::size_t>(i)] =
        dot(basis[static_cast<std::size_t>(i)], w);
  });
  const std::int64_t chunks =
      std::max<std::int64_t>(1, std::min<std::int64_t>(hardware_threads() * 4,
                                                       (n + 1023) / 1024));
  const std::int64_t chunk = (n + chunks - 1) / chunks;
  parallel_for(chunks, [&](std::int64_t c) {
    const std::int64_t lo = c * chunk;
    const std::int64_t hi = std::min(n, lo + chunk);
    if (lo >= hi) return;
    for (std::int64_t i = 0; i < m; ++i) {
      const double ci = coef[static_cast<std::size_t>(i)];
      if (ci == 0.0) continue;
      const double* v = basis[static_cast<std::size_t>(i)].data();
      double* wp = w.data();
      for (std::int64_t r = lo; r < hi; ++r) wp[r] -= ci * v[r];
    }
  });
}

/// Two-pass full reorthogonalization against two basis sets.
void project_out(std::span<double> w, const ColumnSet& basis_a,
                 const ColumnSet& basis_b) {
  for (int pass = 0; pass < 2; ++pass) {
    project_out_once(w, basis_a);
    project_out_once(w, basis_b);
  }
}

/// Fills `col` with a random unit vector orthogonal to both basis sets.
/// Returns false if that repeatedly fails (complement numerically empty).
bool random_orthonormal(Column& col, const ColumnSet& basis_a,
                        const ColumnSet& basis_b, Prng& rng) {
  for (int attempt = 0; attempt < 5; ++attempt) {
    fill_normal(col, rng);
    (void)normalize(col);
    project_out(col, basis_a, basis_b);
    if (normalize(col) > 1e-8) return true;
  }
  return false;
}

/// y += M · w where M's columns are `cols` and w holds one coefficient per
/// column; runs over disjoint row chunks in parallel.
void accumulate_combination(std::span<double> y, const ColumnSet& cols,
                            std::span<const double> w) {
  const std::int64_t m = static_cast<std::int64_t>(cols.size());
  const std::int64_t n = static_cast<std::int64_t>(y.size());
  const std::int64_t chunks =
      std::max<std::int64_t>(1, std::min<std::int64_t>(hardware_threads() * 4,
                                                       (n + 1023) / 1024));
  const std::int64_t chunk = (n + chunks - 1) / chunks;
  parallel_for(chunks, [&](std::int64_t c) {
    const std::int64_t lo = c * chunk;
    const std::int64_t hi = std::min(n, lo + chunk);
    if (lo >= hi) return;
    for (std::int64_t i = 0; i < m; ++i) {
      const double ci = w[static_cast<std::size_t>(i)];
      if (ci == 0.0) continue;
      const double* v = cols[static_cast<std::size_t>(i)].data();
      double* yp = y.data();
      for (std::int64_t r = lo; r < hi; ++r) yp[r] += ci * v[r];
    }
  });
}

/// Chebyshev acceleration for clustered smallest eigenvalues: replaces a
/// direction v with p(A)·v where p is the degree-d Chebyshev polynomial on
/// [cut, ub], which grows like cosh(d·acosh(·)) below `cut`. This boosts
/// exactly the components Krylov expansion struggles with when the low end
/// of the spectrum is tightly clustered (butterfly/path Laplacians). Only
/// the *direction generation* is filtered — T = VᵀAV stays exact in A, so
/// locking certification is untouched.
class ChebyshevFilter {
 public:
  ChebyshevFilter(const CsrMatrix& a, double cut, double upper, int degree)
      : a_(a),
        center_((upper + cut) / 2.0),
        half_((upper - cut) / 2.0),
        degree_(degree) {}

  [[nodiscard]] bool usable() const noexcept { return half_ > 0.0; }

  /// v ← p(A)·v (normalized); returns the matvec count spent.
  std::int64_t apply(Column& v) const {
    const std::size_t n = v.size();
    Column prev = v;             // T_0(x)·v
    Column cur(n);               // T_1(x)·v = ((A − cI)/e)·v
    a_.matvec(prev, cur);
    for (std::size_t i = 0; i < n; ++i)
      cur[i] = (cur[i] - center_ * prev[i]) / half_;
    std::int64_t matvecs = 1;
    Column next(n);
    for (int d = 2; d <= degree_; ++d) {
      a_.matvec(cur, next);
      ++matvecs;
      for (std::size_t i = 0; i < n; ++i)
        next[i] = 2.0 * (next[i] - center_ * cur[i]) / half_ - prev[i];
      std::swap(prev, cur);
      std::swap(cur, next);
      // Values below `cut` grow like cosh(d·acosh(..)); renormalize to
      // keep the recurrence away from overflow.
      if (d % 8 == 0) (void)normalize(cur);
    }
    (void)normalize(cur);
    v = std::move(cur);
    return matvecs;
  }

 private:
  const CsrMatrix& a_;
  double center_;
  double half_;
  int degree_;
};

}  // namespace

LanczosResult smallest_eigenvalues(const CsrMatrix& a, int want,
                                   const LanczosOptions& opts) {
  const std::int64_t n = a.size();
  GIO_EXPECTS_MSG(want >= 0, "want must be non-negative");
  want = static_cast<int>(std::min<std::int64_t>(want, n));

  LanczosResult result;
  if (want == 0) {
    result.converged = true;
    return result;
  }

  const int block =
      std::max(2, std::min<int>(opts.block_size, static_cast<int>(n)));

  // Small problems: the dense solver is both faster and exact.
  if (n <= std::max<std::int64_t>(opts.dense_fallback, 3L * block)) {
    result.values = smallest_eigenpairs(
        a.to_dense(), want, opts.return_vectors ? &result.vectors : nullptr);
    result.residuals.assign(result.values.size(), 0.0);
    result.converged = true;
    return result;
  }

  int max_basis = opts.max_basis > 0
                      ? opts.max_basis
                      : std::max({want + 4 * block, 6 * block, 192});
  max_basis = static_cast<int>(std::min<std::int64_t>(max_basis, n));
  // Ultimate cap for stall-driven widening; also the fixed row stride of
  // the stored T (a changing stride would scramble retained entries).
  const int basis_ceiling = static_cast<int>(std::min<std::int64_t>(
      n, std::max<std::int64_t>(opts.stall_basis_cap, max_basis)));

  const double scale = std::max(a.gershgorin_upper_bound(), 1e-300);
  const double tol = opts.rel_tol * scale;

  Prng rng(opts.seed);
  ColumnSet locked_vecs;
  std::vector<double> locked_vals;
  std::vector<double> locked_res;

  // Basis state, persistent across thick restarts within the run.
  ColumnSet basis;   // orthonormal columns, all ⊥ locked_vecs
  ColumnSet abasis;  // A · basis[i]
  std::vector<double> tmat(static_cast<std::size_t>(basis_ceiling) *
                           static_cast<std::size_t>(basis_ceiling));
  auto t_at = [&](std::size_t i, std::size_t j) -> double& {
    return tmat[i * static_cast<std::size_t>(basis_ceiling) + j];
  };

  // Appends `col` (assumed orthonormal to locked + basis) to the basis,
  // applies A, and extends T exactly.
  auto append_column = [&](Column col) {
    const std::size_t q = basis.size();
    Column ac(static_cast<std::size_t>(n));
    a.matvec(col, ac);
    ++result.matvecs;
    basis.push_back(std::move(col));
    abasis.push_back(std::move(ac));
    for (std::size_t p = 0; p <= q; ++p) {
      const double tv = dot(basis[p], abasis[q]);
      t_at(p, q) = tv;
      t_at(q, p) = tv;
    }
  };

  // Continuation directions for the next expansion (residual block carried
  // over a thick restart); starts empty so the first cycle seeds randomly.
  ColumnSet continuation;

  // Chebyshev window top, learned from the first Rayleigh–Ritz solve
  // (0 = no filter yet).
  double filter_cut = 0.0;
  auto make_filter = [&]() {
    const double cut = std::min(filter_cut, 0.5 * scale);
    return ChebyshevFilter(a, cut, scale, opts.cheb_degree);
  };
  const bool filtering_enabled = opts.cheb_degree >= 2;

  int stall_cycles = 0;

  while (static_cast<int>(locked_vals.size()) < want &&
         result.cycles < opts.max_cycles) {
    ++result.cycles;
    const int remaining = want - static_cast<int>(locked_vals.size());
    const std::int64_t free_dim =
        n - static_cast<std::int64_t>(locked_vecs.size());
    const int cycle_cap =
        static_cast<int>(std::min<std::int64_t>(max_basis, free_dim));

    // --- seed block: restart continuation + fresh random directions ------
    const bool filtered = filtering_enabled && filter_cut > 0.0 &&
                          filter_cut < 0.5 * scale;
    ColumnSet seed = std::move(continuation);
    continuation.clear();
    for (int c = 0; c < block; ++c) {
      Column col(static_cast<std::size_t>(n));
      if (!random_orthonormal(col, locked_vecs, basis, rng)) break;
      if (filtered) {
        result.matvecs += make_filter().apply(col);
        project_out(col, locked_vecs, basis);
        if (normalize(col) <= 1e-8) continue;
      }
      // Must also be orthogonal to the seed columns not yet appended.
      project_out_once(col, seed);
      if (normalize(col) > 1e-8) seed.push_back(std::move(col));
    }
    if (basis.empty() && seed.empty()) break;  // complement exhausted

    // --- expand block by block up to the basis cap ------------------------
    std::vector<std::size_t> last_block;
    while (!seed.empty() && static_cast<int>(basis.size()) < cycle_cap) {
      last_block.clear();
      for (Column& col : seed) {
        if (static_cast<int>(basis.size()) >= cycle_cap) break;
        // Guard orthogonality once more (cheap, keeps T trustworthy).
        project_out_once(col, basis);
        project_out_once(col, locked_vecs);
        if (normalize(col) <= 1e-10) continue;
        last_block.push_back(basis.size());
        append_column(std::move(col));
      }
      seed.clear();
      if (static_cast<int>(basis.size()) >= cycle_cap) break;
      // Next block: residuals of the freshly applied columns, optionally
      // pushed through the Chebyshev low-end amplifier.
      for (std::size_t q : last_block) {
        Column w = abasis[q];
        if (filtered) result.matvecs += make_filter().apply(w);
        project_out(w, locked_vecs, basis);
        project_out_once(w, seed);
        if (normalize(w) <= 1e-10) {
          if (!random_orthonormal(w, locked_vecs, basis, rng)) continue;
          project_out_once(w, seed);
          if (normalize(w) <= 1e-10) continue;
        }
        seed.push_back(std::move(w));
      }
    }
    // `seed` now holds the residual block that did not fit: the thick-
    // restart continuation directions.
    continuation = std::move(seed);

    const std::size_t s = basis.size();
    result.max_basis_used =
        std::max(result.max_basis_used, static_cast<int>(s));
    if (s == 0) break;

    // --- Rayleigh–Ritz over the basis -------------------------------------
    DenseMatrix tm(s, s);
    for (std::size_t i = 0; i < s; ++i)
      for (std::size_t j = 0; j < s; ++j) tm(i, j) = t_at(i, j);
    SymmetricEigen ritz = symmetric_eigen(std::move(tm));

    // Learn the Chebyshev window: amplify everything below the top of the
    // wanted band (with slack so clustered tails are not clipped).
    {
      const std::size_t win = std::min<std::size_t>(
          s - 1, static_cast<std::size_t>(remaining + 2 * block));
      filter_cut = std::max(ritz.values[win] * 1.1, 1e-10 * scale);
    }

    // --- ascending-prefix locking with explicit certification -------------
    int locked_this_cycle = 0;
    std::size_t first_unlocked = 0;  // index into ritz of first kept pair
    for (std::size_t i = 0; i < s && locked_this_cycle < remaining; ++i) {
      // Assemble z = V y with a fresh combination.
      Column z(static_cast<std::size_t>(n), 0.0);
      std::vector<double> y(s);
      for (std::size_t r = 0; r < s; ++r)
        y[r] = ritz.vectors(r, i);
      accumulate_combination(z, basis, y);
      project_out_once(z, locked_vecs);  // keep locked set orthonormal
      if (normalize(z) <= 0.5) break;    // candidate collapsed onto locked
      Column az(static_cast<std::size_t>(n));
      a.matvec(z, az);
      ++result.matvecs;
      const double theta = dot(z, az);
      axpy(-theta, z, az);
      const double res = nrm2(az);
      if (res > 4.0 * tol) break;  // prefix rule: stop at first failure

      locked_vals.push_back(theta);
      locked_res.push_back(res);
      locked_vecs.push_back(std::move(z));
      ++locked_this_cycle;
      first_unlocked = i + 1;
    }

    if (static_cast<int>(locked_vals.size()) >= want) break;

    // --- thick restart: compact the basis to the smallest kept pairs ------
    const int keep_target = std::min<int>(
        {remaining + 2 * block, static_cast<int>(s - first_unlocked),
         std::max(1, cycle_cap - 2 * block)});
    const std::size_t keep =
        static_cast<std::size_t>(std::max(keep_target, 0));
    ColumnSet new_basis;
    ColumnSet new_abasis;
    std::vector<double> kept_values;
    new_basis.reserve(keep);
    new_abasis.reserve(keep);
    for (std::size_t idx = 0; idx < keep; ++idx) {
      const std::size_t i = first_unlocked + idx;
      if (i >= s) break;
      std::vector<double> y(s);
      for (std::size_t r = 0; r < s; ++r) y[r] = ritz.vectors(r, i);
      Column z(static_cast<std::size_t>(n), 0.0);
      accumulate_combination(z, basis, y);
      Column az(static_cast<std::size_t>(n), 0.0);
      accumulate_combination(az, abasis, y);
      // Clean up drift against the locked set; the matching correction to
      // az keeps T's diagonal faithful to machine precision.
      project_out_once(z, locked_vecs);
      const double norm = normalize(z);
      if (norm <= 1e-8) continue;
      scal(1.0 / norm, az);
      new_basis.push_back(std::move(z));
      new_abasis.push_back(std::move(az));
      kept_values.push_back(ritz.values[i]);
    }
    basis = std::move(new_basis);
    abasis = std::move(new_abasis);
    std::fill(tmat.begin(), tmat.end(), 0.0);
    for (std::size_t i = 0; i < basis.size(); ++i)
      t_at(i, i) = kept_values[i];
    // Re-orthogonalize the continuation block against the compacted basis.
    ColumnSet cleaned;
    for (Column& c : continuation) {
      project_out(c, locked_vecs, basis);
      project_out_once(c, cleaned);
      if (normalize(c) > 1e-8) cleaned.push_back(std::move(c));
    }
    continuation = std::move(cleaned);

    if (locked_this_cycle == 0) {
      ++stall_cycles;
      // Wider Krylov spaces resolve slow-converging clustered ends, but the
      // widening must stay bounded (see stall_basis_cap).
      if (stall_cycles >= 2)
        max_basis = std::min(basis_ceiling, max_basis * 2);
      if (stall_cycles >= 8) break;
    } else {
      stall_cycles = 0;
    }
  }

  // Sort (value, residual) pairs together by value.
  std::vector<std::size_t> perm(locked_vals.size());
  for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = i;
  std::sort(perm.begin(), perm.end(), [&](std::size_t x, std::size_t y) {
    return locked_vals[x] < locked_vals[y];
  });
  result.values.reserve(perm.size());
  result.residuals.reserve(perm.size());
  for (std::size_t i = 0;
       i < perm.size() && static_cast<int>(i) < want; ++i) {
    result.values.push_back(locked_vals[perm[i]]);
    result.residuals.push_back(locked_res[perm[i]]);
    if (opts.return_vectors)
      result.vectors.push_back(std::move(locked_vecs[perm[i]]));
  }
  result.converged = static_cast<int>(result.values.size()) == want;
  return result;
}

}  // namespace graphio::la
