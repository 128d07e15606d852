#include "graphio/core/spectral_bound.hpp"

#include <algorithm>

#include "graphio/core/spectral_pipeline.hpp"
#include "graphio/support/contracts.hpp"
#include "graphio/support/timer.hpp"

namespace graphio {

BoundOverK bound_from_spectrum(std::span<const double> lambda, std::int64_t n,
                               double memory, std::int64_t processors,
                               double scale) {
  GIO_EXPECTS(n >= 0 && processors >= 1 && memory >= 0.0 && scale >= 0.0);
  GIO_EXPECTS_MSG(std::is_sorted(lambda.begin(), lambda.end()),
                  "eigenvalues must be ascending");
  BoundOverK best;
  double prefix = 0.0;
  for (std::size_t i = 0; i < lambda.size(); ++i) {
    const auto k = static_cast<std::int64_t>(i) + 1;
    if (k > n) break;
    // PSD Laplacians can produce tiny negative eigenvalues numerically;
    // clamping keeps the partial sums conservative (never inflates them).
    prefix += std::max(lambda[i], 0.0);
    const double segments = static_cast<double>(n / (k * processors));
    const double value =
        scale * segments * prefix - 2.0 * static_cast<double>(k) * memory;
    if (value > best.bound) {
      best.bound = value;
      best.best_k = static_cast<int>(k);
    }
  }
  return best;
}

std::vector<double> smallest_laplacian_eigenvalues(
    const Digraph& g, LaplacianKind kind, int h,
    const SpectralOptions& options, bool* converged) {
  GIO_EXPECTS(h >= 0);
  PipelineResult result = SpectralPipeline(options).run(g, kind, h);
  if (converged != nullptr) *converged = result.converged;
  return std::move(result.values);
}

bool solver_options_equal(const SpectralOptions& a, const SpectralOptions& b) {
  return solve_inputs(a) == solve_inputs(b);
}

namespace {

std::vector<SpectralBound> bound_impl_multi(const Digraph& g,
                                            std::span<const double> memories,
                                            std::int64_t processors,
                                            LaplacianKind kind, double scale,
                                            const SpectralOptions& options) {
  GIO_EXPECTS(processors >= 1);
  for (double memory : memories)
    GIO_EXPECTS_MSG(memory >= 0.0, "memory size must be non-negative");
  WallTimer timer;
  // One solve of h = min(max_eigenvalues, n), exactly what an Engine
  // request resolves, so the two agree bit for bit.
  const int h = static_cast<int>(std::min<std::int64_t>(
      options.max_eigenvalues, g.num_vertices()));
  bool converged = true;
  const std::vector<double> lambda =
      smallest_laplacian_eigenvalues(g, kind, h, options, &converged);
  std::vector<SpectralBound> out(memories.size());
  for (std::size_t i = 0; i < memories.size(); ++i) {
    const BoundOverK best = bound_from_spectrum(
        lambda, g.num_vertices(), memories[i], processors, scale);
    out[i].bound = best.bound;
    out[i].best_k = best.best_k;
    out[i].eigenvalues = lambda;
    out[i].eigensolver_converged = converged;
    // Decomposition time is charged to the first entry; re-evaluations of
    // the max-over-k are effectively free.
    out[i].seconds = i == 0 ? timer.seconds() : 0.0;
  }
  return out;
}

}  // namespace

std::vector<SpectralBound> spectral_bounds(const Digraph& g,
                                           std::span<const double> memories,
                                           const SpectralOptions& options) {
  return bound_impl_multi(g, memories, 1,
                          LaplacianKind::kOutDegreeNormalized, 1.0, options);
}

std::vector<SpectralBound> spectral_bounds_plain(
    const Digraph& g, std::span<const double> memories,
    const SpectralOptions& options) {
  const std::int64_t dmax = g.max_out_degree();
  if (dmax == 0) {
    // Edgeless graph: every Laplacian is zero and the bound is trivial.
    std::vector<SpectralBound> out(memories.size());
    for (auto& b : out)
      b.eigenvalues.assign(
          static_cast<std::size_t>(std::min<std::int64_t>(
              options.max_eigenvalues, g.num_vertices())),
          0.0);
    return out;
  }
  return bound_impl_multi(g, memories, 1, LaplacianKind::kPlain,
                          1.0 / static_cast<double>(dmax), options);
}

SpectralBound spectral_bound(const Digraph& g, double memory,
                             const SpectralOptions& options) {
  return std::move(spectral_bounds(g, {&memory, 1}, options)[0]);
}

SpectralBound spectral_bound_plain(const Digraph& g, double memory,
                                   const SpectralOptions& options) {
  return std::move(spectral_bounds_plain(g, {&memory, 1}, options)[0]);
}

SpectralBound parallel_spectral_bound(const Digraph& g, double memory,
                                      std::int64_t processors,
                                      const SpectralOptions& options) {
  return std::move(bound_impl_multi(g, {&memory, 1}, processors,
                                    LaplacianKind::kOutDegreeNormalized, 1.0,
                                    options)[0]);
}

}  // namespace graphio
