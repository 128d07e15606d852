#include "graphio/core/spectral_pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "graphio/faults/fault_injection.hpp"
#include "graphio/graph/components.hpp"
#include "graphio/la/bisection.hpp"
#include "graphio/la/householder.hpp"
#include "graphio/la/lobpcg.hpp"
#include "graphio/la/symmetric_eigen.hpp"
#include "graphio/la/vector_ops.hpp"
#include "graphio/support/contracts.hpp"
#include "graphio/support/timer.hpp"
#include "graphio/telemetry/metrics.hpp"
#include "graphio/telemetry/trace.hpp"

namespace graphio {

namespace {

/// Dense tier: the h smallest eigenvalues of the component Laplacian,
/// plus their eigenvectors when `retained` is non-null.
std::vector<double> dense_smallest(const Digraph& g, LaplacianKind kind, int h,
                                   std::vector<std::vector<double>>* retained) {
  return la::smallest_eigenpairs(dense_laplacian(g, kind), h, retained);
}

/// Certifies an iterative solve's ascending certified values v_1..v_k of
/// the Laplacian `lap` of `g` as pointwise lower bounds, v_j ≤ λ_j, to
/// within the backward-error floor n·ε·‖L‖ (the solvers' internal dense
/// fallback returns ~1e-17 for a zero eigenvalue, not 0). Residuals alone cannot: θ − ‖r‖ bounds *some*
/// eigenvalue near θ, and a block iteration can miss copies of an
/// eigenvalue whose multiplicity exceeds its block width — Theorem 4 then
/// sums a positive value where λ_j is smaller. Two counts catch a missed
/// copy:
///   - eigenvalue 0 has multiplicity exactly c, the graph's weak
///     component count, so the values must open with min(c, h) zeros;
///   - on a disconnected graph (a monolithic solve, where disjoint copies
///     multiply every multiplicity) the Sturm counts of the components'
///     tridiagonal forms (la/bisection.hpp) sum to ν(t), the number of
///     eigenvalues below t, and v_j ≤ λ_j for every j ≤ k iff
///     ν(v_j − floor) ≤ j − 1 for every j. A component above
///     la::kDenseRescueMaxN is too big for the dense reduction; its graph
///     keeps only the zero count.
/// On a failure at position j, cuts `values` to v_1..v_{j−1} and returns
/// false (not converged).
bool certify_values(std::vector<double>& values, const Digraph& g,
                    const la::CsrMatrix& lap, LaplacianKind kind, int h) {
  const double floor = static_cast<double>(lap.size()) *
                       std::numeric_limits<double>::epsilon() *
                       lap.gershgorin_upper_bound();
  const WeakComponents components = weakly_connected_components(g);
  const auto zeros = static_cast<std::size_t>(
      std::upper_bound(values.begin(), values.end(), floor) - values.begin());
  std::size_t certified =
      zeros >= static_cast<std::size_t>(std::min(components.count, h))
          ? values.size()
          : zeros;
  if (certified > zeros && components.count > 1) {
    std::vector<la::SymTridiag> blocks;
    for (int c = 0; c < components.count; ++c) {
      if (static_cast<std::int64_t>(
              components.vertices[static_cast<std::size_t>(c)].size()) >
          la::kDenseRescueMaxN)
        return true;
      la::DenseMatrix block = dense_laplacian(components.subgraph(g, c), kind);
      blocks.push_back(la::householder_tridiagonalize(block, false));
    }
    for (std::size_t j = zeros; j < values.size(); ++j) {
      std::int64_t below = 0;
      for (const la::SymTridiag& t : blocks)
        below += la::sturm_count_below(t, values[j] - floor);
      if (below > static_cast<std::int64_t>(j)) {
        certified = j;
        break;
      }
    }
  }
  if (certified == values.size()) return true;
  values.resize(certified);
  return false;
}

/// One Rayleigh–Ritz pass over a retained predecessor basis: the warm
/// fast path. Orthonormalizes the basis, rotates it into Ritz pairs of
/// the patched Laplacian, and accepts when every pair's residual is at or
/// below `accept_rel_tol` of the Gershgorin scale — the returned values
/// are the same certified lower estimates max(0, θ − ‖r‖) the iterative
/// tiers emit, so acceptance never changes soundness, only how much of
/// the patch's perturbation is left in the bound. The rotated pairs
/// replace the basis (via `retained`), so repeated small patches keep
/// refreshing until drift trips the gate and a full solve resets it.
/// Returns false (leaving `solve` untouched) when the basis is too thin,
/// misshapen, or the residuals exceed the gate.
bool warm_subspace_refresh(const la::CsrMatrix& lap,
                           const std::vector<std::vector<double>>& basis,
                           int h, double accept_rel_tol,
                           ComponentSolve& solve,
                           std::vector<std::vector<double>>* retained) {
  const auto n = static_cast<std::size_t>(lap.size());
  // Two-pass modified Gram–Schmidt; columns that collapse are dropped.
  // Fewer than h survivors cannot certify h pairs.
  std::vector<std::vector<double>> v;
  v.reserve(basis.size());
  for (const std::vector<double>& col : basis) {
    if (col.size() != n) return false;
    std::vector<double> w = col;
    for (int pass = 0; pass < 2; ++pass)
      for (const std::vector<double>& b : v) la::axpy(-la::dot(b, w), b, w);
    if (la::normalize(w) > 1e-8) v.push_back(std::move(w));
  }
  if (static_cast<int>(v.size()) < h) return false;
  const std::size_t m = v.size();

  std::vector<std::vector<double>> lv(m, std::vector<double>(n));
  for (std::size_t j = 0; j < m; ++j) lap.matvec(v[j], lv[j]);
  la::DenseMatrix gram(m, m);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = i; j < m; ++j)
      gram(i, j) = gram(j, i) = 0.5 * (la::dot(v[i], lv[j]) +
                                       la::dot(v[j], lv[i]));
  const la::SymmetricEigen ritz = la::symmetric_eigen(std::move(gram));

  const double accept =
      accept_rel_tol * std::max(lap.gershgorin_upper_bound(), 1e-300);
  std::vector<double> values;
  std::vector<std::vector<double>> rotated;
  values.reserve(static_cast<std::size_t>(h));
  rotated.reserve(static_cast<std::size_t>(h));
  double max_residual = 0.0;
  for (int j = 0; j < h; ++j) {
    std::vector<double> x(n, 0.0);
    std::vector<double> lx(n, 0.0);
    for (std::size_t i = 0; i < m; ++i) {
      const double w = ritz.vectors(i, static_cast<std::size_t>(j));
      if (w == 0.0) continue;
      la::axpy(w, v[i], x);
      la::axpy(w, lv[i], lx);
    }
    const double theta = ritz.values[static_cast<std::size_t>(j)];
    la::axpy(-theta, x, lx);  // lx becomes the residual
    const double rnorm = la::nrm2(lx);
    if (rnorm > accept) return false;
    max_residual = std::max(max_residual, rnorm);
    values.push_back(std::max(0.0, theta - rnorm));
    rotated.push_back(std::move(x));
  }
  std::sort(values.begin(), values.end());
  solve.values = std::move(values);
  solve.converged = true;
  solve.iterations = 1;
  solve.warm_started = true;
  solve.refresh = true;
  solve.max_residual = max_residual;
  if (retained != nullptr) *retained = std::move(rotated);
  return true;
}

/// The Lanczos or LOBPCG solve of `lap` into `solve`: certified lower
/// estimates θ − ‖r‖, ascending, with the widest residual, the iteration
/// count and the convergence flag. `warm_columns` (nullable) seeds the
/// LOBPCG block, and marks the solve warm when an iteration consumed it;
/// Lanczos takes no seed (la/lanczos.hpp). `retained` (nullable) receives
/// the returned eigenvectors.
void solve_iterative(const la::CsrMatrix& lap, la::SolverKind tier, int h,
                     const std::vector<std::vector<double>>* warm_columns,
                     std::vector<std::vector<double>>* retained,
                     ComponentSolve& solve) {
  std::vector<double> values;
  std::vector<double> residuals;
  std::vector<std::vector<double>> vectors;
  if (tier == la::SolverKind::kLobpcg) {
    la::LobpcgOptions lopts;
    lopts.rel_tol = kBoundRelTol;
    lopts.return_vectors = retained != nullptr;
    if (warm_columns != nullptr) {
      // Same tolerance as a cold solve: soundness never depends on it
      // (the certified estimates below are valid at any residual), so
      // tightening here would only trade the warm head start back for
      // extra iterations.
      lopts.warm_start = *warm_columns;
    }
    la::LobpcgResult res = la::lobpcg_smallest(lap, h, lopts);
    values = std::move(res.values);
    residuals = std::move(res.residuals);
    vectors = std::move(res.vectors);
    solve.converged = res.converged;
    solve.iterations = res.iterations;
    if (warm_columns != nullptr) {
      // LOBPCG hands n <= max(320, 2h) to its internal dense fallback,
      // which never reads the seed: only a solve that iterated consumed
      // the basis. A fallback is reported as what it was, a dense solve.
      solve.warm_started = solve.iterations > 0;
      if (!solve.warm_started) {
        solve.solver_reason =
            "lobpcg dense fallback at n=" + std::to_string(lap.size());
        solve.solver = la::SolverKind::kDense;
      }
    }
  } else {
    la::LanczosOptions lopts = kBoundLanczos;
    lopts.return_vectors = retained != nullptr;
    la::LanczosResult res = la::smallest_eigenvalues(lap, h, lopts);
    values = std::move(res.values);
    residuals = std::move(res.residuals);
    vectors = std::move(res.vectors);
    solve.converged = res.converged;
    solve.iterations = res.cycles;
  }
  if (retained != nullptr) *retained = std::move(vectors);
  // Certified lower estimates θ − ‖r‖: sound for the lower bound at any
  // tolerance (clamped to the PSD floor of zero).
  for (std::size_t i = 0; i < values.size(); ++i) {
    solve.max_residual = std::max(solve.max_residual, residuals[i]);
    values[i] = std::max(0.0, values[i] - residuals[i]);
  }
  std::sort(values.begin(), values.end());
  solve.values = std::move(values);
}

/// The per-component solve behind solve_component_spectrum, cold or warm.
/// `warm_columns` (nullable) seeds the iterative tiers; `retained`
/// (nullable) receives the converged eigenvectors for the eigenbasis
/// tier.
ComponentSolve solve_component_impl(
    const Digraph& component, LaplacianKind kind, int h,
    const SpectralOptions& options,
    const std::vector<std::vector<double>>* warm_columns,
    std::vector<std::vector<double>>* retained) {
  const std::int64_t n = component.num_vertices();
  WallTimer timer;
  ComponentSolve solve;
  solve.vertices = n;
  solve.edges = component.num_edges();
  h = static_cast<int>(std::min<std::int64_t>(h, n));
  if (h <= 0) {
    solve.seconds = timer.seconds();
    return solve;
  }
  if (component.num_edges() == 0) {
    // Every Laplacian of an edgeless graph is zero; no solver needed.
    solve.values.assign(static_cast<std::size_t>(h), 0.0);
    solve.seconds = timer.seconds();
    return solve;
  }

  const bool warm = warm_columns != nullptr && !warm_columns->empty();
  // nnz upper estimate without assembling the matrix: the diagonal plus
  // one symmetric pair per edge (parallel edges share a slot, so the true
  // count is never larger — close enough for tier selection).
  const la::SolverChoice choice = la::choose_solver(
      options.solver, {n, n + 2 * component.num_edges(), h, warm});
  solve.solver = choice.kind;
  solve.solver_ran = true;
  solve.solver_reason = choice.reason;

  if (choice.kind == la::SolverKind::kDense) {
    solve.values = dense_smallest(component, kind, h, retained);
    solve.seconds = timer.seconds();
    return solve;
  }

  const la::CsrMatrix lap = laplacian(component, kind);
  // Warm fast path: one certified Rayleigh–Ritz pass over the retained
  // basis. Applies to the iterative tiers only (a dense choice returned
  // above), whether the tier was policy-chosen or forced — forcing an
  // iterative solver, like warm-seeding it, asks for its family of
  // certified estimates, and the refresh is the 1-iteration member.
  const bool refreshed =
      warm && warm_subspace_refresh(lap, *warm_columns, h,
                                    la::kWarmRefreshRelTol, solve, retained);
  if (!refreshed)
    solve_iterative(lap, choice.kind, h, warm ? warm_columns : nullptr,
                    retained, solve);
  if (!certify_values(solve.values, component, lap, kind, h))
    solve.converged = false;
  if (!solve.converged && !options.solver && n <= la::kDenseRescueMaxN) {
    // Tightly clustered interior eigenvalues can defeat the sparse tiers
    // on moderate components (e.g. Strassen Laplacians), and a block
    // iteration can miss copies of a multiple eigenvalue; the dense path
    // is slow but certain there. Only shape-chosen tiers are rescued — a
    // forced tier is an explicit request for that solver's answer,
    // ablations included. A warm solve that fails to converge (e.g. a
    // patch that disconnected its component) lands here too: the
    // fallback is cold and exact.
    solve.solver = la::SolverKind::kDense;
    solve.iterations = 0;
    solve.refresh = false;
    solve.max_residual = 0.0;
    solve.values = dense_smallest(component, kind, h, retained);
    solve.converged = true;
  } else if (!solve.converged && retained != nullptr) {
    retained->clear();  // partial bases are not worth retaining
  }
  solve.seconds = timer.seconds();
  return solve;
}

/// Maps a retained basis onto a (possibly patched) successor component of
/// `n` vertices with the given external ids. Edge-only patches keep the
/// vertex set and reuse the basis as-is; vertex add/remove patches remap
/// rows by surviving external id (both id lists are ascending) and pad
/// new rows with a small deterministic pseudo-random fill so the block
/// spans fresh directions. Returns empty when the basis cannot apply.
std::vector<std::vector<double>> remap_basis_rows(
    const Eigenbasis& basis, std::span<const VertexId> external_ids,
    std::int64_t n) {
  if (basis.vectors.empty()) return {};
  const auto rows = static_cast<std::int64_t>(basis.vectors.front().size());
  if (rows == n &&
      (basis.row_ids.empty() || external_ids.empty() ||
       std::ranges::equal(basis.row_ids, external_ids)))
    return basis.vectors;
  if (basis.row_ids.empty() || external_ids.empty() ||
      static_cast<std::int64_t>(external_ids.size()) != n)
    return {};
  std::vector<std::int64_t> old_row(static_cast<std::size_t>(n), -1);
  std::size_t j = 0;
  for (std::size_t i = 0; i < external_ids.size(); ++i) {
    while (j < basis.row_ids.size() && basis.row_ids[j] < external_ids[i]) ++j;
    if (j < basis.row_ids.size() && basis.row_ids[j] == external_ids[i])
      old_row[i] = static_cast<std::int64_t>(j);
  }
  std::vector<std::vector<double>> out;
  out.reserve(basis.vectors.size());
  std::uint64_t state = 0x9E3779B97F4A7C15ULL;
  for (const std::vector<double>& col : basis.vectors) {
    std::vector<double> mapped(static_cast<std::size_t>(n));
    for (std::size_t i = 0; i < mapped.size(); ++i) {
      if (old_row[i] >= 0) {
        mapped[i] = col[static_cast<std::size_t>(old_row[i])];
      } else {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        mapped[i] =
            1e-3 * (static_cast<double>((state >> 33) & 0xFFFF) / 65536.0 -
                    0.5);
      }
    }
    out.push_back(std::move(mapped));
  }
  return out;
}

}  // namespace

ComponentSolve solve_component_spectrum(const Digraph& component,
                                        LaplacianKind kind, int h,
                                        const SpectralOptions& options,
                                        WarmStart* warm) {
  // The "solve" span brackets exactly the eigensolver invocations: clean
  // components resolve from the store and never reach here, so a warm
  // trace has zero solve spans (CI asserts this).
  telemetry::Span solve_span("solve");
  solve_span.attr("vertices", component.num_vertices())
      .attr("edges", component.num_edges());
  std::vector<std::vector<double>> warm_columns;
  if (warm != nullptr && warm->basis != nullptr)
    warm_columns = remap_basis_rows(*warm->basis, warm->external_ids,
                                    component.num_vertices());
  std::vector<std::vector<double>> fresh_vectors;
  ComponentSolve solve = solve_component_impl(
      component, kind, h, options,
      warm_columns.empty() ? nullptr : &warm_columns,
      warm != nullptr ? &fresh_vectors : nullptr);
  solve_span.attr("converged", solve.converged ? "true" : "false");
  if (solve.warm_started) solve_span.attr("warm", "true");
  solve_span.end();

  struct WarmCounters {
    telemetry::Counter& hits;
    telemetry::Counter& saved;
    telemetry::Counter& iterations;
  };
  static WarmCounters counters{
      telemetry::MetricsRegistry::global().counter("solver.warm_hits"),
      telemetry::MetricsRegistry::global().counter(
          "solver.warm_iterations_saved"),
      telemetry::MetricsRegistry::global().counter("solver.iterations")};
  if (solve.warm_started) {
    counters.hits.increment();
    // An adopted basis names the content it was solved for; one this
    // fingerprint retained itself names its own.
    const std::uint64_t pred = warm->basis->predecessor != 0
                                   ? warm->basis->predecessor
                                   : warm->fingerprint;
    solve.solver_reason = "warm(pred=" + std::to_string(pred) + ")";
    solve.warm_predecessor = pred;
    warm->iterations_saved =
        std::max(0, warm->basis->source_iterations - solve.iterations);
    counters.saved.add(warm->iterations_saved);
  }
  if (solve.iterations > 0) counters.iterations.add(solve.iterations);

  if (warm != nullptr && solve.solver_ran && solve.converged &&
      !fresh_vectors.empty()) {
    Eigenbasis& fresh = warm->retained.emplace();
    fresh.vectors = std::move(fresh_vectors);
    fresh.row_ids.assign(warm->external_ids.begin(), warm->external_ids.end());
    fresh.source_iterations = solve.iterations;
  }
  return solve;
}

SpectrumMerge::SpectrumMerge(int components, std::int64_t vertices, int h,
                             Deadline deadline)
    : h_(static_cast<int>(
          std::clamp<std::int64_t>(h, 0, std::max<std::int64_t>(vertices, 0)))),
      deadline_(deadline) {
  result_.components = std::max(components, 1);
}

int SpectrumMerge::request(std::int64_t vertices) const noexcept {
  return static_cast<int>(std::min<std::int64_t>(h_, vertices));
}

bool SpectrumMerge::add_unsolved(std::int64_t vertices, std::int64_t edges) {
  const bool late = deadline_.expired();
  if (!late && edges != 0) return false;
  ComponentSolve solve;
  solve.vertices = vertices;
  solve.edges = edges;
  solve.values.assign(static_cast<std::size_t>(request(vertices)), 0.0);
  if (late) {
    // Out of budget. Unlike a truncated solve, the zeros cover all h_c
    // positions, so the cutoff rule in finish() must NOT engage.
    solve.skipped = true;
    solve.converged = false;
    solve.solver_reason = "deadline";
    ++result_.skipped_components;
    result_.converged = false;
  }
  pooled_.insert(pooled_.end(), solve.values.begin(), solve.values.end());
  result_.per_component.push_back(std::move(solve));
  return true;
}

bool SpectrumMerge::add(ComponentSolve solve) {
  // Fault seam: force this solve to report non-convergence. The values
  // are genuine, so the certified-cutoff truncation keeps the merge
  // sound; the site only exercises the degraded path.
  const bool tripped = solve.solver_ran && faults::trip("solver.converge");
  if (tripped) {
    solve.converged = false;
    solve.solver_reason = "fault(solver.converge)";
  }
  result_.converged = result_.converged && solve.converged;
  // A non-converged solve's unreturned eigenvalues are all >= its last
  // certified value (both sparse solvers lock in ascending-prefix order),
  // so merged values at or below the smallest such cutoff still satisfy
  // merged[i] <= λ_i of the true union — larger ones might not.
  if (!solve.converged)
    certified_cutoff_ = std::min(
        certified_cutoff_, solve.values.empty() ? 0.0 : solve.values.back());
  if (solve.solver_ran) {
    ++result_.eigensolves;
    result_.solve_seconds += solve.seconds;
  }
  if (solve.from_cache) ++result_.component_cache_hits;
  pooled_.insert(pooled_.end(), solve.values.begin(), solve.values.end());
  result_.per_component.push_back(std::move(solve));
  return !tripped;
}

PipelineResult SpectrumMerge::finish() {
  if (h_ > 0) {
    // One merge over the pooled values — Spectrum::merge semantics with
    // tolerance 0 (the union must stay exact), built in a single
    // O(Ch log(Ch)) pass rather than C incremental merges.
    telemetry::Span merge_span("merge");
    merge_span.attr("components", result_.components);
    result_.values = Spectrum::from_values(pooled_, 0.0).smallest(h_);
    while (!result_.values.empty() &&
           result_.values.back() > certified_cutoff_)
      result_.values.pop_back();
    merge_span.end();
    result_.merge_seconds = merge_span.seconds();
  }
  // Any non-converged contribution means the merge was certified-cut to
  // what the completed solves support: still a valid lower-bound
  // spectrum, but weaker than a full run — surface it as degraded.
  result_.degraded = !result_.converged;
  result_.requested = h_;
  result_.seconds = timer_.seconds();
  return std::move(result_);
}

SpectralPipeline::SpectralPipeline(SpectralOptions options)
    : options_(std::move(options)) {}

PipelineResult SpectralPipeline::run(const Digraph& g, LaplacianKind kind,
                                     int h) const {
  WallTimer timer;
  WeakComponents components;
  if (options_.decompose && h > 0)
    components = weakly_connected_components(g);
  // Connected (or decomposition disabled): solve in place, no subgraph
  // copy — the single component IS the graph, vertex order included.
  const bool whole = components.count <= 1;
  const int parts = whole ? 1 : components.count;
  SpectrumMerge merge(parts, g.num_vertices(), h);
  for (int c = 0; c < parts && merge.h() > 0; ++c) {
    const std::int64_t n =
        whole ? g.num_vertices()
              : static_cast<std::int64_t>(
                    components.vertices[static_cast<std::size_t>(c)].size());
    const std::int64_t edges =
        whole ? g.num_edges() : components.edges_in(g, c);
    if (merge.add_unsolved(n, edges)) continue;
    Digraph sub;
    const Digraph& component = whole ? g : (sub = components.subgraph(g, c));
    merge.add(
        solve_component_spectrum(component, kind, merge.request(n), options_));
  }
  PipelineResult result = merge.finish();
  result.seconds = timer.seconds();
  return result;
}

}  // namespace graphio
