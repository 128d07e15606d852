#include <algorithm>
#include <cmath>

#include "graphio/core/analytic_bounds.hpp"
#include "graphio/engine/method.hpp"
#include "graphio/exact/pebble_search.hpp"
#include "graphio/support/contracts.hpp"
#include "graphio/support/timer.hpp"

namespace graphio::engine {

std::string_view to_string(BoundKind kind) {
  switch (kind) {
    case BoundKind::kLower: return "lower";
    case BoundKind::kUpper: return "upper";
    case BoundKind::kExact: return "exact";
    case BoundKind::kCertificate: return "certificate";
  }
  return "?";
}

namespace {

MethodRow base_row(const BoundMethod& method, double memory,
                   std::int64_t processors = 1) {
  MethodRow row;
  row.method = std::string(method.id());
  row.memory = memory;
  row.processors = processors;
  row.kind = method.kind();
  return row;
}

std::vector<MethodRow> inapplicable_rows(const BoundMethod& method,
                                         std::span<const double> memories,
                                         const std::string& why,
                                         std::int64_t processors = 1) {
  std::vector<MethodRow> rows;
  rows.reserve(memories.size());
  for (double m : memories) {
    MethodRow row = base_row(method, m, processors);
    row.applicable = false;
    row.note = why;
    rows.push_back(std::move(row));
  }
  return rows;
}

// ---------------------------------------------------------------- spectral

/// Shared Theorem 4/5/6 evaluation: one cached spectrum of h =
/// min(max_eigenvalues, n) values, one cheap max-over-k per memory size.
/// Every method and every M of the request (and later requests on the
/// same graph) reuse a single eigendecomposition per Laplacian kind, and
/// the spectrum is listed in ctx.spectra for the request's provenance.
std::vector<MethodRow> spectral_rows(const BoundMethod& method,
                                     MethodContext& ctx,
                                     std::span<const double> memories,
                                     LaplacianKind kind, double scale,
                                     std::int64_t processors) {
  const std::int64_t n = ctx.cache.num_vertices();
  WallTimer timer;
  const int h = static_cast<int>(std::min<std::int64_t>(
      ctx.request.spectral.max_eigenvalues, n));
  const PipelineResult& spectrum =
      ctx.cache.spectrum(kind, h, ctx.request.spectral, &ctx.spectra,
                         ctx.deadline);

  std::vector<MethodRow> rows;
  rows.reserve(memories.size());
  for (std::size_t i = 0; i < memories.size(); ++i) {
    MethodRow row = base_row(method, memories[i], processors);
    const BoundOverK best = bound_from_spectrum(
        spectrum.values, n, memories[i], processors, scale);
    row.value = best.bound;
    row.best_k = best.best_k;
    row.converged = spectrum.converged;
    row.degraded = spectrum.degraded;
    row.note = "k=" + std::to_string(best.best_k);
    if (spectrum.components > 1)
      row.note += " components=" + std::to_string(spectrum.components);
    row.seconds = i == 0 ? timer.seconds() : 0.0;
    rows.push_back(std::move(row));
  }
  return rows;
}

class SpectralMethod final : public BoundMethod {
 public:
  std::string_view id() const override { return "spectral"; }
  std::string_view summary() const override {
    return "Theorem 4: spectral bound on the normalized Laplacian";
  }
  BoundKind kind() const override { return BoundKind::kLower; }
  std::vector<MethodRow> evaluate(
      MethodContext& ctx, std::span<const double> memories) const override {
    return spectral_rows(*this, ctx, memories,
                         LaplacianKind::kOutDegreeNormalized, 1.0, 1);
  }
};

class SpectralPlainMethod final : public BoundMethod {
 public:
  std::string_view id() const override { return "spectral-plain"; }
  std::string_view summary() const override {
    return "Theorem 5: spectral bound on the plain Laplacian";
  }
  BoundKind kind() const override { return BoundKind::kLower; }
  std::vector<MethodRow> evaluate(
      MethodContext& ctx, std::span<const double> memories) const override {
    const std::int64_t dmax = ctx.cache.max_out_degree();
    if (dmax == 0) {
      // Edgeless graph: the Laplacian is zero and the bound is trivially 0.
      std::vector<MethodRow> rows;
      for (double m : memories) rows.push_back(base_row(*this, m));
      return rows;
    }
    return spectral_rows(*this, ctx, memories, LaplacianKind::kPlain,
                         1.0 / static_cast<double>(dmax), 1);
  }
};

class ParallelMethod final : public BoundMethod {
 public:
  std::string_view id() const override { return "parallel"; }
  std::string_view summary() const override {
    return "Theorem 6: per-processor bound for p processors";
  }
  BoundKind kind() const override { return BoundKind::kLower; }
  std::vector<MethodRow> evaluate(
      MethodContext& ctx, std::span<const double> memories) const override {
    return spectral_rows(*this, ctx, memories,
                         LaplacianKind::kOutDegreeNormalized, 1.0,
                         ctx.request.processors);
  }
};

// ------------------------------------------------------------------ mincut

class MincutMethod final : public BoundMethod {
 public:
  std::string_view id() const override { return "mincut"; }
  std::string_view summary() const override {
    return "convex min-cut baseline (Elango et al.)";
  }
  BoundKind kind() const override { return BoundKind::kLower; }
  std::vector<MethodRow> evaluate(
      MethodContext& ctx, std::span<const double> memories) const override {
    WallTimer timer;
    // The wavefront cuts C(v) are M-independent; one per-component sweep
    // serves the whole memory sweep. Weak components share no wavefront,
    // so the per-component bounds 2*max(0, C_c - M) sum — equal to the
    // classical whole-graph bound on connected graphs and at least as
    // strong on disjoint unions.
    const ArtifactCache::WavefrontArtifact& sweep =
        ctx.cache.max_wavefront_cut(ctx.request.mincut);
    std::vector<MethodRow> rows;
    rows.reserve(memories.size());
    for (std::size_t i = 0; i < memories.size(); ++i) {
      MethodRow row = base_row(*this, memories[i]);
      double total = 0.0;
      for (std::int64_t cut : sweep.cuts)
        total += std::max(0.0, 2.0 * (static_cast<double>(cut) - memories[i]));
      row.value = total;
      row.converged = sweep.completed;
      row.note = "C(v)=" + std::to_string(sweep.best_cut);
      if (sweep.components > 1)
        row.note += " components=" + std::to_string(sweep.components);
      row.seconds = i == 0 ? timer.seconds() : 0.0;
      rows.push_back(std::move(row));
    }
    return rows;
  }
};

// ------------------------------------------------------------ partition-dp

class PartitionDpMethod final : public BoundMethod {
 public:
  std::string_view id() const override { return "partition-dp"; }
  std::string_view summary() const override {
    return "optimal Lemma 1 partition of the natural order (certifies J(X))";
  }
  BoundKind kind() const override { return BoundKind::kCertificate; }
  std::vector<MethodRow> evaluate(
      MethodContext& ctx, std::span<const double> memories) const override {
    // Per-component DP composed by the cache (segment costs are additive
    // across weak components): clean components resolve their objective
    // from the artifact store, so a stream patch re-runs the O(n²) DP on
    // exactly the dirty components — and the lazy graph never
    // materializes. One request is one cache call: a component that
    // misses several memories runs one DP pass for all of them.
    WallTimer timer;
    std::vector<ArtifactCache::PartitionArtifact> artifacts;
    try {
      artifacts = ctx.cache.partition_rows(
          std::vector<double>(memories.begin(), memories.end()));
    } catch (const contract_error&) {
      return inapplicable_rows(*this, memories, "graph is cyclic");
    }
    std::vector<MethodRow> rows;
    rows.reserve(memories.size());
    for (std::size_t i = 0; i < memories.size(); ++i) {
      MethodRow row = base_row(*this, memories[i]);
      row.value = artifacts[i].bound;
      row.best_k = static_cast<int>(artifacts[i].segments);
      row.note = "segments=" + std::to_string(artifacts[i].segments);
      row.seconds = i == 0 ? timer.seconds() : 0.0;
      rows.push_back(std::move(row));
    }
    return rows;
  }
};

// ---------------------------------------------------------------- analytic

class AnalyticMethod final : public BoundMethod {
 public:
  std::string_view id() const override { return "analytic"; }
  std::string_view summary() const override {
    return "Section 5 closed forms (fft / bhk / er families)";
  }
  BoundKind kind() const override { return BoundKind::kLower; }
  std::vector<MethodRow> evaluate(
      MethodContext& ctx, std::span<const double> memories) const override {
    const GraphSpec* spec = ctx.spec;
    if (spec == nullptr)
      return inapplicable_rows(*this, memories,
                               "closed forms need a family spec");
    std::vector<MethodRow> rows;
    rows.reserve(memories.size());
    if (spec->family == "fft") {
      const int l = static_cast<int>(spec->int_param(0));
      for (double m : memories) {
        MethodRow row = base_row(*this, m);
        int alpha = 0;
        row.value = std::max(0.0, analytic::fft_bound_best_alpha(l, m, &alpha));
        row.best_k = alpha;
        row.note = "alpha=" + std::to_string(alpha);
        rows.push_back(std::move(row));
      }
      return rows;
    }
    if (spec->family == "bhk") {
      const int l = static_cast<int>(spec->int_param(0));
      for (double m : memories) {
        MethodRow row = base_row(*this, m);
        int alpha = 0;
        row.value = std::max(0.0, analytic::bhk_bound_best_alpha(l, m, &alpha));
        row.best_k = alpha;
        row.note = "alpha=" + std::to_string(alpha);
        rows.push_back(std::move(row));
      }
      return rows;
    }
    if (spec->family == "er") {
      const std::int64_t n = spec->int_param(0);
      const double p = spec->double_param(1);
      const double p0 =
          n > 1 ? p * static_cast<double>(n - 1) /
                      std::log(static_cast<double>(n))
                : 0.0;
      if (p0 <= 6.0)
        return inapplicable_rows(
            *this, memories,
            "er closed form needs the sparse regime p0 > 6");
      for (double m : memories) {
        MethodRow row = base_row(*this, m);
        row.value = std::max(0.0, analytic::er_sparse_bound(n, p0, m));
        row.best_k = 2;  // the closed form fixes k = 2
        row.note = "p0=" + std::to_string(p0);
        rows.push_back(std::move(row));
      }
      return rows;
    }
    return inapplicable_rows(
        *this, memories, "no closed form for family '" + spec->family + "'");
  }
};

// ------------------------------------------------------------ pebble-exact

class PebbleExactMethod final : public BoundMethod {
 public:
  std::string_view id() const override { return "pebble-exact"; }
  std::string_view summary() const override {
    return "exact J* by state-space search (tiny graphs)";
  }
  BoundKind kind() const override { return BoundKind::kExact; }
  std::vector<MethodRow> evaluate(
      MethodContext& ctx, std::span<const double> memories) const override {
    if (ctx.cache.num_vertices() > exact::kMaxExactVertices)
      return inapplicable_rows(
          *this, memories,
          "graph exceeds " + std::to_string(exact::kMaxExactVertices) +
              " vertices");
    const Digraph& g = ctx.cache.graph();
    std::vector<MethodRow> rows;
    rows.reserve(memories.size());
    for (double m : memories) {
      MethodRow row = base_row(*this, m);
      WallTimer timer;
      try {
        const exact::ExactResult r = exact::exact_optimal_io(
            g, static_cast<std::int64_t>(m), ctx.request.exact);
        row.value = static_cast<double>(r.io);
        row.converged = r.complete;
        row.note = "states=" + std::to_string(r.states_expanded);
        if (!r.complete) {
          row.applicable = false;
          row.note += " (state cap hit)";
        }
      } catch (const contract_error& e) {
        row.applicable = false;
        row.note = e.what();
      }
      row.seconds = timer.seconds();
      rows.push_back(std::move(row));
    }
    return rows;
  }
};

// ---------------------------------------------------------------- memsim

class MemsimMethod final : public BoundMethod {
 public:
  std::string_view id() const override { return "memsim"; }
  std::string_view summary() const override {
    return "best simulated schedule (upper bound on J*)";
  }
  BoundKind kind() const override { return BoundKind::kUpper; }
  std::vector<MethodRow> evaluate(
      MethodContext& ctx, std::span<const double> memories) const override {
    // Whole-graph feasibility; every component's max in-degree is <= it.
    const std::int64_t dmax_in = ctx.cache.max_in_degree();
    std::vector<MethodRow> rows;
    rows.reserve(memories.size());
    std::vector<std::size_t> feasible_rows;
    std::vector<std::int64_t> feasible;
    for (double m : memories) {
      MethodRow row = base_row(*this, m);
      const auto mem = static_cast<std::int64_t>(m);
      if (static_cast<double>(dmax_in) > m || mem < 1) {
        row.applicable = false;
        row.note = "no feasible schedule: max in-degree exceeds M";
      } else {
        feasible_rows.push_back(rows.size());
        feasible.push_back(mem);
      }
      rows.push_back(std::move(row));
    }
    if (feasible.empty()) return rows;
    WallTimer timer;
    try {
      // Per weak component (components share no values, so sequential
      // per-component schedules compose); each row resolves through
      // the artifact store, so only dirty components simulate, each once
      // for all of the request's missed memories.
      const std::vector<ArtifactCache::MemsimArtifact> artifacts =
          ctx.cache.memsim_rows(feasible, ctx.request.sim_random_orders);
      for (std::size_t j = 0; j < feasible_rows.size(); ++j) {
        MethodRow& row = rows[feasible_rows[j]];
        row.value = static_cast<double>(artifacts[j].total());
        row.note = "reads=" + std::to_string(artifacts[j].reads) +
                   " writes=" + std::to_string(artifacts[j].writes);
      }
    } catch (const contract_error& e) {
      for (const std::size_t i : feasible_rows) {
        rows[i].applicable = false;
        rows[i].note = e.what();
      }
    }
    rows[feasible_rows.front()].seconds = timer.seconds();
    return rows;
  }
};

}  // namespace

const std::vector<const BoundMethod*>& methods() {
  static const SpectralMethod spectral;
  static const SpectralPlainMethod spectral_plain;
  static const ParallelMethod parallel;
  static const MincutMethod mincut;
  static const PartitionDpMethod partition_dp;
  static const AnalyticMethod analytic;
  static const PebbleExactMethod pebble_exact;
  static const MemsimMethod memsim;
  static const std::vector<const BoundMethod*> all = {
      &spectral, &spectral_plain, &parallel,     &mincut,
      &partition_dp, &analytic,   &pebble_exact, &memsim};
  return all;
}

const BoundMethod* find_method(std::string_view id) {
  for (const BoundMethod* method : methods())
    if (method->id() == id) return method;
  return nullptr;
}

std::vector<const BoundMethod*> select_methods(const BoundRequest& request) {
  bool all = request.methods.empty();
  for (const std::string& id : request.methods)
    if (id == "all") all = true;
  if (all) return methods();
  std::vector<const BoundMethod*> selected;
  selected.reserve(request.methods.size());
  for (const std::string& id : request.methods) {
    const BoundMethod* method = find_method(id);
    if (method == nullptr) {
      std::string known;
      for (const std::string& known_id : method_ids()) {
        if (!known.empty()) known += "|";
        known += known_id;
      }
      GIO_EXPECTS_MSG(false, "unknown method '" + id + "' (known: " + known +
                                 "|all)");
    }
    selected.push_back(method);
  }
  return selected;
}

std::vector<std::string> method_ids() {
  std::vector<std::string> ids;
  ids.reserve(methods().size());
  for (const BoundMethod* method : methods())
    ids.emplace_back(method->id());
  return ids;
}

}  // namespace graphio::engine
