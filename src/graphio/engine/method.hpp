// The BoundMethod interface and registry: every bound/estimate family in
// the library behind one uniform, string-addressable API.
//
// A method receives the full memory sweep at once so it can share work
// across the sweep (the spectral families reuse one eigendecomposition,
// the min-cut baseline reuses one wavefront sweep); graph-level artifacts
// are shared *across* methods through the request's ArtifactCache.
//
// Registered ids:
//   spectral        Theorem 4 lower bound (normalized Laplacian)
//   spectral-plain  Theorem 5 lower bound (plain Laplacian, 1/dmax)
//   parallel        Theorem 6 lower bound for p processors
//   mincut          convex min-cut baseline (Elango et al.)
//   partition-dp    optimal Lemma 1 partition of the natural order
//   analytic        Section 5 closed forms (fft/bhk/er specs only)
//   pebble-exact    exact J* by state-space search (<= 21 vertices)
//   memsim          best simulated schedule (upper bound)
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "graphio/engine/artifact_cache.hpp"
#include "graphio/engine/graph_spec.hpp"
#include "graphio/engine/request.hpp"

namespace graphio::engine {

/// What a method's value means relative to J*(G).
enum class BoundKind {
  kLower,        ///< value <= J*(G) for any evaluation order
  kUpper,        ///< value >= J*(G) (a realized schedule)
  kExact,        ///< value == J*(G)
  kCertificate,  ///< bounds J(X) of one specific order, not J*(G)
};

std::string_view to_string(BoundKind kind);

/// One evaluated (method, memory) cell of a report.
struct MethodRow {
  std::string method;
  double memory = 0.0;
  std::int64_t processors = 1;
  BoundKind kind = BoundKind::kLower;
  /// False when the method does not apply to this graph/request (value is
  /// then meaningless and `note` says why).
  bool applicable = true;
  double value = 0.0;
  /// Maximizing k (spectral), partition level alpha (analytic), or 0.
  int best_k = 0;
  /// False when an iterative solver stopped early or a sweep was cut off;
  /// the value is still a valid (weaker) bound.
  bool converged = true;
  /// True when the value came from a certified-truncated evaluation (job
  /// deadline or injected fault): sound, but weaker than a full run.
  /// Serialized only when true, so fault-free outputs are byte-identical.
  bool degraded = false;
  double seconds = 0.0;
  /// Free-form detail ("k=12", "C(v)=33", "not a DAG", ...).
  std::string note;
};

/// Everything a method may consult while evaluating one request.
struct MethodContext {
  ArtifactCache& cache;
  const BoundRequest& request;
  /// Family metadata when the request's graph came from (or is named by) a
  /// parseable spec; nullptr otherwise.
  const GraphSpec* spec = nullptr;
  /// The spectra this evaluation used, in first-use order (filled by
  /// ArtifactCache::spectrum) — the provenance layer's list.
  std::vector<ArtifactCache::SpectrumUse> spectra;
  /// The request's deadline_seconds, started when the evaluation began.
  Deadline deadline;
};

class BoundMethod {
 public:
  virtual ~BoundMethod() = default;

  [[nodiscard]] virtual std::string_view id() const = 0;
  [[nodiscard]] virtual std::string_view summary() const = 0;
  [[nodiscard]] virtual BoundKind kind() const = 0;

  /// Evaluates the whole sweep; returns one row per entry of `memories`
  /// (rows for inapplicable requests have applicable=false, never throw).
  [[nodiscard]] virtual std::vector<MethodRow> evaluate(
      MethodContext& ctx, std::span<const double> memories) const = 0;
};

/// All built-in methods, in reporting order. Stable addresses for the
/// lifetime of the process.
const std::vector<const BoundMethod*>& methods();

/// Lookup by id; nullptr when unknown.
const BoundMethod* find_method(std::string_view id);

/// Resolves a request's method ids against the registry — the one shared
/// definition of selection semantics (Engine::evaluate and the serve
/// scheduler must agree, or a request could succeed without a ResultStore
/// and fail with one). An empty list or any "all" entry selects every
/// registered method, in registry order; unknown ids throw contract_error.
std::vector<const BoundMethod*> select_methods(const BoundRequest& request);

/// The ids of methods(), in order.
std::vector<std::string> method_ids();

}  // namespace graphio::engine
