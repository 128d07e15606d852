// BoundReport — the structured result of one Engine evaluation, with
// uniform JSON (io/json) and console-table (support/table) serialization.
// Every CLI command, example, and bench that reports bounds renders one of
// these instead of hand-rolling output.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graphio/audit/provenance.hpp"
#include "graphio/engine/artifact_cache.hpp"
#include "graphio/engine/method.hpp"
#include "graphio/io/json.hpp"
#include "graphio/support/table.hpp"

namespace graphio::engine {

struct BoundReport {
  /// Display name of the analyzed graph (spec text when available).
  std::string graph;
  std::int64_t vertices = 0;
  std::int64_t edges = 0;
  std::int64_t processors = 1;
  std::vector<double> memories;
  /// One row per (method, memory), grouped by method in registry order.
  std::vector<MethodRow> rows;
  /// Artifact reuse during this evaluation (hits/misses/eigensolves are
  /// deltas for this request, not cache lifetime totals).
  ArtifactCache::Stats cache;
  /// Per-result lineage: which spectra this evaluation consumed, the
  /// solver tier each component actually took, and the registry deltas
  /// the claims reconcile against (audit/provenance.hpp). Always
  /// assembled; serialized only on request (`--explain`).
  audit::ProvenanceRecord provenance;
  /// Total wall time of the evaluation.
  double seconds = 0.0;

  /// Rows of one method, in sweep order (empty when not evaluated).
  [[nodiscard]] std::vector<const MethodRow*> rows_for(
      std::string_view method) const;
  /// The row for (method, memory), or nullptr.
  [[nodiscard]] const MethodRow* row(std::string_view method,
                                     double memory) const;

  /// Serializes into an open JSON writer (for embedding in arrays).
  /// With include_timing=false, wall-clock fields (seconds, per-row
  /// seconds) and cache-delta stats are omitted, making the output a pure
  /// function of the analysis — the serve layer streams this form so
  /// result files compare byte-identical across thread counts and
  /// warm/cold store runs. include_provenance adds the lineage record
  /// under "provenance"; it is off by default because tiers legitimately
  /// differ between warm and cold store states, which would break the
  /// deterministic-diff property above.
  void append_json(io::JsonWriter& w, bool include_timing = true,
                   bool include_provenance = false) const;
  /// Complete JSON document.
  [[nodiscard]] std::string to_json() const;
  /// Console table: method | M | kind | bound | detail | conv | seconds.
  [[nodiscard]] Table to_table() const;
};

/// A row's provenance lineage; `source` is "computed" or "store" (served
/// from the serve ResultStore).
audit::RowLineage row_lineage(const MethodRow& row, std::string_view source);

/// The "cache" block of a report or batch summary: ArtifactCache::Stats by
/// its counter table, with its seconds under "phase_seconds" when asked.
void append_cache_json(io::JsonWriter& w, const ArtifactCache::Stats& cache,
                       bool phase_seconds);

/// A JSON array of reports (batch output).
std::string reports_to_json(std::span<const BoundReport> reports);

/// One combined table for a batch: graph | method | M | ... (used by the
/// CLI `compare` command).
Table reports_to_table(std::span<const BoundReport> reports);

}  // namespace graphio::engine
