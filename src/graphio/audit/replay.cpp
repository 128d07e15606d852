#include "graphio/audit/replay.hpp"

#include <istream>
#include <map>
#include <sstream>
#include <utility>

#include "graphio/support/table.hpp"

namespace graphio::audit {

namespace {

/// Runs `jobs` through a fresh single-lane BatchSession with provenance
/// attached: one result line per job line, in order, carrying its "job".
std::stringstream serve_fresh(std::istream& jobs, std::int64_t warm_basis_mb) {
  serve::BatchOptions options;
  options.threads = 1;
  options.warm_basis_mb = warm_basis_mb;
  options.explain = true;
  std::stringstream out;
  (void)serve::BatchSession(options).serve(jobs, out);
  return out;
}

void mismatch(ReplayReport& report, std::string message,
              std::int64_t count = 1) {
  report.messages.push_back(std::move(message));
  report.mismatches += count;
}

void check(ReplayReport& report, const ProvenanceRecord& record,
           std::int64_t record_no, const char* which) {
  for (const std::string& issue : check_record(record)) {
    report.messages.push_back("record " + std::to_string(record_no) + " (" +
                              which + "): " + issue);
    ++report.issues;
  }
}

/// Compares a fresh record with the recorded record it replays, row by
/// row, then checks the fresh record's own consistency.
void verify(ReplayReport& report, const ProvenanceRecord& recorded,
            std::int64_t record_no, const ProvenanceRecord& fresh) {
  ++report.replayed;
  const std::string who =
      "record " + std::to_string(record_no) + " ('" + recorded.graph + "'): ";
  const bool same_rows = recorded.rows.size() == fresh.rows.size();
  if (!same_rows)
    mismatch(report, who + "replay produced " +
                         std::to_string(fresh.rows.size()) + " rows, recorded " +
                         std::to_string(recorded.rows.size()));
  for (std::size_t r = 0; same_rows && r < recorded.rows.size(); ++r) {
    const RowLineage& want = recorded.rows[r];
    const RowLineage& got = fresh.rows[r];
    const std::string where = who + "row " + std::to_string(r + 1) + " (" +
                              want.method + ", M=" +
                              format_double(want.memory, 0) + ") ";
    const auto flag = [&](const std::string& what) {
      mismatch(report, where + what);
    };
    if (want.method != got.method || want.memory != got.memory) {
      flag("replayed as (" + got.method + ", M=" +
           format_double(got.memory, 0) + ")");
    } else if (want.applicable != got.applicable) {
      flag("applicability changed on replay");
    } else if (want.applicable && want.degraded) {
      // A deadline- or fault-degraded bound is sound but weaker than a full
      // evaluation: the fresh bound must dominate it, not equal it.
      if (want.bound > got.bound)
        flag("degraded bound " + format_double(want.bound, 12) +
             " exceeds fresh bound " + format_double(got.bound, 12));
    } else if (want.applicable) {
      if (want.bound != got.bound)  // bit-identical, not approximate
        flag("bound " + format_double(got.bound, 12) + " != recorded " +
             format_double(want.bound, 12));
      if (want.best_k != got.best_k)
        flag("best_k " + std::to_string(got.best_k) + " != recorded " +
             std::to_string(want.best_k));
      if (want.converged != got.converged)
        flag("convergence changed on replay");
    }
  }
  check(report, fresh, record_no, "replayed");
}

}  // namespace

ReplayReport replay(const std::vector<ProvenanceRecord>& records,
                    std::istream* updates, std::int64_t warm_basis_mb) {
  ReplayReport report;
  report.records = static_cast<std::int64_t>(records.size());
  for (std::size_t i = 0; i < records.size(); ++i)
    check(report, records[i], static_cast<std::int64_t>(i) + 1, "recorded");

  // Bound records replay their recorded request lines, in record order.
  std::stringstream requests;
  for (const ProvenanceRecord& record : records)
    if (record.kind != "stream") requests << record.request << '\n';
  std::stringstream bound = serve_fresh(requests, 0);
  std::map<std::string, std::vector<std::int64_t>> stream_records;
  std::string line;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const ProvenanceRecord& record = records[i];
    const auto record_no = static_cast<std::int64_t>(i) + 1;
    if (record.kind == "stream") {
      stream_records[record.graph].push_back(record_no);
    } else if (record.request.empty()) {  // a blank job line: no result
      mismatch(report, "record " + std::to_string(record_no) +
                           " carries no request — cannot replay");
    } else {
      std::getline(bound, line);
      const io::JsonValue result = io::JsonValue::parse(line);
      if (const io::JsonValue* error = result.get("error"))
        mismatch(report, "record " + std::to_string(record_no) + " ('" +
                             record.graph + "'): replay failed: " +
                             error->at("message").as_string());
      else
        verify(report, record, record_no,
               parse_record(result.at("report").at("provenance")));
    }
  }

  // Stream records: the mutations matter, not just the final queries, so
  // they replay by re-running the updates file in order.
  std::stringstream stream;
  if (updates != nullptr && !stream_records.empty())
    stream = serve_fresh(*updates, warm_basis_mb);
  std::map<std::string, std::size_t> queried;
  while (std::getline(stream, line)) {
    const io::JsonValue result = io::JsonValue::parse(line);
    const std::string line_no = std::to_string(result.at("job").as_int());
    if (const io::JsonValue* error = result.get("error"))
      mismatch(report, "updates file line " + line_no +
                           " failed on replay: " +
                           error->at("message").as_string());
    const io::JsonValue* fresh_report = result.get("report");
    if (fresh_report == nullptr) continue;  // a failure, load or patch
    const ProvenanceRecord fresh = parse_record(fresh_report->at("provenance"));
    if (fresh.kind != "stream") continue;  // bound jobs replay via records
    const std::vector<std::int64_t>& queue = stream_records[fresh.graph];
    std::size_t& next = queried[fresh.graph];
    if (next < queue.size()) {
      const std::int64_t record_no = queue[next++];
      verify(report, records[static_cast<std::size_t>(record_no - 1)],
             record_no, fresh);
    } else {
      mismatch(report, "updates file line " + line_no + " queries '" +
                           fresh.graph + "' beyond the recorded trail");
    }
  }
  std::int64_t pending = 0;
  for (const auto& [name, queue] : stream_records) {
    const auto missing =
        static_cast<std::int64_t>(queue.size() - queried[name]);
    if (updates == nullptr)
      pending += missing;
    else if (missing > 0)
      mismatch(report, std::to_string(missing) + " recorded quer(ies) for '" +
                           name + "' never replayed by the updates file",
               missing);
  }
  if (pending > 0)
    mismatch(report, std::to_string(pending) + " stream record(s) need the "
             "updates file to replay: graphio audit DIR updates.jsonl",
             pending);
  return report;
}

}  // namespace graphio::audit
