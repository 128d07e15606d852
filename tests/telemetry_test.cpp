#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "graphio/engine/engine.hpp"
#include "graphio/graph/builders.hpp"
#include "graphio/io/json.hpp"
#include "graphio/serve/batch_session.hpp"
#include "graphio/serve/job.hpp"
#include "graphio/serve/result_store.hpp"
#include "graphio/serve/scheduler.hpp"
#include "graphio/store/artifact_store.hpp"
#include "graphio/stream/session.hpp"
#include "graphio/telemetry/metrics.hpp"
#include "graphio/telemetry/trace.hpp"

namespace graphio::telemetry {
namespace {

// ---------------------------------------------------------------- metrics

/// Metric name -> value.
using Values = std::map<std::string, double>;

/// Registry value of every mirrored field of S's counter table, keyed
/// `<prefix><key>`.
template <class S>
Values registry_values(const std::string& prefix) {
  MetricsRegistry& reg = MetricsRegistry::global();
  Values out;
  for (const Field<S>& row : S::fields()) {
    if (!row.mirrored) continue;
    const std::string name = prefix + std::string(row.key);
    if (row.count != nullptr)
      out[name] = static_cast<double>(reg.counter(name).value());
    if (row.gauge != nullptr) out[name] = reg.gauge(name).value();
  }
  return out;
}

/// The instance values of the same fields, under the same names.
template <class S>
Values stats_values(const S& stats, const std::string& prefix) {
  Values out;
  for (const Field<S>& row : S::fields()) {
    if (!row.mirrored) continue;
    const std::string name = prefix + std::string(row.key);
    if (row.count != nullptr)
      out[name] = static_cast<double>(stats.*row.count);
    if (row.gauge != nullptr) out[name] = stats.*row.gauge;
  }
  return out;
}

/// Every instance value equals its registry metric's move since `before`.
void expect_registry_delta(const Values& before, const Values& after,
                           const Values& stats) {
  ASSERT_EQ(after.size(), stats.size());
  for (const auto& [name, value] : stats)
    EXPECT_NEAR(after.at(name) - before.at(name), value, 1e-9) << name;
}

TEST(TelemetryMetricsTest, CounterAndGaugeBasics) {
  MetricsRegistry reg;
  Counter& c = reg.counter("c");
  c.increment();
  c.add(4);
  EXPECT_EQ(c.value(), 5);
  // Same name resolves to the same counter.
  reg.counter("c").increment();
  EXPECT_EQ(c.value(), 6);

  Gauge& g = reg.gauge("g");
  g.set(2.5);
  g.add(0.5);
  EXPECT_DOUBLE_EQ(g.value(), 3.0);
}

// The interpolation is exact for data uniform within each bucket: 1000
// values 1ms..1s in 1ms steps land uniformly in the 1-2-5 latency
// buckets, so p50/p95/p99 come out exactly 0.5/0.95/0.99.
TEST(TelemetryHistogramTest, PercentilesExactOnUniformData) {
  Histogram h(default_latency_bounds());
  for (int i = 1; i <= 1000; ++i) h.observe(0.001 * i);
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 1000);
  EXPECT_NEAR(snap.sum, 500.5, 1e-9);
  EXPECT_NEAR(snap.percentile(0.50), 0.50, 1e-12);
  EXPECT_NEAR(snap.percentile(0.95), 0.95, 1e-12);
  EXPECT_NEAR(snap.percentile(0.99), 0.99, 1e-12);
}

TEST(TelemetryHistogramTest, SnapshotDeltaBracketsARun) {
  Histogram h(default_latency_bounds());
  for (int i = 0; i < 100; ++i) h.observe(0.010);  // pre-existing noise
  const HistogramSnapshot before = h.snapshot();
  for (int i = 0; i < 50; ++i) h.observe(0.100);
  const HistogramSnapshot delta = h.snapshot() - before;
  EXPECT_EQ(delta.count, 50);
  EXPECT_NEAR(delta.sum, 5.0, 1e-9);
  // Every delta observation sits in the (0.05, 0.1] bucket.
  EXPECT_NEAR(delta.percentile(0.99), 0.1, 1e-2);
}

TEST(TelemetryHistogramTest, OverflowBucketClampsToLastBound) {
  Histogram h(std::vector<double>{1.0, 2.0});
  h.observe(100.0);
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 1);
  EXPECT_DOUBLE_EQ(snap.percentile(0.5), 2.0);
}

TEST(TelemetryMetricsTest, RegistryJsonParses) {
  MetricsRegistry reg;
  reg.counter("a.events").add(3);
  reg.gauge("a.level").set(1.25);
  reg.histogram("a.seconds").observe(0.002);
  const std::string json = reg.to_json();
  const io::JsonValue doc = io::JsonValue::parse(json);
  EXPECT_EQ(doc.at("counters").at("a.events").as_int(), 3);
  EXPECT_DOUBLE_EQ(doc.at("gauges").at("a.level").as_double(), 1.25);
  EXPECT_EQ(doc.at("histograms").at("a.seconds").at("count").as_int(), 1);
}

TEST(TelemetryMetricsTest, PrometheusExpositionFormat) {
  MetricsRegistry reg;
  reg.counter("solver.warm_hits").add(3);
  reg.gauge("queue.depth").set(1.5);
  reg.histogram("job.seconds", {0.01, 0.1}).observe(0.002);
  reg.histogram("job.seconds").observe(0.05);
  reg.histogram("job.seconds").observe(5.0);  // overflow bucket
  const std::string text = reg.to_prometheus();

  // Counters get the graphio_ prefix, sanitized names, and _total.
  EXPECT_NE(text.find("# TYPE graphio_solver_warm_hits_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("graphio_solver_warm_hits_total 3"),
            std::string::npos);
  EXPECT_NE(text.find("graphio_queue_depth 1.5"), std::string::npos);
  // Histogram buckets are CUMULATIVE and end at +Inf == count.
  EXPECT_NE(text.find("graphio_job_seconds_bucket{le=\"0.01\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("graphio_job_seconds_bucket{le=\"0.1\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("graphio_job_seconds_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("graphio_job_seconds_count 3"), std::string::npos);
  // Every non-comment line is "name[{labels}] value".
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    EXPECT_NE(line.find(' '), std::string::npos) << line;
    EXPECT_EQ(line.rfind("graphio_", 0), 0u) << line;
  }
}

// ------------------------------------------------------------------ spans

TEST(TelemetryTraceTest, SpanNestingRecordsParentLinks) {
  Tracer tracer;
  tracer.enable();
  {
    Span outer("outer", tracer);
    outer.attr("k", "v");
    {
      Span inner("inner", tracer);
      inner.attr("n", 7);
    }
  }
  tracer.disable();
  const std::vector<SpanRecord> records = tracer.snapshot();
  ASSERT_EQ(records.size(), 2u);
  // Children end (and record) before their parents.
  EXPECT_EQ(records[0].name, "inner");
  EXPECT_EQ(records[1].name, "outer");
  EXPECT_EQ(records[0].parent, records[1].id);
  EXPECT_EQ(records[1].parent, 0u);
  EXPECT_EQ(records[0].tid, records[1].tid);
  EXPECT_GE(records[0].start_us, records[1].start_us);
  ASSERT_EQ(records[0].attrs.size(), 1u);
  EXPECT_EQ(records[0].attrs[0].key, "n");
  EXPECT_EQ(records[0].attrs[0].int_value, 7);
}

TEST(TelemetryTraceTest, DisabledTracerRecordsNothingButTimes) {
  Tracer tracer;  // never enabled
  Span span("quiet", tracer);
  span.attr("ignored", 1);
  span.end();
  EXPECT_GE(span.seconds(), 0.0);
  EXPECT_FALSE(span.recording());
  EXPECT_TRUE(tracer.snapshot().empty());
}

TEST(TelemetryTraceTest, SpanSecondsFreezesAtEnd) {
  Tracer tracer;
  Span span("t", tracer);
  span.end();
  const double first = span.seconds();
  const double second = span.seconds();
  EXPECT_DOUBLE_EQ(first, second);
}

TEST(TelemetryTraceTest, RingBufferDropsOldestAndCounts) {
  Tracer tracer;
  tracer.enable(/*capacity=*/4);
  for (int i = 0; i < 10; ++i) Span(std::to_string(i), tracer).end();
  tracer.disable();
  const std::vector<SpanRecord> records = tracer.snapshot();
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records.front().name, "6");  // oldest surviving
  EXPECT_EQ(records.back().name, "9");
  EXPECT_EQ(tracer.dropped(), 6u);
}

TEST(TelemetryTraceTest, ChromeExportRoundTrips) {
  Tracer tracer;
  tracer.enable();
  {
    Span outer("phase", tracer);
    outer.attr("graph", "fft:4").attr("items", 3).attr("ratio", 0.5);
    tracer.instant("marker", {Attr::str("kind", "spectrum")});
  }
  tracer.disable();

  std::ostringstream chrome;
  tracer.export_chrome(chrome);
  // Valid JSON first.
  const io::JsonValue doc = io::JsonValue::parse(chrome.str());
  ASSERT_TRUE(doc.get("traceEvents") != nullptr);
  EXPECT_EQ(doc.at("traceEvents").items().size(), 2u);

  // And parse_trace recovers the records.
  const std::vector<SpanRecord> records = parse_trace(chrome.str());
  ASSERT_EQ(records.size(), 2u);
  int spans = 0;
  int instants = 0;
  for (const SpanRecord& r : records) {
    if (r.instant()) {
      ++instants;
      EXPECT_EQ(r.name, "marker");
    } else {
      ++spans;
      EXPECT_EQ(r.name, "phase");
      ASSERT_EQ(r.attrs.size(), 3u);
      EXPECT_EQ(r.attrs[0].string_value, "fft:4");
      EXPECT_EQ(r.attrs[1].int_value, 3);
      EXPECT_DOUBLE_EQ(r.attrs[2].double_value, 0.5);
    }
  }
  EXPECT_EQ(spans, 1);
  EXPECT_EQ(instants, 1);
}

TEST(TelemetryTraceTest, JsonlExportRoundTrips) {
  Tracer tracer;
  tracer.enable();
  {
    Span a("a", tracer);
    Span b("b", tracer);
  }
  tracer.disable();
  std::ostringstream jsonl;
  tracer.export_jsonl(jsonl);
  const std::vector<SpanRecord> records = parse_trace(jsonl.str());
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].name, "b");
  EXPECT_EQ(records[1].name, "a");
  EXPECT_EQ(records[0].parent, records[1].id);
}

TEST(TelemetryTraceTest, DropCountsSurviveExportRoundTrip) {
  Tracer tracer;
  tracer.enable(/*capacity=*/4);
  for (int i = 0; i < 10; ++i) Span(std::to_string(i), tracer).end();
  tracer.disable();
  ASSERT_EQ(tracer.dropped(), 6u);

  // Both export formats carry the drop count, and parse_trace recovers
  // it so `trace summarize` can warn that its totals undercount.
  std::ostringstream chrome;
  tracer.export_chrome(chrome);
  std::int64_t dropped = -1;
  std::vector<SpanRecord> records = parse_trace(chrome.str(), &dropped);
  EXPECT_EQ(dropped, 6);
  EXPECT_EQ(records.size(), 4u);

  std::ostringstream jsonl;
  tracer.export_jsonl(jsonl);
  dropped = -1;
  records = parse_trace(jsonl.str(), &dropped);
  EXPECT_EQ(dropped, 6);
  EXPECT_EQ(records.size(), 4u);

  // A clean trace exports byte-identically to the pre-drop format: no
  // meta line, and the out-param comes back zero.
  Tracer clean;
  clean.enable();
  Span("first", clean).end();
  Span("second", clean).end();
  clean.disable();
  std::ostringstream clean_jsonl;
  clean.export_jsonl(clean_jsonl);
  EXPECT_EQ(clean_jsonl.str().find("trace_meta"), std::string::npos);
  dropped = -1;
  records = parse_trace(clean_jsonl.str(), &dropped);
  EXPECT_EQ(dropped, 0);
  EXPECT_EQ(records.size(), 2u);
}

TEST(TelemetryTraceTest, SummarizeComputesSelfTime) {
  // Hand-built tree: parent (100us) with two children (30us + 20us),
  // plus an unrelated root (10us). Self time subtracts direct children.
  std::vector<SpanRecord> records;
  SpanRecord parent;
  parent.name = "parent";
  parent.id = 1;
  parent.start_us = 0;
  parent.dur_us = 100;
  SpanRecord c1;
  c1.name = "child";
  c1.id = 2;
  c1.parent = 1;
  c1.start_us = 10;
  c1.dur_us = 30;
  SpanRecord c2 = c1;
  c2.id = 3;
  c2.start_us = 50;
  c2.dur_us = 20;
  SpanRecord other;
  other.name = "other";
  other.id = 4;
  other.start_us = 200;
  other.dur_us = 10;
  records = {parent, c1, c2, other};

  const TraceSummary summary = summarize_records(records);
  EXPECT_EQ(summary.spans, 4);
  ASSERT_EQ(summary.rows.size(), 3u);
  // Rows sorted by self time descending: parent 50, child 50... child's
  // aggregate self is 30+20=50 == parent's; order between equals is by
  // appearance, so just look rows up by name.
  double parent_self = -1;
  double child_self = -1;
  double child_total = -1;
  for (const SpanAggregate& row : summary.rows) {
    if (row.name == "parent") parent_self = row.self_us;
    if (row.name == "child") {
      child_self = row.self_us;
      child_total = row.total_us;
    }
  }
  EXPECT_DOUBLE_EQ(parent_self, 50.0);
  EXPECT_DOUBLE_EQ(child_self, 50.0);
  EXPECT_DOUBLE_EQ(child_total, 50.0);

  // The renderers accept the summary.
  EXPECT_FALSE(summary_table(summary).empty());
  const io::JsonValue doc = io::JsonValue::parse(summary_json(summary));
  EXPECT_EQ(doc.at("spans").as_int(), 4);
}

// ----------------------------------------------------- instrumented layers

// Engine artifact activity must mirror into the registry 1:1: for every
// mirrored row of the cache's counter table, the Engine's totals equal the
// registry delta.
TEST(TelemetryIntegrationTest, CacheStatsEqualRegistryDelta) {
  using Stats = engine::ArtifactCache::Stats;
  const Values before = registry_values<Stats>("cache.");

  // Two equal components and every method over two memories: each counter
  // of the table moves (hits, component hits, extractions, every kind of
  // per-component compute).
  engine::Engine eng;
  engine::BoundRequest req;
  req.spec = "multi:2:fft:3";
  req.memories = {4, 8};
  req.methods = {"all"};
  (void)eng.evaluate(req);
  const Stats stats = eng.stats();

  expect_registry_delta(before, registry_values<Stats>("cache."),
                        stats_values(stats, "cache."));
  for (const Field<Stats>& row : Stats::fields())
    if (row.mirrored && row.count != nullptr)
      EXPECT_GT(stats.*row.count, 0) << row.key;
}

// Every computing min-cut sweep reports its flows and pruned vertices on
// the `mincut` span and in the registry; together with the childless
// vertices they settle the whole component.
TEST(TelemetryIntegrationTest, MincutSweepCountsFlowsAndPruned) {
  MetricsRegistry& reg = MetricsRegistry::global();
  const std::int64_t flows_before = reg.counter("mincut.flows").value();
  const std::int64_t pruned_before = reg.counter("mincut.pruned").value();
  const std::int64_t sweeps_before =
      reg.counter("cache.mincut_sweeps").value();
  Tracer& tracer = Tracer::global();
  tracer.enable();
  engine::Engine eng;
  engine::BoundRequest req;
  req.spec = "fft:5";
  req.memories = {4};
  req.methods = {"mincut"};
  (void)eng.evaluate(req);
  tracer.disable();

  std::int64_t span_flows = 0;
  std::int64_t span_pruned = 0;
  int sweeps = 0;
  for (const SpanRecord& r : tracer.snapshot()) {
    if (r.name != "mincut") continue;
    ++sweeps;
    for (const auto& a : r.attrs) {
      if (a.key == "flows") span_flows += a.int_value;
      if (a.key == "pruned") span_pruned += a.int_value;
    }
  }
  tracer.clear();
  EXPECT_EQ(sweeps, 1);
  EXPECT_EQ(reg.counter("cache.mincut_sweeps").value() - sweeps_before, 1);
  EXPECT_EQ(reg.counter("mincut.flows").value() - flows_before, span_flows);
  EXPECT_EQ(reg.counter("mincut.pruned").value() - pruned_before,
            span_pruned);
  const Digraph g = builders::fft(5);
  EXPECT_GE(span_flows, 1);
  EXPECT_GT(span_pruned, 0);
  EXPECT_EQ(span_flows + span_pruned +
                static_cast<std::int64_t>(g.sinks().size()),
            g.num_vertices());
}

// Reinstalling a graph under the same name (what every stream patch does)
// used to zero the per-graph cache Stats; lifetime Engine totals must be
// monotone across reinstalls.
TEST(TelemetryIntegrationTest, EngineStatsSurviveGraphReinstall) {
  stream::StreamSession session("telemetry_g");
  session.load("fft:4");
  engine::BoundRequest req;
  req.memories = {8};
  req.methods = {"spectral"};
  (void)session.evaluate(req);
  const engine::ArtifactCache::Stats before = session.engine().stats();
  EXPECT_GT(before.eigensolves, 0);

  // Patch zero: reload replaces the installed graph outright.
  session.load("fft:4");
  const engine::ArtifactCache::Stats after = session.engine().stats();
  EXPECT_GE(after.eigensolves, before.eigensolves);
  EXPECT_GE(after.misses, before.misses);

  (void)session.evaluate(req);
  const engine::ArtifactCache::Stats final_stats = session.engine().stats();
  EXPECT_GT(final_stats.eigensolves, 0);
  EXPECT_GE(final_stats.misses, after.misses);
}

// Span nesting stays consistent when the multi-threaded Scheduler runs
// jobs concurrently (this test is part of the TSan suite).
TEST(TelemetryIntegrationTest, SchedulerEmitsJobSpansAcrossThreads) {
  Tracer& tracer = Tracer::global();
  tracer.enable();

  serve::SchedulerOptions options;
  options.threads = 4;
  serve::Scheduler scheduler(options);
  std::vector<serve::Job> jobs;
  const char* specs[] = {"fft:3", "fft:4", "grid:3:3", "path:16",
                         "tree:3", "inner:4"};
  for (int i = 0; i < 12; ++i) {
    serve::Job job;
    job.id = i + 1;
    job.request.spec = specs[i % 6];
    job.request.memories = {4};
    job.request.methods = {"mincut"};
    jobs.push_back(std::move(job));
  }
  int results = 0;
  scheduler.run(std::move(jobs), [&](const serve::JobResult& result) {
    EXPECT_TRUE(result.ok) << result.error;
    ++results;
  });
  tracer.disable();
  EXPECT_EQ(results, 12);

  const std::vector<SpanRecord> records = tracer.snapshot();
  int job_spans = 0;
  std::set<std::uint64_t> job_ids;
  for (const SpanRecord& r : records) {
    if (r.name != "serve.job") continue;
    ++job_spans;
    EXPECT_EQ(r.parent, 0u);  // scheduler jobs are root spans
    job_ids.insert(r.id);
  }
  EXPECT_EQ(job_spans, 12);
  EXPECT_EQ(job_ids.size(), 12u);  // ids are process-unique
  // Every non-root span's parent ran on the same thread.
  for (const SpanRecord& r : records) {
    if (r.parent == 0) continue;
    for (const SpanRecord& p : records)
      if (p.id == r.parent) EXPECT_EQ(p.tid, r.tid);
  }
  tracer.clear();
}

// BatchSummary latency distribution: count covers every job, p99 comes
// from the registry histogram delta, and the JSON footer carries both.
TEST(TelemetryIntegrationTest, BatchSummaryCarriesLatencyHistogram) {
  serve::BatchSession session(serve::BatchOptions{.threads = 2});
  std::istringstream jobs(
      "{\"spec\": \"fft:3\", \"memories\": [4], \"methods\": [\"mincut\"]}\n"
      "{\"spec\": \"fft:4\", \"memories\": [4], \"methods\": [\"mincut\"]}\n"
      "{\"spec\": \"grid:3:3\", \"memories\": [4], \"methods\": "
      "[\"mincut\"]}\n");
  std::ostringstream out;
  const serve::BatchSummary summary = session.run(jobs, out);
  EXPECT_EQ(summary.ok, 3);
  EXPECT_EQ(summary.latency.count, 3);
  // p99 interpolates within the histogram bucket holding rank 0.99*count
  // (it need not dominate the exact rank-based p50 when every sample
  // shares one bucket); it is positive whenever any job ran.
  EXPECT_GT(summary.p99_seconds, 0.0);

  const io::JsonValue doc = io::JsonValue::parse(summary.to_json());
  EXPECT_EQ(doc.at("latency").at("count").as_int(), 3);
  EXPECT_TRUE(doc.get("p99_seconds") != nullptr);
  std::int64_t bucket_total = 0;
  for (const io::JsonValue& bucket : doc.at("latency").at("buckets").items())
    bucket_total += bucket.at("count").as_int();
  EXPECT_EQ(bucket_total, 3);
}

// Stream sessions mirror their Stats into stream.* registry counters.
TEST(TelemetryIntegrationTest, StreamStatsEqualRegistryDelta) {
  using Stats = stream::StreamSession::Stats;
  const Values before = registry_values<Stats>("stream.");

  stream::StreamSession session("telemetry_s");
  session.load("fft:3");
  engine::BoundRequest req;
  req.memories = {4};
  req.methods = {"mincut"};
  (void)session.evaluate(req);
  // A new isolated vertex: one dirty component beside a clean one.
  stream::Patch grow;
  grow.mutations.push_back(stream::Mutation::add_vertex());
  session.apply(grow);
  // Cutting an edge retires the queried fft:3 content: its store entries
  // are evicted.
  const Digraph g = session.graph();
  const VertexId u = 0;
  const VertexId v = g.children(u).front();
  stream::Patch cut;
  cut.mutations.push_back(stream::Mutation::remove_edge(u, v));
  session.apply(cut);
  (void)session.evaluate(req);

  const Stats stats = session.stats();
  expect_registry_delta(before, registry_values<Stats>("stream."),
                        stats_values(stats, "stream."));
  EXPECT_EQ(stats.patches, 3);  // load counts as patch zero
  EXPECT_EQ(stats.queries, 2);
  for (const Field<Stats>& row : Stats::fields())
    EXPECT_GT(stats.*row.count, 0) << row.key;
}

// Artifact store lookups, evictions and disk-tier events mirror into
// store.<kind>.* and store.disk.*: summed over a writing and a reloading
// instance, every field equals its registry delta.
TEST(TelemetryIntegrationTest, ArtifactStoreStatsEqualRegistryDelta) {
  using Stats = store::ArtifactStore::Stats;
  using KindStats = store::ArtifactStore::KindStats;
  const std::vector<std::string> kinds = {"spectrum", "topo",      "mincut",
                                          "memsim",   "partition", "eigenbasis"};
  const auto snapshot = [&kinds] {
    Values out = registry_values<Stats>("store.disk.");
    for (const std::string& kind : kinds)
      out.merge(registry_values<KindStats>("store." + kind + "."));
    return out;
  };
  const auto instance = [&](const Stats& s) {
    Values out = stats_values(s, "store.disk.");
    // Stats::kinds is indexed by ArtifactKind, in the order of `kinds`.
    for (std::size_t k = 0; k < kinds.size(); ++k)
      out.merge(stats_values(s.kinds[k], "store." + kinds[k] + "."));
    return out;
  };
  const Values before = snapshot();

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "graphio_telemetry_store";
  std::filesystem::remove_all(dir);
  constexpr std::uint64_t kFp = 0x5eed;
  constexpr LaplacianKind kLap = LaplacianKind::kOutDegreeNormalized;
  const SpectralOptions options;
  ComponentSolve solve;
  solve.vertices = 2;
  solve.edges = 1;
  solve.converged = true;
  solve.values = {0.0, 1.0};
  Eigenbasis basis;
  basis.vectors = {{1.0, 0.0}};
  Values written;
  {
    // Every kind misses, is stored (persistable kinds append), hits, and
    // is evicted by erase().
    store::ArtifactStore a(dir);
    a.set_eigenbasis_budget(std::int64_t{1} << 20);
    EXPECT_FALSE(a.lookup_spectrum(kFp, kLap, 2, options));
    EXPECT_FALSE(a.lookup<store::ArtifactKind::kTopoOrder>({kFp}));
    EXPECT_FALSE(a.lookup<store::ArtifactKind::kMincutSweep>({kFp}));
    EXPECT_FALSE(a.lookup<store::ArtifactKind::kMemsimRow>({kFp, 4, 1}));
    EXPECT_FALSE(a.lookup<store::ArtifactKind::kPartitionRow>({kFp, 4.0}));
    EXPECT_FALSE(a.lookup_eigenbasis(kFp, kLap));
    a.store_spectrum(kFp, kLap, 2, options, solve);
    a.insert<store::ArtifactKind::kTopoOrder>({kFp}, {{0, 1}});
    a.insert<store::ArtifactKind::kMincutSweep>({kFp}, {1, 0, 2, true});
    a.insert<store::ArtifactKind::kMemsimRow>({kFp, 4, 1}, {3, 2});
    a.insert<store::ArtifactKind::kPartitionRow>({kFp, 4.0}, {-1.0, 1});
    a.store_eigenbasis(kFp, kLap, basis);
    EXPECT_TRUE(a.lookup_spectrum(kFp, kLap, 2, options));
    EXPECT_TRUE(a.lookup<store::ArtifactKind::kTopoOrder>({kFp}));
    EXPECT_TRUE(a.lookup<store::ArtifactKind::kMincutSweep>({kFp}));
    EXPECT_TRUE(a.lookup<store::ArtifactKind::kMemsimRow>({kFp, 4, 1}));
    EXPECT_TRUE(a.lookup<store::ArtifactKind::kPartitionRow>({kFp, 4.0}));
    EXPECT_TRUE(a.lookup_eigenbasis(kFp, kLap));
    EXPECT_EQ(a.erase(kFp), 6);
    written = instance(a.stats());
  }
  // A torn line beside the appended ones: the restart loads and skips.
  std::ofstream(dir / "artifacts.jsonl", std::ios::app) << "{not json\n";
  const store::ArtifactStore b(dir);
  const Values reloaded = instance(b.stats());
  std::filesystem::remove_all(dir);

  Values total = written;
  for (const auto& [name, value] : reloaded) total[name] += value;
  expect_registry_delta(before, snapshot(), total);
  for (const auto& [name, value] : total) EXPECT_GT(value, 0) << name;
}

// Result store lookups and disk-tier events mirror into result_store.*.
TEST(TelemetryIntegrationTest, ResultStoreStatsEqualRegistryDelta) {
  using Stats = serve::ResultStore::Stats;
  const Values before = registry_values<Stats>("result_store.");

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "graphio_telemetry_results";
  std::filesystem::remove_all(dir);
  serve::ResultStore::Key key;
  key.graph_fingerprint = 0x5eed;
  key.method = "mincut";
  key.memory = 4.0;
  engine::MethodRow row;
  row.method = key.method;
  row.memory = key.memory;
  row.value = 2.0;
  Values total;
  {
    serve::ResultStore a(dir);
    EXPECT_FALSE(a.lookup(key).has_value());
    a.insert(key, row);
    EXPECT_TRUE(a.lookup(key).has_value());
    total = stats_values(a.stats(), "result_store.");
  }
  std::ofstream(dir / "results.jsonl", std::ios::app) << "{not json\n";
  {
    serve::ResultStore b(dir);
    EXPECT_TRUE(b.lookup(key).has_value());
    for (const auto& [name, value] : stats_values(b.stats(), "result_store."))
      total[name] += value;
  }
  std::filesystem::remove_all(dir);

  expect_registry_delta(before, registry_values<Stats>("result_store."),
                        total);
  for (const auto& [name, value] : total) EXPECT_GT(value, 0) << name;
}

}  // namespace
}  // namespace graphio::telemetry
