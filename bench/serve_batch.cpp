// serve_batch — throughput and latency of the graphio::serve subsystem.
//
// Fans a mixed fft/bhk/matmul job corpus (4 methods × 4 memory sizes per
// request) through serve::BatchSession at increasing thread counts, then
// measures the persistent-store effect (cold write pass vs warm read
// pass). Emits the perf trajectory as machine-readable BENCH_serve.json
// alongside the usual console table / CSV:
//
//   {"bench": "serve_batch", "jobs": 200,
//    "threads": [{"threads": 1, "seconds": …, "throughput": …,
//                 "p50_seconds": …, "p95_seconds": …, "speedup": …}, …],
//    "store": {"cold_seconds": …, "warm_seconds": …,
//              "warm_hit_rate": 1, "warm_eigensolves": 0}}
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "graphio/serve/batch_session.hpp"
#include "graphio/serve/job.hpp"

namespace {

using namespace graphio;

std::string make_jobs(int count) {
  // Mixed corpus per the serve design target: fft/bhk/matmul specs, four
  // methods, four memory sizes per request; the memory window shifts with
  // the request index so repeated specs still sweep distinct M.
  const std::vector<std::string> specs = {
      "fft:4",    "fft:5",    "fft:6",    "bhk:5",
      "bhk:6",    "bhk:7",    "matmul:3", "matmul:4",
      "matmul:5", "matmul:6",
  };
  std::ostringstream jobs;
  for (int i = 0; i < count; ++i) {
    engine::BoundRequest request;
    request.spec = specs[static_cast<std::size_t>(i) % specs.size()];
    const int shift = (i / static_cast<int>(specs.size())) % 3;
    for (int m = 0; m < 4; ++m)
      request.memories.push_back(static_cast<double>(4L << (m + shift)));
    request.methods = {"spectral", "spectral-plain", "partition-dp",
                      "memsim"};
    jobs << serve::request_to_json_line(request) << '\n';
  }
  return jobs.str();
}

struct NullBuffer : std::streambuf {
  int overflow(int c) override { return c; }
};

serve::BatchSummary run_batch(const std::string& jobs,
                              const serve::BatchOptions& options) {
  serve::BatchSession session(options);
  std::istringstream in(jobs);
  NullBuffer null_buffer;
  std::ostream null_stream(&null_buffer);
  return session.run(in, null_stream);
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::BenchArgs::parse(argc, argv);
  bench::print_header("serve batch throughput",
                      "serve subsystem (no paper figure)", args);

  int jobs_count = 200;
  std::vector<int> thread_counts = {1, 2, 4, 8};
  if (args.scale == bench::BenchScale::kQuick) {
    jobs_count = 24;
    thread_counts = {1, 2};
  } else if (args.scale == bench::BenchScale::kPaper) {
    jobs_count = 1000;
    thread_counts = {1, 2, 4, 8, 16};
  }
  const std::string jobs = make_jobs(jobs_count);

  Table table({"threads", "seconds", "jobs/s", "p50 ms", "p95 ms",
               "speedup", "steals"});
  std::vector<serve::BatchSummary> series;
  double serial_seconds = 0.0;
  for (const int threads : thread_counts) {
    serve::BatchOptions options;
    options.threads = threads;
    const serve::BatchSummary summary = run_batch(jobs, options);
    if (threads == 1) serial_seconds = summary.seconds;
    series.push_back(summary);
    table.add_row({std::to_string(threads),
                   format_double(summary.seconds, 3),
                   format_double(summary.throughput, 1),
                   format_double(summary.p50_seconds * 1e3, 2),
                   format_double(summary.p95_seconds * 1e3, 2),
                   format_double(summary.seconds > 0.0
                                     ? serial_seconds / summary.seconds
                                     : 0.0,
                                 2),
                   std::to_string(summary.steals)});
  }
  bench::finish(table, args);

  // Persistent-store trajectory: cold pass populates, warm pass must be
  // pure disk (100% hits, zero eigensolves).
  const std::string store_dir = "BENCH_serve.store";
  std::filesystem::remove_all(store_dir);
  serve::BatchOptions store_options;
  store_options.threads = thread_counts.back();
  store_options.store_dir = store_dir;
  const serve::BatchSummary cold = run_batch(jobs, store_options);
  const serve::BatchSummary warm = run_batch(jobs, store_options);
  std::filesystem::remove_all(store_dir);
  std::cout << "store: cold " << format_double(cold.seconds, 3)
            << "s -> warm " << format_double(warm.seconds, 3)
            << "s (hit rate " << format_double(warm.store_hit_rate(), 3)
            << ", eigensolves " << warm.cache.eigensolves << ")\n\n";

  io::JsonWriter w;
  w.begin_object();
  w.key("bench").value("serve_batch");
  w.key("scale").value(to_string(args.scale));
  w.key("jobs").value(static_cast<std::int64_t>(jobs_count));
  w.key("threads").begin_array();
  for (std::size_t i = 0; i < series.size(); ++i) {
    const serve::BatchSummary& s = series[i];
    w.begin_object();
    w.key("threads").value(thread_counts[i]);
    w.key("seconds").value(s.seconds);
    w.key("throughput").value(s.throughput);
    w.key("p50_seconds").value(s.p50_seconds);
    w.key("p95_seconds").value(s.p95_seconds);
    w.key("speedup").value(s.seconds > 0.0 ? serial_seconds / s.seconds
                                           : 0.0);
    w.key("steals").value(s.steals);
    w.end_object();
  }
  w.end_array();
  w.key("store").begin_object();
  w.key("cold_seconds").value(cold.seconds);
  w.key("warm_seconds").value(warm.seconds);
  w.key("warm_hit_rate").value(warm.store_hit_rate());
  w.key("warm_eigensolves").value(warm.cache.eigensolves);
  w.end_object();
  w.end_object();

  std::ofstream json_out("BENCH_serve.json");
  json_out << w.str() << "\n";
  std::cout << "wrote BENCH_serve.json\n";
  return 0;
}
