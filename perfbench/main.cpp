// perfbench — the graphio benchmark program.
//
//   perfbench --workload stream-patch|bound-cold|batch-restart
//             --seed N --seconds S --trace 0|1
//             [--commit SHA] [--workdir DIR]
//
// Runs set-up five or more times (reporting the median as setup_s), then one
// workload in a closed loop with one client on one thread for S seconds:
// rounds of the workload's fixed list of ops, timing every op from outside.
// The timing metrics take each op at its median over the rounds, at the
// speed of a reference host (see end_to_end). Then it
// checks the program's outputs. The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
//
// --trace 0 reports the end-to-end metrics. --trace 1 runs an untraced
// phase and then a traced phase of S seconds each and reports the
// per-layer metrics: span self time from the library's own spans (read
// through telemetry::Tracer::summarize()), MetricsRegistry counter deltas,
// and timings the benchmark takes around its own calls — all normalized
// per op of the traced phase.
#include <algorithm>
#include <cstdlib>
#include <exception>
#include <iomanip>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "graphio/support/parallel.hpp"

extern char** environ;

namespace {

using namespace perfbench;

// Set-up runs at least kMinSetupReps times and, while under kSetupSeconds
// in all, up to kMaxSetupReps times: a short set-up varies more from rep
// to rep, so it takes more samples for a steady median.
constexpr std::size_t kMinSetupReps = 5;
constexpr std::size_t kMaxSetupReps = 25;
constexpr double kSetupSeconds = 4.0;
constexpr std::size_t kSetupRefs = 5;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string commit = "unknown";
  std::string workdir = ".bench_build/work";
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--commit SHA] [--workdir DIR]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--commit") {
      args.commit = value;
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (args.workload.empty()) usage("--workload is required");
  if (!(args.seconds > 0.0)) usage("--seconds must be positive");
  return args;
}

// One completed op of a phase.
struct Sample {
  std::size_t op = 0;  // index of the distinct op
  double wall = 0.0;   // seconds, timed from outside
  double cpu = 0.0;    // process CPU seconds during the op
  double ref = 0.0;    // reference kernel seconds, timed just before it
};

// One measured phase of the loop.
struct Phase {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::int64_t rounds = 0;  // rounds begun
  std::size_t ops = 0;      // distinct ops in a round
  std::vector<Sample> samples;  // in the order they ran
  double op_wall = 0.0;    // sum of op durations
  double loop_wall = 0.0;  // the whole loop, untimed steps included
  double cpu = 0.0;        // process CPU over the whole loop
  std::map<std::string, double> extras;  // workload-measured layer numbers
  std::vector<std::string> errors;

  [[nodiscard]] double per_op(double total) const {
    return samples.empty() ? 0.0
                           : total / static_cast<double>(samples.size());
  }
};

// Rounds of the workload's ops until `seconds` have passed; the round in
// progress at the deadline stops there, except the first, which always
// runs to the end so that every op is measured.
Phase run_phase(Workload& workload, double seconds, LayerTrace* trace) {
  Phase phase;
  phase.ops = workload.ops();
  const double cpu_start = process_cpu_seconds();
  const Clock::time_point loop_start = Clock::now();
  const Clock::time_point deadline =
      loop_start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(seconds));
  while (Clock::now() < deadline) {
    ++phase.rounds;
    if (trace != nullptr)
      trace->exclude([&] { workload.start_round(); });
    else
      workload.start_round();
    for (std::size_t i = 0;
         i < phase.ops && (phase.rounds == 1 || Clock::now() < deadline);
         ++i) {
      ++phase.attempted;
      bool ok = false;
      try {
        workload.prepare(i);
        Sample sample;
        sample.op = i;
        sample.ref = reference_seconds();
        const double cpu_before = process_cpu_seconds();
        const Clock::time_point start = Clock::now();
        workload.op(i);
        sample.wall = seconds_since(start);
        sample.cpu = process_cpu_seconds() - cpu_before;
        phase.samples.push_back(sample);
        phase.op_wall += sample.wall;
        ok = workload.verify(i);
      } catch (const std::exception& e) {
        if (phase.errors.size() < 10) phase.errors.push_back(e.what());
      }
      if (!ok) ++phase.failed;
      if (trace != nullptr) trace->harvest();
    }
  }
  phase.loop_wall = seconds_since(loop_start);
  phase.cpu = process_cpu_seconds() - cpu_start;
  if (trace != nullptr) trace->finish();
  phase.extras = workload.take_extras();
  return phase;
}

// Each distinct op's wall and CPU seconds, and how many times it
// completed.
struct OpTimes {
  std::vector<double> wall;
  std::vector<double> cpu;
  std::vector<std::int64_t> runs;
};

// Reference-kernel samples on either side of an op that set its host speed.
constexpr std::size_t kHostWindow = 25;

// Each op's median over the rounds. With `scaled`, every sample is first
// put at reference speed: multiplied by kReferenceSeconds over the median
// reference-kernel time of the kHostWindow samples on either side of it,
// which ran on the host as loaded as the op was.
OpTimes per_op_times(const Phase& phase, bool scaled) {
  std::vector<std::vector<double>> wall(phase.ops);
  std::vector<std::vector<double>> cpu(phase.ops);
  const std::vector<Sample>& samples = phase.samples;
  for (std::size_t k = 0; k < samples.size(); ++k) {
    double factor = 1.0;
    if (scaled) {
      std::vector<double> refs;
      const std::size_t lo = k > kHostWindow ? k - kHostWindow : 0;
      const std::size_t hi = std::min(samples.size(), k + kHostWindow + 1);
      for (std::size_t j = lo; j < hi; ++j) refs.push_back(samples[j].ref);
      factor = kReferenceSeconds / median(refs);
    }
    wall[samples[k].op].push_back(samples[k].wall * factor);
    cpu[samples[k].op].push_back(samples[k].cpu * factor);
  }
  OpTimes times;
  for (std::size_t i = 0; i < phase.ops; ++i) {
    times.wall.push_back(median(wall[i]));
    times.cpu.push_back(median(cpu[i]));
    times.runs.push_back(static_cast<std::int64_t>(wall[i].size()));
  }
  return times;
}

// Ops per second of op time, each op at its median time.
double ops_per_s(const OpTimes& times) {
  double total = 0.0;
  double ops = 0.0;
  for (std::size_t i = 0; i < times.wall.size(); ++i) {
    if (times.runs[i] == 0) continue;
    total += times.wall[i];
    ops += 1.0;
  }
  return total > 0.0 ? ops / total : 0.0;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// The timing metrics are taken over the distinct ops of a round, each at
// its median over the rounds, at reference speed. Other load on a shared
// host slows the program for seconds to minutes at a time; the reference
// kernel, timed before every op, slows with it, so scaling each op by the
// kernel's times around it takes the load out.
std::vector<Metric> end_to_end(const Phase& phase, double setup_s) {
  const OpTimes times = per_op_times(phase, true);
  std::vector<double> ms;
  double cpu = 0.0;
  for (std::size_t i = 0; i < phase.ops; ++i) {
    if (times.runs[i] == 0) continue;
    ms.push_back(times.wall[i] * 1e3);
    cpu += times.cpu[i];
  }
  return {
      {"setup_s", setup_s, "s"},
      {"ops_per_s", ops_per_s(times), "1/s"},
      {"op_p50_ms", percentile(ms, 50.0), "ms"},
      {"op_p95_ms", percentile(ms, 95.0), "ms"},
      {"cpu_ms_per_op",
       ms.empty() ? 0.0 : cpu * 1e3 / static_cast<double>(ms.size()), "ms"},
      {"peak_rss_mb", peak_rss_mb(), "MiB"},
  };
}

std::vector<Metric> per_layer(const Phase& untraced, const Phase& traced,
                              const LayerTrace& t) {
  auto self = [&](const char* span) {
    return traced.per_op(t.self_seconds(span));
  };
  auto count = [&](const char* counter) {
    return traced.per_op(static_cast<double>(t.delta(counter)));
  };
  auto extra = [&](const char* name) {
    const auto it = traced.extras.find(name);
    return it == traced.extras.end() ? 0.0 : it->second;
  };
  const double eigensolves = static_cast<double>(t.delta("cache.eigensolves"));
  const double component_hits =
      static_cast<double>(t.delta("cache.component_hits"));
  double store_hits = 0.0;
  double store_lookups = 0.0;
  for (const char* kind : {"spectrum", "topo", "mincut", "memsim",
                           "partition"}) {
    const std::string prefix = std::string("store.") + kind;
    const auto hits = static_cast<double>(t.delta(prefix + ".hits"));
    store_hits += hits;
    store_lookups += hits + static_cast<double>(t.delta(prefix + ".misses"));
  }
  const auto rs_hits = static_cast<double>(t.delta("result_store.hits"));
  const auto rs_lookups =
      rs_hits + static_cast<double>(t.delta("result_store.misses"));
  return {
      {"la.solve_s", self("solve"), "s/op"},
      {"la.eigensolves", count("cache.eigensolves"), "count/op"},
      {"la.iterations", count("solver.iterations"), "count/op"},
      {"la.warm_hit_ratio",
       ratio(static_cast<double>(t.delta("solver.warm_hits")), eigensolves),
       "ratio"},
      {"core.merge_s", self("merge"), "s/op"},
      {"flow.mincut_s", self("mincut"), "s/op"},
      {"flow.mincut_sweeps", count("cache.mincut_sweeps"), "count/op"},
      {"stream.apply_ms", extra("stream.apply_ms"), "ms"},
      {"stream.evaluate_ms", extra("stream.evaluate_ms"), "ms"},
      {"stream.dirty_per_patch",
       ratio(static_cast<double>(t.delta("stream.dirty_components")),
             static_cast<double>(t.delta("stream.patches"))),
       "count"},
      {"stream.evicted", count("stream.evicted"), "count/op"},
      {"engine.extract_s", self("extract"), "s/op"},
      {"engine.fingerprint_s", self("fingerprint"), "s/op"},
      {"engine.subgraph_extractions", count("cache.subgraph_extractions"),
       "count/op"},
      {"engine.component_hit_ratio",
       ratio(component_hits, component_hits + eigensolves), "ratio"},
      {"engine.evaluate_ms", extra("engine.evaluate_ms"), "ms"},
      {"graph.topo_s", self("topo"), "s/op"},
      {"graph.topo_computes", count("cache.topo_computes"), "count/op"},
      {"sim.memsim_s", self("memsim"), "s/op"},
      {"sim.memsim_runs", count("cache.memsim_runs"), "count/op"},
      {"core.partition_dp_s", self("partition_dp"), "s/op"},
      {"core.partition_runs", count("cache.partition_runs"), "count/op"},
      {"store.replay_s", extra("store.replay_s"), "s"},
      {"store.replayed_entries", count("store.disk.loaded"), "count/op"},
      {"store.appended", count("store.disk.appended"), "count/op"},
      {"store.hit_ratio", ratio(store_hits, store_lookups), "ratio"},
      {"store.log_bytes", extra("store.log_bytes"), "B"},
      {"serve.result_store_replay_s", extra("serve.result_store_replay_s"),
       "s"},
      {"serve.result_store_hit_ratio", ratio(rs_hits, rs_lookups), "ratio"},
      {"io.graph_load_s", extra("io.graph_load_s"), "s"},
      {"serve.job_self_s", self("serve.job"), "s/op"},
      {"serve.worker_utilization",
       ratio(t.total_seconds("serve.job"), traced.op_wall), "ratio"},
      {"serve.steals", extra("serve.steals"), "count/op"},
      {"support.cpu_per_wall", ratio(untraced.cpu, untraced.loop_wall),
       "ratio"},
      {"telemetry.trace_overhead",
       ratio(ops_per_s(per_op_times(traced, true)),
             ops_per_s(per_op_times(untraced, true))) -
           1.0,
       "ratio"},
      {"telemetry.dropped_spans", static_cast<double>(t.dropped_spans()),
       "count"},
  };
}

void print_table(const std::string& title, const std::vector<Metric>& metrics) {
  std::cout << title << "\n";
  for (const Metric& m : metrics)
    std::cout << "  " << std::left << std::setw(30) << m.name << std::right
              << std::setw(16) << std::setprecision(6) << m.value << "  "
              << m.unit << "\n";
}

void print_stamp(const Args& args) {
  std::cout << "perfbench workload=" << args.workload << " seed=" << args.seed
            << " seconds=" << args.seconds << " trace=" << args.trace
            << "\n  nproc=" << std::thread::hardware_concurrency()
            << " build_type=" << build_type()
            << " commit=" << args.commit << "\n  env:";
  bool any = false;
  for (char** env = environ; *env != nullptr; ++env) {
    const std::string var = *env;
    if (var.rfind("OMP_", 0) == 0 || var.rfind("GOMP_", 0) == 0) {
      std::cout << " " << var;
      any = true;
    }
  }
  if (!any) std::cout << " (no OMP_* variables)";
  std::cout << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  if (!optimized_build()) {
    std::cerr << "perfbench: refusing to time an unoptimized build "
                 "(CMAKE_BUILD_TYPE='"
              << build_type() << "'); configure with -DCMAKE_BUILD_TYPE=Release\n";
    return 2;
  }
  // Every op runs on this one thread: library loops stay serial and the
  // serve tier gets one worker. Thread teams on a shared host measure the
  // neighbours' load as much as the program.
  const graphio::SerialRegion serial;

  WorkloadConfig config;
  config.seed = args.seed;
  config.workdir = args.workdir;
  std::unique_ptr<Workload> (*factory)(const WorkloadConfig&) = nullptr;
  if (args.workload == "stream-patch") {
    factory = make_stream_patch;
  } else if (args.workload == "bound-cold") {
    factory = make_bound_cold;
  } else if (args.workload == "batch-restart") {
    factory = make_batch_restart;
  } else {
    usage("unknown workload " + args.workload);
  }
  print_stamp(args);

  try {
    const std::unique_ptr<Workload> workload = factory(config);
    std::vector<double> setups;
    const Clock::time_point setups_start = Clock::now();
    while (setups.size() < kMinSetupReps ||
           (setups.size() < kMaxSetupReps &&
            seconds_since(setups_start) < kSetupSeconds)) {
      // At reference speed, like the op timings, with the kernel timed
      // kSetupRefs times on either side of the set-up.
      std::vector<double> refs;
      for (std::size_t k = 0; k < kSetupRefs; ++k)
        refs.push_back(reference_seconds());
      const Clock::time_point start = Clock::now();
      workload->setup();
      const double elapsed = seconds_since(start);
      for (std::size_t k = 0; k < kSetupRefs; ++k)
        refs.push_back(reference_seconds());
      setups.push_back(elapsed * kReferenceSeconds / median(refs));
    }
    const double setup_s = median(setups);

    const Phase untraced = run_phase(*workload, args.seconds, nullptr);
    std::vector<Phase> phases = {untraced};
    std::vector<Metric> layer;
    std::int64_t dropped = 0;
    if (args.trace) {
      LayerTrace trace;
      const Phase traced = run_phase(*workload, args.seconds, &trace);
      layer = per_layer(untraced, traced, trace);
      dropped = trace.dropped_spans();
      phases.push_back(traced);
    }

    std::vector<std::string> problems = workload->check();
    std::int64_t attempted = 0;
    std::int64_t failed = 0;
    for (const Phase& phase : phases) {
      attempted += phase.attempted;
      failed += phase.failed;
      problems.insert(problems.end(), phase.errors.begin(),
                      phase.errors.end());
      const OpTimes times = per_op_times(phase, false);
      if (std::count(times.runs.begin(), times.runs.end(), 0) != 0)
        problems.push_back("an op never completed");
    }
    if (dropped != 0)
      problems.push_back("tracer dropped " + std::to_string(dropped) +
                         " spans");

    const std::vector<Metric> e2e = end_to_end(untraced, setup_s);
    print_table("end-to-end (untraced phase, median of " +
                    std::to_string(untraced.rounds) + " rounds of " +
                    std::to_string(untraced.ops) +
                    " ops, at reference speed):",
                e2e);
    std::vector<double> refs;
    for (const Sample& sample : untraced.samples)
      refs.push_back(sample.ref * 1e3);
    std::cout << "  host speed: reference kernel median " << median(refs)
              << " ms, 10th percentile " << percentile(refs, 10.0)
              << " ms (reference " << kReferenceSeconds * 1e3
              << " ms); unscaled ops_per_s "
              << ops_per_s(per_op_times(untraced, false)) << "\n";
    std::cout << "  " << std::left << std::setw(30) << "failed_frac"
              << std::right << std::setw(16)
              << (attempted > 0 ? static_cast<double>(failed) /
                                      static_cast<double>(attempted)
                                : 0.0)
              << "  ratio\n";
    if (args.trace)
      print_table("per-layer (traced phase, " +
                      std::to_string(phases.back().samples.size()) + " ops):",
                  layer);
    for (const auto& problem : problems)
      std::cout << "CHECK FAILED: " << problem << "\n";
    const bool correct = problems.empty() && failed == 0 && attempted > 0;
    std::cout << result_json(correct, attempted, failed,
                             args.trace ? layer : e2e)
              << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
