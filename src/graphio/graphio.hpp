// graphio — spectral lower bounds on the I/O complexity of computation
// graphs (Jain & Zaharia, SPAA 2020). Umbrella public header.
//
// Quick start — the Engine evaluates every bound family through one API,
// sharing expensive artifacts (topological orders, Laplacians,
// eigen-spectra, wavefront cuts) across methods and memory sizes:
//
//   #include "graphio/graphio.hpp"
//   graphio::Engine engine;
//   graphio::engine::BoundRequest req;
//   req.spec = "fft:8";              // or req.graph = my_digraph
//   req.memories = {4, 8, 16};       // the M sweep
//   req.methods = {"all"};           // or {"spectral", "mincut", ...}
//   auto report = engine.evaluate(req);
//   std::cout << report.to_table();  // or report.to_json()
//   // Each report row is one (method, M) cell: bound, best k/alpha,
//   // convergence flag, wall time. Lower-bound rows hold for ANY
//   // evaluation order of the graph.
//
// Single bounds are also available as free functions when no sharing is
// needed:
//
//   auto g = graphio::builders::fft(8);                 // 2^8-point FFT
//   auto b = graphio::spectral_bound(g, /*memory=*/16); // Theorem 4
//
// For corpora instead of single graphs, the serve subsystem fans JSONL
// job streams across a work-stealing thread pool with a persistent
// on-disk result cache (warm reruns perform zero eigensolves):
//
//   graphio::serve::BatchOptions options;
//   options.threads = 8;                  // 0 = hardware_threads()
//   options.store_dir = "runs/store";     // "" disables the disk cache
//   graphio::serve::BatchSession session(options);
//   std::ifstream jobs("jobs.jsonl");     // {"spec":"fft:8","memories":[4,8]}
//   graphio::serve::BatchSummary s = session.run(jobs, std::cout);
//   std::cerr << s.to_json() << "\n";     // throughput, p50/p95, hit rates
//
// For a graph that *evolves* — autotuners, compiler rewrites — the stream
// subsystem applies patches and re-analyzes incrementally: only the
// components a patch touched are re-eigensolved, clean components come
// from the fingerprint-keyed component cache:
//
//   graphio::stream::StreamSession session("g");
//   session.load("fft:8");
//   graphio::stream::Patch patch;         // or stream::patch_from_json_line
//   patch.mutations.push_back(graphio::stream::Mutation::add_edge(0, 9));
//   auto applied = session.apply(patch);  // dirty/clean component counts
//   auto report2 = session.evaluate(req); // == from-scratch, ~C× cheaper
#pragma once

// Unified analysis API: Engine, BoundRequest/BoundReport, the BoundMethod
// registry, and the shared-artifact cache.
#include "graphio/engine/artifact_cache.hpp"
#include "graphio/store/artifact_store.hpp"
#include "graphio/engine/engine.hpp"
#include "graphio/engine/fingerprint.hpp"
#include "graphio/engine/graph_spec.hpp"
#include "graphio/engine/method.hpp"
#include "graphio/engine/report.hpp"
#include "graphio/engine/request.hpp"

// Concurrent batch-analysis service: JSONL jobs in, JSONL reports out,
// work-stealing scheduler, persistent result store.
#include "graphio/serve/batch_session.hpp"
#include "graphio/serve/job.hpp"
#include "graphio/serve/job_queue.hpp"
#include "graphio/serve/result_store.hpp"
#include "graphio/serve/scheduler.hpp"

// Incremental analysis of evolving graphs: mutation/patch grammar,
// dynamic connectivity, and the patch-apply/invalidate/re-solve session.
#include "graphio/stream/dynamic_components.hpp"
#include "graphio/stream/dynamic_graph.hpp"
#include "graphio/stream/mutation.hpp"
#include "graphio/stream/session.hpp"

// Core: the paper's contribution.
#include "graphio/core/analytic_bounds.hpp"
#include "graphio/core/analytic_spectra.hpp"
#include "graphio/core/hierarchy.hpp"
#include "graphio/core/partition.hpp"
#include "graphio/core/partition_dp.hpp"
#include "graphio/core/published.hpp"
#include "graphio/core/spectral_bound.hpp"
#include "graphio/core/spectral_pipeline.hpp"
#include "graphio/core/spectrum.hpp"

// Computation graphs.
#include "graphio/graph/builders.hpp"
#include "graphio/graph/components.hpp"
#include "graphio/graph/digraph.hpp"
#include "graphio/graph/dot.hpp"
#include "graphio/graph/laplacian.hpp"
#include "graphio/graph/topo.hpp"
#include "graphio/graph/transforms.hpp"

// Baseline (convex min-cut) and max-flow substrate.
#include "graphio/flow/convex_mincut.hpp"
#include "graphio/flow/dinic.hpp"
#include "graphio/flow/partitioner.hpp"

// Execution simulator (upper bounds) and schedules.
#include "graphio/sim/anneal.hpp"
#include "graphio/sim/memsim.hpp"
#include "graphio/sim/parallel_memsim.hpp"
#include "graphio/sim/schedule.hpp"

// Exact ground truth for small graphs.
#include "graphio/exact/enumerate.hpp"
#include "graphio/exact/pebble_recompute.hpp"
#include "graphio/exact/pebble_search.hpp"

// Operation tracer and traced reference programs.
#include "graphio/trace/programs.hpp"
#include "graphio/trace/tape.hpp"

// Observability: process-wide metrics registry and hierarchical span
// tracing (Chrome trace / JSONL export). Off by default, observe-only.
#include "graphio/telemetry/metrics.hpp"
#include "graphio/telemetry/trace.hpp"

// Serialization.
#include "graphio/io/edgelist.hpp"
#include "graphio/io/json.hpp"

// Linear algebra substrate.
#include "graphio/la/bisection.hpp"
#include "graphio/la/csr_matrix.hpp"
#include "graphio/la/dense_matrix.hpp"
#include "graphio/la/jacobi.hpp"
#include "graphio/la/lanczos.hpp"
#include "graphio/la/lobpcg.hpp"
#include "graphio/la/power_iteration.hpp"
#include "graphio/la/solver_policy.hpp"
#include "graphio/la/symmetric_eigen.hpp"
#include "graphio/la/tridiagonal.hpp"

// Support.
#include "graphio/support/parallel.hpp"
#include "graphio/support/prng.hpp"
#include "graphio/support/table.hpp"
#include "graphio/support/timer.hpp"
