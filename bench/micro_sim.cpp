// Microbenchmarks: the two-level memory simulator behind the `memsim` upper
// bound (google-benchmark). BM_SimulateIo times one simulate_io call (use
// list build, eviction pool, fault-in and placement) on a fixed natural
// order under Belady and LRU; BM_BestScheduleIo times what one memsim row
// costs: generating the 7 standard orders and simulating each;
// BM_SimulateParallelIo times the p-processor simulator on a contiguous
// assignment. Graphs: ER(80, 0.06), fft:6 and bhk:8, at M = 8 and 32.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "graphio/graph/builders.hpp"
#include "graphio/graph/topo.hpp"
#include "graphio/sim/memsim.hpp"
#include "graphio/sim/parallel_memsim.hpp"

namespace {

using namespace graphio;

struct Workload {
  std::string name;
  Digraph g;
};

const Workload& workload(std::int64_t index) {
  static const std::vector<Workload> workloads{
      {"er:80:0.06", builders::erdos_renyi_dag(80, 0.06, 5)},
      {"fft:6", builders::fft(6)},
      {"bhk:8", builders::bhk_hypercube(8)},
  };
  return workloads[static_cast<std::size_t>(index)];
}

void BM_SimulateIo(benchmark::State& state) {
  const Workload& w = workload(state.range(0));
  const std::int64_t memory = state.range(1);
  const std::vector<VertexId> order = *topological_order(w.g);
  sim::SimOptions options;
  options.policy = state.range(2) == 0 ? sim::EvictionPolicy::kBelady
                                       : sim::EvictionPolicy::kLru;
  for (auto _ : state)
    benchmark::DoNotOptimize(sim::simulate_io(w.g, order, memory, options));
  state.SetLabel(w.name + (state.range(2) == 0 ? " belady" : " lru"));
}

void BM_BestScheduleIo(benchmark::State& state) {
  const Workload& w = workload(state.range(0));
  const std::int64_t memory = state.range(1);
  for (auto _ : state)
    benchmark::DoNotOptimize(sim::best_schedule_io(w.g, memory));
  state.SetLabel(w.name);
}

void BM_SimulateParallelIo(benchmark::State& state) {
  const Workload& w = workload(state.range(0));
  const std::int64_t memory = state.range(1);
  const std::int64_t processors = state.range(2);
  const std::vector<VertexId> order = *topological_order(w.g);
  const std::vector<int> assignment = sim::partition_assignment(
      w.g, order, processors, sim::PartitionStrategy::kContiguous);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        sim::simulate_parallel_io(w.g, order, assignment, memory));
  state.SetLabel(w.name + " p=" + std::to_string(processors));
}

// Workload index: 0 = ER(80, 0.06), 1 = fft:6, 2 = bhk:8.
void graph_by_memory(benchmark::internal::Benchmark* b) {
  for (std::int64_t graph : {0, 1, 2})
    for (std::int64_t memory : {8, 32}) b->Args({graph, memory});
}

// {workload, M, policy}: policy 0 = Belady, 1 = LRU.
void graph_by_memory_by_policy(benchmark::internal::Benchmark* b) {
  for (std::int64_t graph : {0, 1, 2})
    for (std::int64_t memory : {8, 32})
      for (std::int64_t policy : {0, 1}) b->Args({graph, memory, policy});
}

BENCHMARK(BM_SimulateIo)->Apply(graph_by_memory_by_policy);
BENCHMARK(BM_BestScheduleIo)->Apply(graph_by_memory);
// {workload, M, processors}
BENCHMARK(BM_SimulateParallelIo)->Args({1, 8, 4})->Args({1, 32, 4});

}  // namespace
