// stream-patch: the evolving-graph user's patch-to-answer latency.
//
// A disjoint union of 16 distinct Erdős–Rényi DAG components, loaded into
// a StreamSession whose artifact store keeps a 64 MiB eigenbasis budget
// (so patched components warm-start). One client, closed loop, no think
// time: each op applies a seeded patch of 1–2 mutations (70% forward
// add_edge inside a component, 30% remove_edge of an existing edge), then
// evaluates `spectral` at M ∈ {4, 16} with default SpectralOptions
// (adaptive h). The patch script is generated from the seed in setup();
// op i applies patch i. Each round starts from a freshly loaded session
// (untimed), so every round runs the same patches on the same states.
#include <array>
#include <iostream>
#include <utility>
#include <vector>

#include "common.hpp"
#include "graphio/engine/engine.hpp"
#include "graphio/graph/builders.hpp"
#include "graphio/graph/components.hpp"
#include "graphio/store/artifact_store.hpp"
#include "graphio/stream/session.hpp"
#include "graphio/support/prng.hpp"
#include "graphio/telemetry/trace.hpp"

namespace perfbench {
namespace {

using namespace graphio;

constexpr int kComponents = 16;
constexpr std::int64_t kComponentVertices = 200;
constexpr double kEdgeProbability = 0.045;
constexpr std::int64_t kBasisBudgetBytes = std::int64_t{64} << 20;
// Patches in one round.
constexpr std::size_t kScriptPatches = 512;

engine::BoundRequest make_request() {
  engine::BoundRequest request;
  request.memories = {4, 16};
  request.methods = {"spectral"};
  return request;
}

class StreamPatch final : public Workload {
 public:
  explicit StreamPatch(const WorkloadConfig& config) : config_(config) {}

  void setup() override {
    std::vector<Digraph> parts;
    std::vector<std::vector<std::pair<VertexId, VertexId>>> edges(kComponents);
    for (int c = 0; c < kComponents; ++c) {
      parts.push_back(builders::erdos_renyi_dag(
          kComponentVertices, kEdgeProbability,
          static_cast<std::uint64_t>(c) + 1));
      const VertexId offset = c * kComponentVertices;
      const Digraph& g = parts.back();
      for (VertexId u = 0; u < g.num_vertices(); ++u)
        for (const VertexId v : g.children(u))
          edges[static_cast<std::size_t>(c)].emplace_back(offset + u,
                                                          offset + v);
    }
    script_ = make_script(std::move(edges));
    base_ = disjoint_union(parts);
    load_session();
  }

  [[nodiscard]] std::size_t ops() const override { return script_.size(); }

  void start_round() override {
    if (patched_) load_session();
  }

  void op(std::size_t i) override {
    const stream::Patch& patch = script_[i];
    patched_ = true;
    telemetry::Span op_span("bench.op");
    const Clock::time_point start = Clock::now();
    {
      telemetry::Span span("bench.apply");
      session_->apply(patch);
    }
    const Clock::time_point applied = Clock::now();
    {
      telemetry::Span span("bench.evaluate");
      last_ = session_->evaluate(make_request());
    }
    apply_ms_.push_back(
        std::chrono::duration<double, std::milli>(applied - start).count());
    evaluate_ms_.push_back(seconds_since(applied) * 1e3);
  }

  bool verify(std::size_t /*i*/) override { return last_.rows.size() == 2; }

  std::vector<std::string> check() override {
    std::vector<std::string> problems;
    const engine::BoundReport incremental = session_->evaluate(make_request());
    engine::Engine fresh;
    engine::BoundRequest request = make_request();
    request.graph = session_->graph();
    const engine::BoundReport scratch = fresh.evaluate(request);
    if (incremental.rows.size() != scratch.rows.size()) {
      problems.push_back("stream-patch: row count differs from a fresh Engine");
      return problems;
    }
    // A warm-started component answers with certified lower estimates
    // (θ − ‖r‖ from a Rayleigh–Ritz refresh or a seeded iterative solve)
    // while a fresh Engine solves densely, so the two agree in value only
    // up to those certificates, never bit for bit. The check is the sound
    // direction: the incremental bound never exceeds the fresh one.
    bool positive = false;
    for (std::size_t i = 0; i < scratch.rows.size(); ++i) {
      const double a = incremental.rows[i].value;
      const double b = scratch.rows[i].value;
      std::cout << "stream-patch final query at M=" << scratch.rows[i].memory
                << ": incremental " << a << ", fresh Engine " << b << "\n";
      if (!(a <= b * (1.0 + 1e-9) + 1e-9))
        problems.push_back("stream-patch: incremental bound above a fresh "
                           "Engine's at M=" +
                           std::to_string(scratch.rows[i].memory));
      positive = positive || a > 0.0;
    }
    if (!positive)
      problems.push_back("stream-patch: every spectral row is 0 (degenerate "
                         "query)");
    return problems;
  }

  std::map<std::string, double> take_extras() override {
    std::map<std::string, double> extras;
    extras["stream.apply_ms"] = median(std::exchange(apply_ms_, {}));
    extras["stream.evaluate_ms"] =
        median(std::exchange(evaluate_ms_, {}));
    return extras;
  }

 private:
  // A session on the unpatched graph, with a fresh artifact store. Its
  // first query solves every component; ops then pay for what their patch
  // dirtied.
  void load_session() {
    auto store = std::make_shared<store::ArtifactStore>();
    store->set_eigenbasis_budget(kBasisBudgetBytes);
    session_.reset();
    session_ = std::make_unique<stream::StreamSession>("perfbench-stream",
                                                       store);
    session_->load(base_);
    last_ = session_->evaluate(make_request());
    patched_ = false;
  }

  // Seeded patch script over a model of the edge multiset, so every
  // remove_edge names an edge present at that point of the script and
  // every add_edge goes forward inside one component (the graph stays a
  // DAG). The mix is stratified so runs with different seeds do the same
  // kind of work: patches cycle through 1, 2, 2 mutations, every ten
  // mutations hold 7 adds and 3 removes in a seeded order, and every
  // kComponents mutations touch each component once in a seeded order.
  // The seed picks the orders and vertices.
  std::vector<stream::Patch> make_script(
      std::vector<std::vector<std::pair<VertexId, VertexId>>> edges) const {
    Prng rng(config_.seed);
    std::array<bool, 10> adds{};
    std::size_t next_kind = adds.size();
    std::array<std::size_t, kComponents> components{};
    std::size_t next_component = components.size();
    std::vector<stream::Patch> script(kScriptPatches);
    for (std::size_t p = 0; p < script.size(); ++p) {
      const int mutations = p % 3 == 0 ? 1 : 2;
      for (int m = 0; m < mutations; ++m) {
        if (next_kind == adds.size()) {
          for (std::size_t i = 0; i < adds.size(); ++i) adds[i] = i < 7;
          for (std::size_t i = adds.size(); i > 1; --i)
            std::swap(adds[i - 1], adds[rng.below(i)]);
          next_kind = 0;
        }
        if (next_component == components.size()) {
          for (std::size_t i = 0; i < components.size(); ++i)
            components[i] = i;
          for (std::size_t i = components.size(); i > 1; --i)
            std::swap(components[i - 1], components[rng.below(i)]);
          next_component = 0;
        }
        const bool add = adds[next_kind++];
        const std::size_t c = components[next_component++];
        auto& list = edges[c];
        const VertexId offset = static_cast<VertexId>(c) * kComponentVertices;
        if (add || list.empty()) {
          VertexId u = 0;
          VertexId v = 0;
          while (u == v) {
            u = static_cast<VertexId>(rng.below(kComponentVertices));
            v = static_cast<VertexId>(rng.below(kComponentVertices));
          }
          if (u > v) std::swap(u, v);
          list.emplace_back(offset + u, offset + v);
          script[p].mutations.push_back(
              stream::Mutation::add_edge(offset + u, offset + v));
        } else {
          const auto pick = static_cast<std::size_t>(rng.below(list.size()));
          const auto [u, v] = list[pick];
          list[pick] = list.back();
          list.pop_back();
          script[p].mutations.push_back(stream::Mutation::remove_edge(u, v));
        }
      }
    }
    return script;
  }

  WorkloadConfig config_;
  std::vector<stream::Patch> script_;
  Digraph base_;
  bool patched_ = false;
  std::unique_ptr<stream::StreamSession> session_;
  engine::BoundReport last_;
  std::vector<double> apply_ms_;
  std::vector<double> evaluate_ms_;
};

}  // namespace

std::unique_ptr<Workload> make_stream_patch(const WorkloadConfig& config) {
  return std::make_unique<StreamPatch>(config);
}

}  // namespace perfbench
