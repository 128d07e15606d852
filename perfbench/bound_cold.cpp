// bound-cold: what each `graphio bound` invocation pays.
//
// One client, closed loop. Each op builds a fresh Engine (private,
// memory-only artifact store) and evaluates spectral, mincut,
// partition-dp and memsim at M ∈ {4, 16, 64} on one spec: the paper's
// graph families and their neighbours, plus seeded Erdős–Rényi DAGs. A
// round runs every spec once, in a seeded order. Every report is checked
// out of the timed region: rows finite and >= 0, and each lower bound
// (spectral, mincut) <= the memsim upper bound at the same M.
#include <iterator>
#include <string>
#include <vector>

#include "common.hpp"
#include "graphio/engine/engine.hpp"
#include "graphio/support/prng.hpp"
#include "graphio/telemetry/trace.hpp"

namespace perfbench {
namespace {

using namespace graphio;

// The paper's graphs and their neighbours.
const char* const kPaperSpecs[] = {
    "fft:5",           "fft:6",           "bhk:7",
    "bhk:8",           "matmul:5",        "matmul:6",
    "matmul:7",        "strassen:4",      "stencil2d:6:6:3",
    "stencil2d:6:6:4", "stencil2d:6:6:5", "stencil2d:6:6:6",
};
// Erdős–Rényi DAG specs per round: er:N:0.03:SEED with N = 200, 250, ...,
// 400 and a seeded graph seed.
constexpr int kErSpecs = 5;

engine::BoundRequest make_request(const std::string& spec) {
  engine::BoundRequest request;
  request.spec = spec;
  request.memories = {4, 16, 64};
  request.methods = {"spectral", "mincut", "partition-dp", "memsim"};
  return request;
}

class BoundCold final : public Workload {
 public:
  explicit BoundCold(const WorkloadConfig& config) : config_(config) {}

  void setup() override {
    Prng rng(config_.seed);
    specs_.assign(std::begin(kPaperSpecs), std::end(kPaperSpecs));
    for (int i = 0; i < kErSpecs; ++i)
      specs_.push_back("er:" + std::to_string(200 + 50 * i) + ":0.03:" +
                       std::to_string(rng.below(1u << 30)));
    for (std::size_t i = specs_.size(); i > 1; --i)
      std::swap(specs_[i - 1], specs_[rng.below(i)]);
    // Warm-up, part of set-up: one evaluation of each spec brings up the
    // solver and flow paths before the first timed op.
    for (const std::string& spec : specs_) {
      engine::Engine engine;
      last_ = engine.evaluate(make_request(spec));
    }
  }

  [[nodiscard]] std::size_t ops() const override { return specs_.size(); }

  void op(std::size_t i) override {
    const engine::BoundRequest request = make_request(specs_[i]);
    telemetry::Span op_span("bench.op");
    engine::Engine engine;
    const Clock::time_point start = Clock::now();
    {
      telemetry::Span span("bench.engine_evaluate");
      last_ = engine.evaluate(request);
    }
    evaluate_ms_.push_back(seconds_since(start) * 1e3);
  }

  bool verify(std::size_t /*i*/) override {
    const std::vector<std::string> found = check_bound_rows(last_.rows);
    const bool complete = last_.rows.size() == 12;
    if (problems_.size() < 10) {
      for (const auto& problem : found)
        problems_.push_back(last_.graph + ": " + problem);
      if (!complete)
        problems_.push_back(last_.graph + ": expected 12 rows, got " +
                            std::to_string(last_.rows.size()));
    }
    return found.empty() && complete;
  }

  std::vector<std::string> check() override { return problems_; }

  std::map<std::string, double> take_extras() override {
    std::map<std::string, double> extras;
    extras["engine.evaluate_ms"] =
        median(std::exchange(evaluate_ms_, {}));
    return extras;
  }

 private:
  WorkloadConfig config_;
  std::vector<std::string> specs_;
  engine::BoundReport last_;
  std::vector<double> evaluate_ms_;
  std::vector<std::string> problems_;
};

}  // namespace

std::unique_ptr<Workload> make_bound_cold(const WorkloadConfig& config) {
  return std::make_unique<BoundCold>(config);
}

}  // namespace perfbench
