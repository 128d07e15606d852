// Engine — the unified front door to every bound/estimate in the library.
//
//   engine::Engine eng;
//   engine::BoundRequest req;
//   req.spec = "fft:8";
//   req.memories = {4, 8, 16};
//   req.methods = {"all"};
//   engine::BoundReport report = eng.evaluate(req);
//   std::cout << report.to_json() << "\n";
//
// The Engine owns one ArtifactCache per spec-addressed graph, so the
// expensive shared artifacts — topological orders, eigen-spectra,
// wavefront cut sweeps — are computed once and reused across every
// method, every M of a sweep, and every later request for the same spec. An Engine serves one thread at a time; a corpus of
// requests fans out through serve::Scheduler, whose workers each own one.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "graphio/engine/artifact_cache.hpp"
#include "graphio/engine/report.hpp"
#include "graphio/engine/request.hpp"
#include "graphio/support/contracts.hpp"

namespace graphio::engine {

class Engine {
 public:
  Engine() = default;

  /// Shares an existing content-addressed artifact store instead of
  /// owning a private (memory-only) one — the serve scheduler hands one
  /// instance to every worker Engine, so a component shared across specs
  /// computes each artifact once per process even when the specs shard to
  /// different workers; with a disk tier attached, once ever. The store
  /// is mutex-guarded; everything else about the Engines stays
  /// independent.
  explicit Engine(std::shared_ptr<store::ArtifactStore> store)
      : store_(std::move(store)) {
    GIO_EXPECTS_MSG(store_ != nullptr,
                    "shared artifact store must not be null");
  }

  /// Evaluates one request: resolves the graph (building it on first use
  /// of a spec), runs every selected method over the memory sweep, and
  /// returns the structured report. Throws contract_error on malformed
  /// requests (unknown method id, empty sweep, unresolvable spec);
  /// per-method failures are reported as inapplicable rows, not thrown.
  BoundReport evaluate(const BoundRequest& request);

  /// Builds (or fetches from cache) the graph a spec resolves to without
  /// evaluating anything — for callers that need structural facts (vertex
  /// count, degrees) before shaping a request.
  const Digraph& graph(const std::string& spec);

  /// Registers (or replaces) `name` as an explicit graph: later requests
  /// whose spec equals `name` evaluate against it with a persistent
  /// ArtifactCache, exactly like a family spec. Replacing drops the old
  /// cache's whole-graph artifacts (they describe a graph that no longer
  /// exists) while per-component artifacts survive in the shared
  /// content-addressed artifact store — the invalidation granularity the
  /// stream subsystem relies on. The name must not itself parse as a
  /// family spec or name an existing graph file (a later plain request
  /// for that spec would silently read the installed graph instead).
  /// The graph is a LazyGraph: it is never materialized unless a
  /// whole-graph method (pebble-exact, monolithic spectra) actually runs.
  /// The `seed` (engine/artifact_cache.hpp) pre-installs the component
  /// decomposition and per-component fingerprints, so artifact queries
  /// skip decomposition and re-hashing entirely and extract only the
  /// components whose fingerprints miss the store. This is the stream
  /// session's post-patch handoff.
  void install_graph(const std::string& name, LazyGraph graph,
                     ComponentSeed seed);

  /// Content fingerprint of the graph a spec resolves to (building the
  /// graph on first use, like graph()). The serve ResultStore keys disk
  /// records with this, so equal graphs share warm results regardless of
  /// how their requests spell the spec.
  std::uint64_t fingerprint(const std::string& spec);

  /// The cache backing a spec, or nullptr if that spec has not been
  /// evaluated yet (test/introspection hook).
  [[nodiscard]] const ArtifactCache* cache(const std::string& spec) const;

  /// Lifetime totals of every ArtifactCache this Engine created —
  /// spec-addressed, installed (the stream session reinstalls after every
  /// patch) and explicit-graph caches alike, each adding into them as it
  /// counts. The serve layer sums these across its workers for the batch
  /// summary footer.
  [[nodiscard]] ArtifactCache::Stats stats() const { return totals_; }

  /// The content-addressed artifact store shared by every ArtifactCache
  /// this Engine creates — spec-addressed and explicit-graph caches
  /// alike — so a component shared across specs computes each artifact
  /// kind once.
  [[nodiscard]] const std::shared_ptr<store::ArtifactStore>&
  artifact_store() const noexcept {
    return store_;
  }

  /// Drops all cached graphs and artifacts (including the store's
  /// memory tier; an attached disk tier is untouched).
  void clear();

 private:
  ArtifactCache& ensure_cache(const std::string& spec);
  BoundReport evaluate_with_cache(const BoundRequest& request,
                                  ArtifactCache& cache);

  std::shared_ptr<store::ArtifactStore> store_ =
      std::make_shared<store::ArtifactStore>();
  std::unordered_map<std::string, std::unique_ptr<ArtifactCache>> caches_;
  ArtifactCache::Stats totals_;
};

}  // namespace graphio::engine

namespace graphio {
// Headline alias: the Engine is the library's recommended entry point.
using engine::Engine;
}  // namespace graphio
