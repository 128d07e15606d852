// Tests for graphio::store::ArtifactStore — the typed content-addressed
// artifact store with an optional durable JSONL tier.
//
// The load-bearing guarantees certified here:
//   * every artifact kind round-trips through the disk tier bit-exactly
//     (doubles via to_chars/from_chars, so restart bounds are identical),
//   * torn/garbage log lines are counted and skipped, never served,
//   * erase() is memory-tier-only (the disk tier warms restarts),
//   * a cold-restarted StreamSession against a warm directory answers
//     every method with zero eigensolves/topo/min-cut/memsim/partition
//     computes and bit-identical bounds,
//   * a corrupted disk tier degrades to recompute, never to wrong results
//     (ISSUE satellite 4).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "graphio/engine/engine.hpp"
#include "graphio/engine/fingerprint.hpp"
#include "graphio/graph/builders.hpp"
#include "graphio/store/artifact_store.hpp"
#include "graphio/support/contracts.hpp"
#include "graphio/stream/session.hpp"

namespace graphio::store {
namespace {

/// Temp directory that cleans up after itself.
struct TempDir {
  std::filesystem::path path;
  explicit TempDir(const std::string& name)
      : path(std::filesystem::temp_directory_path() / name) {
    std::filesystem::remove_all(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
};

SpectralOptions lanczos_options() {
  SpectralOptions options;
  options.solver = la::SolverKind::kLanczos;
  return options;
}

ComponentSolve sample_solve() {
  ComponentSolve solve;
  solve.vertices = 5;
  solve.edges = 7;
  solve.solver = la::SolverKind::kLanczos;
  solve.solver_ran = true;
  solve.converged = true;
  // Awkward binary64 values: round-tripping through shortest-exact text
  // must reproduce them bit-for-bit.
  solve.values = {0.0, 0.1234567890123456789, std::nextafter(2.0, 3.0),
                  1e-300};
  return solve;
}

std::int64_t line_count(const std::filesystem::path& log) {
  std::ifstream in(log);
  std::string line;
  std::int64_t n = 0;
  while (std::getline(in, line))
    if (!line.empty()) ++n;
  return n;
}

// ----------------------------------------------------- disk round-trips

// The options key is persisted as "opts" on every artifacts.jsonl
// spectrum line, so its bytes are pinned: a stored key that stops matching
// silently turns a warm store cold. The leading 0 is a retired slot.
TEST(ArtifactStore, SpectralOptionsKeyBytesArePinned) {
  EXPECT_EQ(ArtifactStore::spectral_options_key(SpectralOptions{}),
            "0|auto|1|9.9999999999999995e-07|0.01|2048|4096|8|0|1024|120");
  SpectralOptions lanczos;
  lanczos.solver = la::SolverKind::kLanczos;
  EXPECT_EQ(ArtifactStore::spectral_options_key(lanczos),
            "0|lanczos|1|9.9999999999999995e-07|0.01|2048|4096|8|0|1024|120");
  SpectralOptions mono;
  mono.decompose = false;
  EXPECT_EQ(ArtifactStore::spectral_options_key(mono),
            "0|auto|0|9.9999999999999995e-07|0.01|2048|4096|8|0|1024|120");
}

// The key and solver_options_equal are one definition of "same solve":
// changing any solve input changes both, changing anything else neither.
TEST(ArtifactStore, SpectralOptionsKeyAgreesWithSolverOptionsEqual) {
  const SpectralOptions base;
  std::vector<SpectralOptions> variants(3, base);
  variants[0].solver = la::SolverKind::kDense;
  variants[1].decompose = false;
  variants[2].max_eigenvalues = 10;
  const std::string base_key = ArtifactStore::spectral_options_key(base);
  for (std::size_t i = 0; i < variants.size(); ++i) {
    const bool same = i == 2;
    EXPECT_EQ(solver_options_equal(base, variants[i]), same) << i;
    EXPECT_EQ(ArtifactStore::spectral_options_key(variants[i]) == base_key,
              same)
        << i;
  }
}

TEST(ArtifactStore, SpectrumRoundTripsBitExactAcrossRestart) {
  const TempDir dir("graphio_artifacts_spectrum");
  const SpectralOptions options = lanczos_options();
  const ComponentSolve solve = sample_solve();
  {
    ArtifactStore a(dir.path);
    a.store_spectrum(0xabcdefull, LaplacianKind::kOutDegreeNormalized, 4, options,
                     solve);
    EXPECT_EQ(a.stats().appended, 1);
  }
  ArtifactStore b(dir.path);
  EXPECT_EQ(b.stats().loaded, 1);
  EXPECT_EQ(b.stats().corrupt, 0);
  const auto hit =
      b.lookup_spectrum(0xabcdefull, LaplacianKind::kOutDegreeNormalized, 4, options);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(hit->from_cache);
  EXPECT_FALSE(hit->solver_ran);
  EXPECT_EQ(hit->vertices, solve.vertices);
  EXPECT_EQ(hit->edges, solve.edges);
  EXPECT_TRUE(hit->converged);
  ASSERT_EQ(hit->values.size(), solve.values.size());
  for (std::size_t i = 0; i < solve.values.size(); ++i)
    EXPECT_EQ(hit->values[i], solve.values[i]);  // bit-exact, not near

  // Different options group or a different Laplacian kind: miss.
  SpectralOptions other = options;
  other.decompose = false;
  EXPECT_FALSE(
      b.lookup_spectrum(0xabcdefull, LaplacianKind::kOutDegreeNormalized, 4, other));
  EXPECT_FALSE(
      b.lookup_spectrum(0xabcdefull, LaplacianKind::kPlain, 4, options));
}

TEST(ArtifactStore, NonConvergedSpectraStayMemoryOnly) {
  const TempDir dir("graphio_artifacts_partial");
  ComponentSolve partial = sample_solve();
  partial.converged = false;
  {
    ArtifactStore a(dir.path);
    a.store_spectrum(7, LaplacianKind::kOutDegreeNormalized, 4, lanczos_options(),
                     partial);
    // Served from memory within the process...
    EXPECT_TRUE(a.lookup_spectrum(7, LaplacianKind::kOutDegreeNormalized, 4,
                                  lanczos_options()));
    EXPECT_EQ(a.stats().appended, 0);
  }
  // ...but never across a restart: a degraded spectrum must not be
  // served forever.
  ArtifactStore b(dir.path);
  EXPECT_EQ(b.stats().loaded, 0);
  EXPECT_FALSE(b.lookup_spectrum(7, LaplacianKind::kOutDegreeNormalized, 4,
                                 lanczos_options()));
}

TEST(ArtifactStore, TopoMincutMemsimRoundTripAcrossRestart) {
  const TempDir dir("graphio_artifacts_kinds");
  TopoOrderArtifact topo;
  topo.order = {0, 2, 1, 3};
  MincutSweepArtifact sweep;
  sweep.best_cut = 9;
  sweep.best_vertex = 2;
  sweep.vertices_processed = 4;
  MemsimRowArtifact row;
  row.reads = 12;
  row.writes = 34;
  {
    ArtifactStore a(dir.path);
    a.insert<ArtifactKind::kTopoOrder>({11}, topo);
    a.insert<ArtifactKind::kMincutSweep>({11}, sweep);
    a.insert<ArtifactKind::kMemsimRow>(
        {11, /*memory=*/8, /*random_orders=*/3}, row);
    EXPECT_EQ(a.stats().appended, 3);
  }
  ArtifactStore b(dir.path);
  EXPECT_EQ(b.stats().loaded, 3);
  const auto t = b.lookup<ArtifactKind::kTopoOrder>({11});
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->order, topo.order);
  const auto c = b.lookup<ArtifactKind::kMincutSweep>({11});
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->best_cut, sweep.best_cut);
  EXPECT_EQ(c->best_vertex, sweep.best_vertex);
  EXPECT_EQ(c->vertices_processed, sweep.vertices_processed);
  EXPECT_TRUE(c->completed);
  const auto m = b.lookup<ArtifactKind::kMemsimRow>({11, 8, 3});
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->reads, row.reads);
  EXPECT_EQ(m->writes, row.writes);
  // Key dimensions are honored: other memory / orders miss.
  EXPECT_FALSE(b.lookup<ArtifactKind::kMemsimRow>({11, 16, 3}));
  EXPECT_FALSE(b.lookup<ArtifactKind::kMemsimRow>({11, 8, 4}));
}

TEST(ArtifactStore, IncompleteMincutSweepsStayMemoryOnly) {
  const TempDir dir("graphio_artifacts_mincut_partial");
  MincutSweepArtifact partial;
  partial.best_cut = 3;
  partial.completed = false;
  {
    ArtifactStore a(dir.path);
    a.insert<ArtifactKind::kMincutSweep>({5}, partial);
    EXPECT_EQ(a.stats().appended, 0);
  }
  ArtifactStore b(dir.path);
  EXPECT_FALSE(b.lookup<ArtifactKind::kMincutSweep>({5}));
}

TEST(ArtifactStore, MincutLineBytesAndUnknownEngineReplay) {
  const TempDir dir("graphio_artifacts_mincut_line");
  {
    ArtifactStore a(dir.path);
    a.insert<ArtifactKind::kMincutSweep>({0xAB}, MincutSweepArtifact{7, 3, 12});
  }
  std::ifstream in(dir.path / "artifacts.jsonl");
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line,
            "{\"kind\":\"mincut\",\"fp\":\"00000000000000ab\","
            "\"engine\":\"dinic\",\"best_cut\":7,\"best_vertex\":3,"
            "\"vertices_processed\":12}");
  in.close();
  {
    // Lines naming any engine but dinic are corrupt on replay.
    std::ofstream log(dir.path / "artifacts.jsonl", std::ios::app);
    log << "{\"kind\":\"mincut\",\"fp\":\"00000000000000cd\","
           "\"engine\":\"push-relabel\",\"best_cut\":7,"
           "\"best_vertex\":3,\"vertices_processed\":12}\n";
  }
  ArtifactStore b(dir.path);
  EXPECT_EQ(b.stats().loaded, 1);
  EXPECT_EQ(b.stats().corrupt, 1);
  EXPECT_TRUE(b.lookup<ArtifactKind::kMincutSweep>({0xAB}));
  EXPECT_FALSE(b.lookup<ArtifactKind::kMincutSweep>({0xCD}));
}

// ------------------------------------------------- corruption tolerance

TEST(ArtifactStore, SkipsCorruptLinesOnLoad) {
  const TempDir dir("graphio_artifacts_corrupt");
  {
    ArtifactStore a(dir.path);
    TopoOrderArtifact topo;
    topo.order = {0, 1};
    a.insert<ArtifactKind::kTopoOrder>({1}, topo);
    a.insert<ArtifactKind::kMemsimRow>({1, 4, 0}, MemsimRowArtifact{3, 4});
  }
  {
    // Torn write, plain garbage, wrong JSON shape, unknown kind.
    std::ofstream log(dir.path / "artifacts.jsonl", std::ios::app);
    log << "{\"kind\":\"topo\",\"fp\":\"00\n";
    log << "not json at all\n";
    log << "[1, 2, 3]\n";
    log << "{\"kind\":\"hologram\",\"fp\":\"0000000000000001\"}\n";
  }
  ArtifactStore b(dir.path);
  EXPECT_EQ(b.stats().loaded, 2);
  EXPECT_EQ(b.stats().corrupt, 4);
  // The valid entries still serve — corruption never poisons results.
  const auto t = b.lookup<ArtifactKind::kTopoOrder>({1});
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->order, (std::vector<VertexId>{0, 1}));
  const auto m = b.lookup<ArtifactKind::kMemsimRow>({1, 4, 0});
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->reads, 3);
}

TEST(ArtifactStore, TornTailWithoutNewlineKeepsTheNextArtifact) {
  const TempDir dir("graphio_artifacts_torn_tail");
  {
    ArtifactStore(dir.path).insert<ArtifactKind::kTopoOrder>(
        {1}, TopoOrderArtifact{{0, 1}});
  }
  {
    // A crash mid-append: the fragment has no trailing newline.
    std::ofstream log(dir.path / "artifacts.jsonl", std::ios::app);
    log << "{\"kind\":\"topo\",\"fp\":\"00";
  }
  {
    ArtifactStore a(dir.path);
    EXPECT_EQ(a.stats().corrupt, 1);
    a.insert<ArtifactKind::kMemsimRow>({2, 4, 0}, MemsimRowArtifact{5, 6});
    EXPECT_EQ(a.stats().appended, 1);
  }
  // The new artifact landed on its own line: it survives the next restart.
  ArtifactStore b(dir.path);
  EXPECT_EQ(b.stats().loaded, 2);
  EXPECT_EQ(b.stats().corrupt, 1);
  const auto m = b.lookup<ArtifactKind::kMemsimRow>({2, 4, 0});
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->reads, 5);
  EXPECT_EQ(m->writes, 6);
}

TEST(ArtifactStoreStream, CorruptedLogNeverPoisonsBounds) {
  const TempDir dir("graphio_artifacts_poison");
  {
    // Seed the log with nothing but garbage before any store exists.
    std::filesystem::create_directories(dir.path);
    std::ofstream log(dir.path / "artifacts.jsonl");
    log << "}}}}{{\n\x01\x02\x03\n{\"kind\":\"spectrum\"\n";
  }
  engine::BoundRequest req;
  req.memories = {4.0};
  req.methods = {"spectral", "mincut", "partition-dp"};

  stream::StreamSession poisoned(
      "poisoned", std::make_shared<ArtifactStore>(dir.path));
  poisoned.load("multi:3:fft:3");
  const engine::BoundReport got = poisoned.evaluate(req);
  EXPECT_EQ(poisoned.engine().artifact_store()->stats().corrupt, 3);

  stream::StreamSession clean("clean");
  clean.load("multi:3:fft:3");
  const engine::BoundReport want = clean.evaluate(req);

  ASSERT_EQ(got.rows.size(), want.rows.size());
  for (std::size_t i = 0; i < got.rows.size(); ++i) {
    EXPECT_EQ(got.rows[i].method, want.rows[i].method);
    EXPECT_EQ(got.rows[i].applicable, want.rows[i].applicable);
    EXPECT_EQ(got.rows[i].value, want.rows[i].value);
  }
}

// ------------------------------------------------ erase/compact/stats

TEST(ArtifactStore, EraseDropsMemoryTierOnly) {
  const TempDir dir("graphio_artifacts_erase");
  {
    ArtifactStore a(dir.path);
    a.store_spectrum(9, LaplacianKind::kOutDegreeNormalized, 2, lanczos_options(),
                     sample_solve());
    a.insert<ArtifactKind::kTopoOrder>({9}, TopoOrderArtifact{{0}});
    a.insert<ArtifactKind::kMincutSweep>({9}, MincutSweepArtifact{1, 0, 1});
    a.insert<ArtifactKind::kMemsimRow>({9, 4, 0}, MemsimRowArtifact{1, 1});
    // An unrelated fingerprint.
    a.insert<ArtifactKind::kTopoOrder>({10}, TopoOrderArtifact{{0}});
    EXPECT_EQ(a.stats().total().entries, 5);
    EXPECT_EQ(a.erase(9), 4);  // all kinds, one call
    EXPECT_EQ(a.stats().total().entries, 1);
    EXPECT_EQ(a.stats().total().evicted, 4);
    EXPECT_FALSE(a.lookup<ArtifactKind::kTopoOrder>({9}));
    EXPECT_TRUE(a.lookup<ArtifactKind::kTopoOrder>({10}));
    EXPECT_EQ(a.erase(9), 0);  // idempotent
  }
  // The disk tier is append-only: a restart resurrects everything.
  ArtifactStore b(dir.path);
  EXPECT_EQ(b.stats().loaded, 5);
  EXPECT_TRUE(b.lookup<ArtifactKind::kTopoOrder>({9}));
  EXPECT_TRUE(b.lookup_spectrum(9, LaplacianKind::kOutDegreeNormalized, 2,
                                lanczos_options()));
}

TEST(ArtifactStore, CompactRewritesLogToLiveEntries) {
  const TempDir dir("graphio_artifacts_compact");
  ArtifactStore a(dir.path);
  // Erase-then-restore cycles accumulate duplicate log lines.
  for (int round = 0; round < 3; ++round) {
    a.insert<ArtifactKind::kTopoOrder>({1}, TopoOrderArtifact{{0, 1}});
    a.insert<ArtifactKind::kMemsimRow>({1, 4, 0}, MemsimRowArtifact{2, 2});
    a.erase(1);
  }
  a.insert<ArtifactKind::kTopoOrder>({1}, TopoOrderArtifact{{0, 1}});
  EXPECT_EQ(line_count(dir.path / "artifacts.jsonl"), 7);
  EXPECT_EQ(a.compact(), 1);  // only the topo order is live
  EXPECT_EQ(line_count(dir.path / "artifacts.jsonl"), 1);
  // The compacted log replays cleanly.
  ArtifactStore b(dir.path);
  EXPECT_EQ(b.stats().loaded, 1);
  EXPECT_TRUE(b.lookup<ArtifactKind::kTopoOrder>({1}));
}

TEST(ArtifactStore, PerKindStatsCountHitsAndMisses) {
  ArtifactStore store;  // memory-only
  EXPECT_FALSE(store.durable());
  EXPECT_FALSE(store.lookup<ArtifactKind::kTopoOrder>({1}));
  store.insert<ArtifactKind::kTopoOrder>({1}, TopoOrderArtifact{{0}});
  EXPECT_TRUE(store.lookup<ArtifactKind::kTopoOrder>({1}));
  EXPECT_FALSE(store.lookup<ArtifactKind::kMincutSweep>({1}));
  EXPECT_FALSE(store.lookup<ArtifactKind::kMemsimRow>({1, 4, 0}));
  const ArtifactStore::Stats s = store.stats();
  EXPECT_EQ(s[ArtifactKind::kTopoOrder].hits, 1);
  EXPECT_EQ(s[ArtifactKind::kTopoOrder].misses, 1);
  EXPECT_EQ(s[ArtifactKind::kTopoOrder].entries, 1);
  EXPECT_EQ(s[ArtifactKind::kMincutSweep].misses, 1);
  EXPECT_EQ(s[ArtifactKind::kMemsimRow].misses, 1);
  EXPECT_EQ(s[ArtifactKind::kSpectrum].hits, 0);
  EXPECT_EQ(s.total().hits, 1);
  EXPECT_EQ(s.total().misses, 3);
  EXPECT_EQ(s.total().entries, 1);
}

TEST(ArtifactStore, CompactRequiresDurableTier) {
  ArtifactStore store;
  EXPECT_THROW(store.compact(), contract_error);
}

// ------------------------------------------- cold-restart warm path

/// ISSUE satellite 3: kill the process (destroy the session), start a new
/// one against the same --store-artifacts directory, re-query every
/// method: zero eigensolves, zero topo/min-cut/memsim computes, and
/// bit-identical bounds.
TEST(ArtifactStoreStream, ColdRestartWarmPathAnswersAllMethods) {
  const TempDir dir("graphio_artifacts_restart");
  engine::BoundRequest req;
  req.memories = {4.0, 8.0};
  req.methods = {"all"};
  req.spectral.max_eigenvalues = 6;

  engine::BoundReport cold;
  {
    stream::StreamSession session(
        "restart", std::make_shared<ArtifactStore>(dir.path));
    session.load("multi:3:fft:3");
    cold = session.evaluate(req);
    EXPECT_GT(cold.cache.eigensolves, 0);
    EXPECT_GT(cold.cache.topo_computes, 0);
    EXPECT_GT(cold.cache.mincut_sweeps, 0);
    EXPECT_GT(cold.cache.memsim_runs, 0);
    EXPECT_GT(cold.cache.partition_runs, 0);
  }  // session gone; only the JSONL log survives

  stream::StreamSession session(
      "restart", std::make_shared<ArtifactStore>(dir.path));
  session.load("multi:3:fft:3");
  const engine::BoundReport warm = session.evaluate(req);

  // The headline guarantee: the disk tier answers everything.
  EXPECT_EQ(warm.cache.eigensolves, 0);
  EXPECT_EQ(warm.cache.topo_computes, 0);
  EXPECT_EQ(warm.cache.mincut_sweeps, 0);
  EXPECT_EQ(warm.cache.memsim_runs, 0);
  EXPECT_EQ(warm.cache.partition_runs, 0);

  // Bit-identical bounds, row by row (doubles compared with ==, not near:
  // the JSONL tier serializes binary64 exactly).
  ASSERT_EQ(warm.rows.size(), cold.rows.size());
  for (std::size_t i = 0; i < warm.rows.size(); ++i) {
    EXPECT_EQ(warm.rows[i].method, cold.rows[i].method);
    EXPECT_EQ(warm.rows[i].memory, cold.rows[i].memory);
    EXPECT_EQ(warm.rows[i].applicable, cold.rows[i].applicable);
    if (warm.rows[i].applicable) {
      EXPECT_EQ(warm.rows[i].value, cold.rows[i].value)
          << "method " << warm.rows[i].method << " at M="
          << warm.rows[i].memory;
      EXPECT_EQ(warm.rows[i].converged, cold.rows[i].converged);
    }
  }
}

// ------------------------------------------------- eigenbasis LRU tier

/// A basis of `cols` columns × `n` rows whose bytes() is deterministic,
/// tagged so lookups can tell bases apart.
Eigenbasis sample_basis(std::size_t n, std::size_t cols, int tag) {
  Eigenbasis basis;
  for (std::size_t j = 0; j < cols; ++j)
    basis.vectors.emplace_back(n, static_cast<double>(tag));
  basis.source_iterations = tag;
  return basis;
}

TEST(ArtifactStore, EigenbasisTierOffByDefault) {
  ArtifactStore store;
  EXPECT_EQ(store.eigenbasis_budget(), 0);
  store.store_eigenbasis(1, LaplacianKind::kPlain, sample_basis(8, 2, 1));
  EXPECT_FALSE(store.lookup_eigenbasis(1, LaplacianKind::kPlain));
  EXPECT_EQ(store.stats()[ArtifactKind::kEigenbasis].entries, 0);
  EXPECT_EQ(store.eigenbasis_bytes(), 0);
}

TEST(ArtifactStore, EigenbasisLruEvictsLeastRecentlyUsedWithinBudget) {
  ArtifactStore store;
  const auto one = static_cast<std::int64_t>(sample_basis(64, 4, 0).bytes());
  store.set_eigenbasis_budget(2 * one);  // room for exactly two bases

  store.store_eigenbasis(1, LaplacianKind::kPlain, sample_basis(64, 4, 1));
  store.store_eigenbasis(2, LaplacianKind::kPlain, sample_basis(64, 4, 2));
  EXPECT_EQ(store.stats()[ArtifactKind::kEigenbasis].entries, 2);
  EXPECT_LE(store.eigenbasis_bytes(), 2 * one);

  // Touch 1 so 2 becomes the LRU victim when 3 arrives.
  EXPECT_TRUE(store.lookup_eigenbasis(1, LaplacianKind::kPlain));
  store.store_eigenbasis(3, LaplacianKind::kPlain, sample_basis(64, 4, 3));
  EXPECT_EQ(store.stats()[ArtifactKind::kEigenbasis].entries, 2);
  EXPECT_EQ(store.stats()[ArtifactKind::kEigenbasis].evicted, 1);
  EXPECT_TRUE(store.lookup_eigenbasis(1, LaplacianKind::kPlain));
  EXPECT_FALSE(store.lookup_eigenbasis(2, LaplacianKind::kPlain));
  EXPECT_TRUE(store.lookup_eigenbasis(3, LaplacianKind::kPlain));

  // Shrinking the budget to zero drops everything resident.
  store.set_eigenbasis_budget(0);
  EXPECT_EQ(store.stats()[ArtifactKind::kEigenbasis].entries, 0);
  EXPECT_EQ(store.eigenbasis_bytes(), 0);
  EXPECT_FALSE(store.lookup_eigenbasis(1, LaplacianKind::kPlain));
}

TEST(ArtifactStore, EigenbasisAdoptRekeysAndEraseDrops) {
  ArtifactStore store;
  store.set_eigenbasis_budget(1 << 20);
  store.store_eigenbasis(10, LaplacianKind::kPlain, sample_basis(8, 2, 1));
  store.store_eigenbasis(10, LaplacianKind::kOutDegreeNormalized,
                         sample_basis(8, 2, 2));

  // Adoption moves every kind's basis to the successor fingerprint and
  // records the predecessor; the old key is gone.
  store.adopt_eigenbasis(10, 11);
  EXPECT_FALSE(store.lookup_eigenbasis(10, LaplacianKind::kPlain));
  const auto plain = store.lookup_eigenbasis(11, LaplacianKind::kPlain);
  ASSERT_TRUE(plain.has_value());
  EXPECT_EQ(plain->predecessor, 10u);
  EXPECT_EQ(plain->source_iterations, 1);
  const auto norm =
      store.lookup_eigenbasis(11, LaplacianKind::kOutDegreeNormalized);
  ASSERT_TRUE(norm.has_value());
  EXPECT_EQ(norm->source_iterations, 2);
  EXPECT_EQ(store.stats()[ArtifactKind::kEigenbasis].entries, 2);

  // A successor that already retained its own basis keeps it.
  store.store_eigenbasis(20, LaplacianKind::kPlain, sample_basis(8, 2, 5));
  store.store_eigenbasis(21, LaplacianKind::kPlain, sample_basis(8, 2, 6));
  store.adopt_eigenbasis(20, 21);
  const auto kept = store.lookup_eigenbasis(21, LaplacianKind::kPlain);
  ASSERT_TRUE(kept.has_value());
  EXPECT_EQ(kept->source_iterations, 6);

  // erase() takes bases with the rest of the fingerprint's entries.
  const std::int64_t bytes_before = store.eigenbasis_bytes();
  EXPECT_GT(store.erase(11), 0);
  EXPECT_FALSE(store.lookup_eigenbasis(11, LaplacianKind::kPlain));
  EXPECT_LT(store.eigenbasis_bytes(), bytes_before);
  EXPECT_GT(store.stats()[ArtifactKind::kEigenbasis].evicted, 0);
}

// ------------------------------------------------------- partition rows

TEST(ArtifactStore, PartitionRowRoundTripsBitExactAcrossRestart) {
  const TempDir dir("graphio_artifacts_partition");
  PartitionRowArtifact row;
  row.objective = -0.1234567890123456789;  // awkward binary64, negative
  row.segments = 7;
  const double memory = 3.0000000000000004;  // must key exactly
  {
    ArtifactStore a(dir.path);
    a.insert<ArtifactKind::kPartitionRow>({42, memory}, row);
    EXPECT_EQ(a.stats().appended, 1);
    const auto hit = a.lookup<ArtifactKind::kPartitionRow>({42, memory});
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->objective, row.objective);
  }
  ArtifactStore b(dir.path);
  EXPECT_EQ(b.stats().loaded, 1);
  const auto hit = b.lookup<ArtifactKind::kPartitionRow>({42, memory});
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->objective, row.objective);  // bit-exact
  EXPECT_EQ(hit->segments, row.segments);
  // A nearby-but-different memory value is a different key.
  EXPECT_FALSE(b.lookup<ArtifactKind::kPartitionRow>({42, 3.0}));
  EXPECT_EQ(b.stats()[ArtifactKind::kPartitionRow].hits, 1);
  EXPECT_EQ(b.stats()[ArtifactKind::kPartitionRow].misses, 1);

  // erase() is memory-tier-only for partition rows too.
  EXPECT_GT(b.erase(42), 0);
  EXPECT_FALSE(b.lookup<ArtifactKind::kPartitionRow>({42, memory}));
  ArtifactStore c(dir.path);
  EXPECT_TRUE(c.lookup<ArtifactKind::kPartitionRow>({42, memory}));
}

}  // namespace
}  // namespace graphio::store
