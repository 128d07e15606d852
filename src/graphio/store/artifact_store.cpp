#include "graphio/store/artifact_store.hpp"

#include <array>
#include <iterator>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>

#include "graphio/engine/fingerprint.hpp"
#include "graphio/io/json.hpp"
#include "graphio/support/contracts.hpp"
#include "graphio/telemetry/metrics.hpp"
#include "graphio/telemetry/trace.hpp"

namespace graphio::store {

namespace {

const char* kind_name(ArtifactKind kind) {
  return kKindNames[static_cast<std::size_t>(kind)];
}

// The registry side of Stats, by its counter tables: `store.<kind>.<key>`
// for every kind in kKindNames and `store.disk.<key>`, resolved together
// on first use. Process-wide lifetime totals; one relaxed atomic add per
// event once resolved.
struct Registry {
  std::array<telemetry::Mirror<ArtifactStore::KindStats>, kKindNames.size()>
      kinds;
  telemetry::Mirror<ArtifactStore::Stats> disk;
};

const Registry& registry() {
  static const Registry r{
      []<std::size_t... I>(std::index_sequence<I...>) {
        return std::array{telemetry::Mirror<ArtifactStore::KindStats>(
            std::string("store.") + kKindNames[I] + ".")...};
      }(std::make_index_sequence<kKindNames.size()>()),
      telemetry::Mirror<ArtifactStore::Stats>("store.disk.")};
  return r;
}

/// Counts one lookup in the per-instance stats and the registry, plus a
/// marker event under the current span (a method or stream query span)
/// when tracing is on — the hit/miss attribution per lookup the counters
/// cannot give.
void count_lookup(ArtifactStore::Stats& stats, ArtifactKind kind, bool hit) {
  using KindStats = ArtifactStore::KindStats;
  const auto& mirror = registry().kinds[static_cast<std::size_t>(kind)];
  if (hit)
    mirror.add<&KindStats::hits>(stats[kind], 1);
  else
    mirror.add<&KindStats::misses>(stats[kind], 1);
  telemetry::Tracer& tracer = telemetry::Tracer::global();
  if (!tracer.enabled()) return;
  tracer.instant(hit ? "store.hit" : "store.miss",
                 {telemetry::Attr::str("kind", kind_name(kind))});
}

/// Counts `n` entries dropped from the memory tier.
void count_evicted(ArtifactStore::Stats& stats, ArtifactKind kind,
                   std::int64_t n) {
  stats[kind].entries -= n;
  registry().kinds[static_cast<std::size_t>(kind)]
      .add<&ArtifactStore::KindStats::evicted>(stats[kind], n);
}

std::string_view lap_name(LaplacianKind kind) {
  return kind == LaplacianKind::kPlain ? "plain" : "norm";
}

LaplacianKind lap_from(const std::string& s) {
  if (s == "plain") return LaplacianKind::kPlain;
  if (s == "norm") return LaplacianKind::kOutDegreeNormalized;
  GIO_EXPECTS_MSG(false, "unknown laplacian kind '" + s + "'");
  return LaplacianKind::kPlain;  // unreachable
}

la::SolverKind solver_from(const std::string& s) {
  const std::optional<la::SolverKind> kind = la::parse_solver_policy(s);
  GIO_EXPECTS_MSG(kind.has_value(), "unknown solver kind '" + s + "'");
  return *kind;
}

std::string spectrum_line(std::uint64_t fp, LaplacianKind kind,
                          int requested, const std::string& options_key,
                          const ComponentSolve& solve) {
  io::JsonWriter w;
  w.begin_object();
  w.key("kind").value("spectrum");
  w.key("fp").value(engine::fingerprint_hex(fp));
  w.key("lap").value(lap_name(kind));
  w.key("opts").value(options_key);
  w.key("requested").value(requested);
  w.key("vertices").value(solve.vertices);
  w.key("edges").value(solve.edges);
  w.key("solver").value(la::to_string(solve.solver));
  w.key("converged").value(solve.converged);
  // Provenance of the producing solve, written only when non-default so
  // pre-existing logs stay byte-compatible and replay stays cheap.
  if (solve.iterations != 0) w.key("iterations").value(solve.iterations);
  if (solve.warm_started) w.key("warm").value(true);
  if (solve.refresh) w.key("refresh").value(true);
  if (solve.max_residual != 0.0)
    w.key("residual").value(solve.max_residual);
  if (solve.warm_predecessor != 0)
    w.key("pred").value(engine::fingerprint_hex(solve.warm_predecessor));
  if (!solve.solver_reason.empty())
    w.key("reason").value(solve.solver_reason);
  w.key("values").begin_array();
  for (double v : solve.values) w.value(v);
  w.end_array();
  w.end_object();
  return w.str();
}

ComponentSolve spectrum_from(const io::JsonValue& v) {
  ComponentSolve solve;
  solve.vertices = v.at("vertices").as_int();
  solve.edges = v.at("edges").as_int();
  solve.solver = solver_from(v.at("solver").as_string());
  solve.converged = v.at("converged").as_bool();
  // Optional provenance keys (absent in logs written before they
  // existed — defaults are the cold-solve values).
  if (const io::JsonValue* it = v.get("iterations"))
    solve.iterations = static_cast<int>(it->as_int());
  if (const io::JsonValue* warm = v.get("warm"))
    solve.warm_started = warm->as_bool();
  if (const io::JsonValue* refresh = v.get("refresh"))
    solve.refresh = refresh->as_bool();
  if (const io::JsonValue* residual = v.get("residual"))
    solve.max_residual = residual->as_double();
  if (const io::JsonValue* pred = v.get("pred"))
    solve.warm_predecessor = engine::parse_fingerprint_hex(pred->as_string());
  if (const io::JsonValue* reason = v.get("reason"))
    solve.solver_reason = reason->as_string();
  solve.from_disk = true;  // this entry's values crossed a process restart
  for (const io::JsonValue& item : v.at("values").items())
    solve.values.push_back(item.as_double());
  return solve;
}

// ------------------------------------------------ uniform-kind codecs
// A table line is {"kind": …, "fp": …, <fields>}; each kind writes and
// reads its key options and value fields here.

void encode_fields(io::JsonWriter& w, const std::tuple<std::uint64_t>&,
                   const TopoOrderArtifact& topo) {
  w.key("order").begin_array();
  for (VertexId v : topo.order) w.value(v);
  w.end_array();
}

void decode_fields(const io::JsonValue& v, std::tuple<std::uint64_t>&,
                   TopoOrderArtifact& topo) {
  for (const io::JsonValue& item : v.at("order").items())
    topo.order.push_back(item.as_int());
}

// Every mincut line names the "dinic" engine so existing logs replay
// byte-for-byte; a line naming any other engine replays as corrupt.
void encode_fields(io::JsonWriter& w, const std::tuple<std::uint64_t>&,
                   const MincutSweepArtifact& sweep) {
  w.key("engine").value("dinic");
  w.key("best_cut").value(sweep.best_cut);
  w.key("best_vertex").value(sweep.best_vertex);
  w.key("vertices_processed").value(sweep.vertices_processed);
}

void decode_fields(const io::JsonValue& v, std::tuple<std::uint64_t>&,
                   MincutSweepArtifact& sweep) {
  const std::string& engine = v.at("engine").as_string();
  GIO_EXPECTS_MSG(engine == "dinic", "unknown flow engine '" + engine + "'");
  sweep.best_cut = v.at("best_cut").as_int();
  sweep.best_vertex = v.at("best_vertex").as_int();
  sweep.vertices_processed = v.at("vertices_processed").as_int();
  // `completed` keeps its default: only completed sweeps are persisted.
}

void encode_fields(io::JsonWriter& w,
                   const std::tuple<std::uint64_t, std::int64_t, int>& key,
                   const MemsimRowArtifact& row) {
  w.key("memory").value(std::get<1>(key));
  w.key("orders").value(std::get<2>(key));
  w.key("reads").value(row.reads);
  w.key("writes").value(row.writes);
}

void decode_fields(const io::JsonValue& v,
                   std::tuple<std::uint64_t, std::int64_t, int>& key,
                   MemsimRowArtifact& row) {
  std::get<1>(key) = v.at("memory").as_int();
  std::get<2>(key) = static_cast<int>(v.at("orders").as_int());
  row.reads = v.at("reads").as_int();
  row.writes = v.at("writes").as_int();
}

void encode_fields(io::JsonWriter& w,
                   const std::tuple<std::uint64_t, double>& key,
                   const PartitionRowArtifact& row) {
  w.key("memory").value(std::get<1>(key));
  w.key("objective").value(row.objective);
  w.key("segments").value(row.segments);
}

void decode_fields(const io::JsonValue& v,
                   std::tuple<std::uint64_t, double>& key,
                   PartitionRowArtifact& row) {
  std::get<1>(key) = v.at("memory").as_double();
  row.objective = v.at("objective").as_double();
  row.segments = v.at("segments").as_int();
}

/// Whether an entry may reach the disk tier: a time-budget-cut min-cut
/// sweep is a valid but degraded bound that must not be served forever.
template <class Value>
bool persisted(const Value&) {
  return true;
}
bool persisted(const MincutSweepArtifact& sweep) { return sweep.completed; }

template <class T>
std::string table_line(const T&, const typename T::Key& key,
                       const typename T::Value& value) {
  io::JsonWriter w;
  w.begin_object();
  w.key("kind").value(kind_name(T::kind));
  w.key("fp").value(engine::fingerprint_hex(std::get<0>(key)));
  encode_fields(w, key, value);
  w.end_object();
  return w.str();
}

/// First write wins; returns true when the entry is new.
template <class T>
bool put(T& table, ArtifactStore::Stats& stats, const typename T::Key& key,
         const typename T::Value& value) {
  if (!table.map.emplace(key, value).second) return false;
  ++stats[T::kind].entries;
  return true;
}

/// One field of spectral_options_key.
template <class T>
void append_key_field(std::string& out, const T& field) {
  if constexpr (std::is_same_v<T, bool>)
    out += field ? '1' : '0';
  else if constexpr (std::is_floating_point_v<T>)
    out += io::format_double_exact(field);
  else if constexpr (std::is_integral_v<T>)
    out += std::to_string(field);
  else
    out += la::solver_policy_name(field);
}

}  // namespace

std::string ArtifactStore::spectral_options_key(
    const SpectralOptions& options) {
  // solve_inputs, pipe-joined; the solver policy names are identifiers, so
  // '|' never collides. The leading 0 is the slot of a retired per-call
  // tier switch, kept so stored keys stay valid. For the same reason the
  // residual tolerance, the warm refresh gate and the four Lanczos
  // settings, once per-call options, are constants (kBoundRelTol,
  // la::kWarmRefreshRelTol, kBoundLanczos) in the slots the options had.
  std::string out = "0";
  std::apply(
      [&out](const auto&... field) {
        ((out += '|', append_key_field(out, field)), ...);
      },
      solve_inputs(options));
  return out;
}

ArtifactStore::ArtifactStore(const std::filesystem::path& dir) {
  log_.emplace(dir, JsonlLog::Spec{"artifacts.jsonl", "artifact store",
                                   "store.disk", "artifact store disk tier",
                                   "continuing memory-only"});
  std::int64_t loaded = 0;
  const std::int64_t corrupt =
      log_->replay([this, &loaded](const std::string& line) {
        replay_line_locked(line);
        ++loaded;
      });
  registry().disk.add<&Stats::loaded>(stats_, loaded);
  registry().disk.add<&Stats::corrupt>(stats_, corrupt);
  telemetry::Tracer& tracer = telemetry::Tracer::global();
  if (tracer.enabled()) {
    tracer.instant("store.replay",
                   {telemetry::Attr::integer("loaded", stats_.loaded),
                    telemetry::Attr::integer("corrupt", stats_.corrupt)});
  }
}

void ArtifactStore::replay_line_locked(const std::string& line) {
  const io::JsonValue v = io::JsonValue::parse(line);
  const std::string& kind = v.at("kind").as_string();
  const std::uint64_t fp =
      engine::parse_fingerprint_hex(v.at("fp").as_string());
  if (kind == "spectrum") {
    put_spectrum_locked(fp, lap_from(v.at("lap").as_string()),
                        static_cast<int>(v.at("requested").as_int()),
                        v.at("opts").as_string(), spectrum_from(v));
    return;
  }
  bool known = false;
  for_each_table([&](auto& table) {
    using T = std::decay_t<decltype(table)>;
    if (known || kind != kind_name(T::kind)) return;
    known = true;
    typename T::Key key;
    std::get<0>(key) = fp;
    typename T::Value value;
    decode_fields(v, key, value);
    put(table, stats_, key, value);
  });
  GIO_EXPECTS_MSG(known, "unknown artifact kind '" + kind + "'");
}

void ArtifactStore::append_locked(const std::string& line) {
  if (log_->append(line))
    registry().disk.add<&Stats::appended>(stats_, 1);
}

const std::filesystem::path& ArtifactStore::path() const noexcept {
  static const std::filesystem::path none;
  return log_ ? log_->path() : none;
}

// ------------------------------------------------------------- spectrum

std::optional<ComponentSolve> ArtifactStore::lookup_spectrum(
    std::uint64_t fingerprint, LaplacianKind kind, int count,
    const SpectralOptions& options) {
  const std::string key = spectral_options_key(options);
  const std::scoped_lock lock(mutex_);
  const auto it = spectra_.find({fingerprint, kind});
  if (it != spectra_.end()) {
    for (const SpectrumEntry& entry : it->second) {
      if (entry.requested < count || entry.options_key != key) continue;
      count_lookup(stats_, ArtifactKind::kSpectrum, true);
      ComponentSolve solve = entry.solve;
      // Truncate to the request (values are ascending, so the prefix IS
      // the smallest `count`) — equal-count requests then see one
      // deterministic answer regardless of population order.
      if (static_cast<int>(solve.values.size()) > count)
        solve.values.resize(static_cast<std::size_t>(count));
      solve.from_cache = true;
      solve.solver_ran = false;  // this call ran no eigensolver
      solve.seconds = 0.0;
      return solve;
    }
  }
  count_lookup(stats_, ArtifactKind::kSpectrum, false);
  return std::nullopt;
}

bool ArtifactStore::put_spectrum_locked(std::uint64_t fingerprint,
                                        LaplacianKind kind, int requested,
                                        const std::string& options_key,
                                        const ComponentSolve& solve) {
  std::vector<SpectrumEntry>& slots = spectra_[{fingerprint, kind}];
  for (SpectrumEntry& entry : slots) {
    if (entry.options_key != options_key) continue;
    // Two workers can race to solve the same component; keep the entry
    // that answers more future requests (ties keep the existing one).
    if (entry.requested >= requested) return false;
    entry.solve = solve;
    entry.solve.from_cache = false;
    entry.requested = requested;
    return true;
  }
  SpectrumEntry entry;
  entry.options_key = options_key;
  entry.requested = requested;
  entry.solve = solve;
  entry.solve.from_cache = false;
  slots.push_back(std::move(entry));
  ++stats_[ArtifactKind::kSpectrum].entries;
  return true;
}

void ArtifactStore::store_spectrum(std::uint64_t fingerprint,
                                   LaplacianKind kind, int requested,
                                   const SpectralOptions& options,
                                   const ComponentSolve& solve) {
  const std::string key = spectral_options_key(options);
  const std::scoped_lock lock(mutex_);
  if (!put_spectrum_locked(fingerprint, kind, requested, key, solve)) return;
  if (durable() && solve.converged)
    append_locked(spectrum_line(fingerprint, kind, requested, key, solve));
}

// ---------------------------------------------------- uniform kinds

template <ArtifactKind K>
std::optional<ArtifactStore::Artifact<K>> ArtifactStore::lookup(
    const Key<K>& key) {
  static_assert(TableOf<K>::kind == K,
                "Tables must follow ArtifactKind order");
  const std::scoped_lock lock(mutex_);
  const auto& map = std::get<TableOf<K>>(tables_).map;
  const auto it = map.find(key);
  count_lookup(stats_, K, it != map.end());
  if (it == map.end()) return std::nullopt;
  return it->second;
}

template <ArtifactKind K>
void ArtifactStore::insert(const Key<K>& key, const Artifact<K>& artifact) {
  const std::scoped_lock lock(mutex_);
  auto& table = std::get<TableOf<K>>(tables_);
  if (put(table, stats_, key, artifact) && durable() && persisted(artifact))
    append_locked(table_line(table, key, artifact));
}

// lookup and insert, compiled for each uniform kind.
#define GIO_UNIFORM_KIND(K)                                          \
  template std::optional<ArtifactStore::Artifact<K>>                 \
  ArtifactStore::lookup<K>(const Key<K>&);                           \
  template void ArtifactStore::insert<K>(const Key<K>&, const Artifact<K>&)
GIO_UNIFORM_KIND(ArtifactKind::kTopoOrder);
GIO_UNIFORM_KIND(ArtifactKind::kMincutSweep);
GIO_UNIFORM_KIND(ArtifactKind::kMemsimRow);
GIO_UNIFORM_KIND(ArtifactKind::kPartitionRow);
#undef GIO_UNIFORM_KIND

// ----------------------------------------------------------- eigenbasis

std::optional<Eigenbasis> ArtifactStore::lookup_eigenbasis(
    std::uint64_t fingerprint, LaplacianKind kind) {
  const std::scoped_lock lock(mutex_);
  if (basis_budget_ > 0) {
    const auto it = bases_.find({fingerprint, kind});
    if (it != bases_.end()) {
      it->second.last_used = ++basis_tick_;
      count_lookup(stats_, ArtifactKind::kEigenbasis, true);
      return it->second.basis;
    }
  }
  count_lookup(stats_, ArtifactKind::kEigenbasis, false);
  return std::nullopt;
}

void ArtifactStore::store_eigenbasis(std::uint64_t fingerprint,
                                     LaplacianKind kind, Eigenbasis basis) {
  const std::scoped_lock lock(mutex_);
  if (basis_budget_ <= 0) return;  // tier off: drop on the floor
  const auto bytes = static_cast<std::int64_t>(basis.bytes());
  auto [it, inserted] = bases_.try_emplace({fingerprint, kind});
  if (!inserted) basis_bytes_ -= static_cast<std::int64_t>(it->second.bytes);
  else ++stats_[ArtifactKind::kEigenbasis].entries;
  it->second.basis = std::move(basis);
  it->second.bytes = static_cast<std::size_t>(bytes);
  it->second.last_used = ++basis_tick_;
  basis_bytes_ += bytes;
  evict_eigenbases_locked();
}

void ArtifactStore::adopt_eigenbasis(std::uint64_t from, std::uint64_t to) {
  const std::scoped_lock lock(mutex_);
  if (from == to || bases_.empty()) return;
  auto it = bases_.lower_bound({from, LaplacianKind{}});
  while (it != bases_.end() && it->first.first == from) {
    BasisEntry entry = std::move(it->second);
    const LaplacianKind kind = it->first.second;
    it = bases_.erase(it);
    entry.basis.predecessor = from;
    auto [slot, inserted] = bases_.try_emplace({to, kind});
    if (!inserted) {
      // The successor already has its own basis — keep it, drop ours.
      basis_bytes_ -= static_cast<std::int64_t>(entry.bytes);
      --stats_[ArtifactKind::kEigenbasis].entries;
      continue;
    }
    slot->second = std::move(entry);
  }
}

void ArtifactStore::evict_eigenbases_locked() {
  while (basis_bytes_ > basis_budget_ && !bases_.empty()) {
    auto victim = bases_.begin();
    for (auto it = bases_.begin(); it != bases_.end(); ++it)
      if (it->second.last_used < victim->second.last_used) victim = it;
    basis_bytes_ -= static_cast<std::int64_t>(victim->second.bytes);
    bases_.erase(victim);
    count_evicted(stats_, ArtifactKind::kEigenbasis, 1);
  }
}

void ArtifactStore::set_eigenbasis_budget(std::int64_t bytes) {
  const std::scoped_lock lock(mutex_);
  basis_budget_ = bytes < 0 ? 0 : bytes;
  if (basis_budget_ == 0) {
    stats_[ArtifactKind::kEigenbasis].entries -=
        static_cast<std::int64_t>(bases_.size());
    bases_.clear();
    basis_bytes_ = 0;
  } else {
    evict_eigenbases_locked();
  }
}

std::int64_t ArtifactStore::eigenbasis_budget() const {
  const std::scoped_lock lock(mutex_);
  return basis_budget_;
}

std::int64_t ArtifactStore::eigenbasis_bytes() const {
  const std::scoped_lock lock(mutex_);
  return basis_bytes_;
}

// ------------------------------------------------------------- lifetime

std::int64_t ArtifactStore::erase(std::uint64_t fingerprint) {
  const std::scoped_lock lock(mutex_);
  std::int64_t removed = 0;
  // The spectrum and basis maps key by (fingerprint, Laplacian kind), so a
  // fingerprint's entries form one contiguous range from the smallest kind.
  for (auto it = spectra_.lower_bound({fingerprint, LaplacianKind{}});
       it != spectra_.end() && it->first.first == fingerprint;
       it = spectra_.erase(it)) {
    const auto n = static_cast<std::int64_t>(it->second.size());
    count_evicted(stats_, ArtifactKind::kSpectrum, n);
    removed += n;
  }
  for_each_table([&](auto& table) {
    const auto [first, last] = table.map.equal_range(fingerprint);
    const auto n = static_cast<std::int64_t>(std::distance(first, last));
    if (n == 0) return;
    table.map.erase(first, last);
    count_evicted(stats_, std::decay_t<decltype(table)>::kind, n);
    removed += n;
  });
  for (auto it = bases_.lower_bound({fingerprint, LaplacianKind{}});
       it != bases_.end() && it->first.first == fingerprint;
       it = bases_.erase(it)) {
    basis_bytes_ -= static_cast<std::int64_t>(it->second.bytes);
    count_evicted(stats_, ArtifactKind::kEigenbasis, 1);
    ++removed;
  }
  return removed;
}

void ArtifactStore::clear() {
  const std::scoped_lock lock(mutex_);
  spectra_.clear();
  bases_.clear();
  basis_bytes_ = 0;
  for_each_table([](auto& table) { table.map.clear(); });
  for (KindStats& kind : stats_.kinds) kind.entries = 0;
}

std::int64_t ArtifactStore::compact() {
  const std::scoped_lock lock(mutex_);
  GIO_EXPECTS_MSG(durable(), "artifact store has no disk tier to compact");
  return log_->compact([this](std::ostream& out) {
    std::int64_t written = 0;
    for (const auto& [key, slots] : spectra_)
      for (const SpectrumEntry& entry : slots) {
        if (!entry.solve.converged) continue;  // never persisted
        out << spectrum_line(key.first, key.second, entry.requested,
                             entry.options_key, entry.solve)
            << '\n';
        ++written;
      }
    for_each_table([&](const auto& table) {
      for (const auto& [key, value] : table.map) {
        if (!persisted(value)) continue;
        out << table_line(table, key, value) << '\n';
        ++written;
      }
    });
    return written;
  });
}

void ArtifactStore::sync() {
  const std::scoped_lock lock(mutex_);
  if (durable()) log_->sync();
}

ArtifactStore::Stats ArtifactStore::stats() const {
  const std::scoped_lock lock(mutex_);
  Stats out = stats_;
  out.eigenbasis_bytes = basis_bytes_;
  out.demoted = log_ && log_->demoted();
  return out;
}

}  // namespace graphio::store
