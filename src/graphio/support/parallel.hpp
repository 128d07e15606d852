// Shared-memory parallelism helpers.
//
// The library parallelizes its hot loops (CSR matvec, reorthogonalization,
// the per-vertex min-cut sweep) with OpenMP when available. Builds without
// OpenMP (e.g. the ThreadSanitizer CI job) run parallel_for serially, since
// its fine-grained bodies do not pay for a thread spawn per call, and
// parallel_for_dynamic, whose bodies are heavyweight (a max-flow per index),
// on std::threads that take indices from an atomic counter.
//
// These are data-parallel loops inside one request. Requests themselves
// fan out only through serve::Scheduler (batch, serve and `graphio
// compare`), whose workers hold a SerialRegion when there are several of
// them, so every parallel loop they reach degrades to serial in both
// build flavors; without it, N workers concurrently eigensolving would
// each spawn hardware_threads() more threads (N× oversubscription).
#pragma once

#include <cstdint>

#if defined(GRAPHIO_HAS_OPENMP)
#include <omp.h>
#else
#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>
#endif

namespace graphio {

/// Number of worker threads a parallel loop may use.
inline int hardware_threads() noexcept {
#if defined(GRAPHIO_HAS_OPENMP)
  return omp_get_max_threads();
#else
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0U ? 1 : static_cast<int>(hc);
#endif
}

namespace detail {

/// True while the calling thread must not fan out further (it is inside a
/// parallel_for body, or holds a SerialRegion).
inline bool& serial_override() noexcept {
  thread_local bool flag = false;
  return flag;
}

}  // namespace detail

/// RAII: while alive, every parallel_for / parallel_for_dynamic on this
/// thread runs serially. Outer thread pools wrap their worker loops in
/// one so inner library loops never oversubscribe the machine. Nestable.
class SerialRegion {
 public:
  SerialRegion() noexcept : previous_(detail::serial_override()) {
    detail::serial_override() = true;
  }
  ~SerialRegion() { detail::serial_override() = previous_; }
  SerialRegion(const SerialRegion&) = delete;
  SerialRegion& operator=(const SerialRegion&) = delete;

 private:
  bool previous_;
};

/// Runs body(i) for i in [0, n) — in parallel under OpenMP, serially
/// otherwise. The body must write to disjoint state per index (no
/// synchronization is provided; C++ Core Guidelines CP.2: avoid data races
/// by construction) and must not throw.
template <typename Body>
void parallel_for(std::int64_t n, const Body& body) {
#if defined(GRAPHIO_HAS_OPENMP)
  if (detail::serial_override()) {
    for (std::int64_t i = 0; i < n; ++i) body(i);
    return;
  }
#pragma omp parallel for schedule(static)
  for (std::int64_t i = 0; i < n; ++i) body(i);
#else
  for (std::int64_t i = 0; i < n; ++i) body(i);
#endif
}

/// Same but with a dynamic schedule; used when per-index work is skewed
/// (e.g. the convex min-cut sweep where max-flow cost varies per vertex).
/// Fewer than two indices run serially, without a thread team.
template <typename Body>
void parallel_for_dynamic(std::int64_t n, const Body& body) {
#if defined(GRAPHIO_HAS_OPENMP)
  if (n < 2 || detail::serial_override()) {
    for (std::int64_t i = 0; i < n; ++i) body(i);
    return;
  }
#pragma omp parallel for schedule(dynamic, 1)
  for (std::int64_t i = 0; i < n; ++i) body(i);
#else
  const int threads =
      static_cast<int>(std::min<std::int64_t>(hardware_threads(), n));
  if (threads < 2 || detail::serial_override()) {
    for (std::int64_t i = 0; i < n; ++i) body(i);
    return;
  }
  std::atomic<std::int64_t> next{0};
  auto worker = [&]() noexcept {
    const SerialRegion nested_guard;
    for (std::int64_t i = next++; i < n; i = next++) body(i);
  };
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads - 1));
  for (int t = 1; t < threads; ++t) pool.emplace_back(worker);
  worker();  // the calling thread participates
  for (std::thread& t : pool) t.join();
#endif
}

}  // namespace graphio
