#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <set>
#include <sstream>
#include <vector>

#include "graphio/support/contracts.hpp"
#include "graphio/support/parallel.hpp"
#include "graphio/support/prng.hpp"
#include "graphio/support/table.hpp"
#include "graphio/support/timer.hpp"

namespace graphio {
namespace {

TEST(Contracts, ExpectsThrowsOnViolation) {
  EXPECT_THROW(GIO_EXPECTS(1 == 2), contract_error);
  EXPECT_NO_THROW(GIO_EXPECTS(1 == 1));
  EXPECT_THROW(GIO_EXPECTS_MSG(false, "context"), contract_error);
}

TEST(Contracts, MessageMentionsConditionAndContext) {
  try {
    GIO_EXPECTS_MSG(false, "helpful note");
    FAIL() << "should have thrown";
  } catch (const contract_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("false"), std::string::npos);
    EXPECT_NE(what.find("helpful note"), std::string::npos);
  }
}

TEST(Prng, DeterministicForEqualSeeds) {
  Prng a(42);
  Prng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Prng, DifferentSeedsDiverge) {
  Prng a(1);
  Prng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += a() == b() ? 1 : 0;
  EXPECT_LT(equal, 4);
}

TEST(Prng, UniformInUnitInterval) {
  Prng rng(7);
  double lo = 1.0;
  double hi = 0.0;
  double sum = 0.0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    lo = std::min(lo, u);
    hi = std::max(hi, u);
    sum += u;
  }
  EXPECT_LT(lo, 0.01);
  EXPECT_GT(hi, 0.99);
  EXPECT_NEAR(sum / trials, 0.5, 0.02);
}

TEST(Prng, BelowIsUnbiasedAcrossRange) {
  Prng rng(11);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 50000; ++i) ++counts[rng.below(10)];
  for (int c : counts) EXPECT_NEAR(c, 5000, 450);
}

TEST(Prng, NormalHasUnitVariance) {
  Prng rng(13);
  double sum = 0.0;
  double sq = 0.0;
  const int trials = 50000;
  for (int i = 0; i < trials; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / trials, 0.0, 0.03);
  EXPECT_NEAR(sq / trials, 1.0, 0.05);
}

TEST(Prng, ShuffleIsAPermutation) {
  Prng rng(17);
  std::vector<int> items{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  rng.shuffle(items);
  std::set<int> seen(items.begin(), items.end());
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Prng, SplitStreamsAreIndependent) {
  Prng a(3);
  Prng b = a.split();
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += a() == b() ? 1 : 0;
  EXPECT_LT(equal, 4);
}

TEST(Timer, MeasuresElapsedTime) {
  WallTimer t;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i)
    sink = sink + std::sqrt(static_cast<double>(i));
  EXPECT_GE(t.seconds(), 0.0);
  const double first = t.milliseconds();
  const double second = t.milliseconds();
  EXPECT_GE(second, first);  // monotone across calls
}

TEST(Table, AlignsColumnsAndCountsRows) {
  Table t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer-name", "2.5"});
  EXPECT_EQ(t.rows(), 2u);
  std::ostringstream os;
  t.print(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("longer-name"), std::string::npos);
  EXPECT_NE(text.find("value"), std::string::npos);
}

TEST(Table, RejectsMisshapenRows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), contract_error);
}

TEST(Table, CsvEscapesSpecialCells) {
  Table t({"a", "b"});
  t.add_row({"plain", "with,comma"});
  t.add_row({"with\"quote", "x"});
  std::ostringstream os;
  t.write_csv(os);
  const std::string csv = os.str();
  EXPECT_NE(csv.find("\"with,comma\""), std::string::npos);
  EXPECT_NE(csv.find("\"with\"\"quote\""), std::string::npos);
}

TEST(FormatDouble, TrimsTrailingZeros) {
  EXPECT_EQ(format_double(12.5), "12.5");
  EXPECT_EQ(format_double(3.0), "3");
  EXPECT_EQ(format_double(0.125, 3), "0.125");
  EXPECT_EQ(format_double(std::nan("")), "-");
}

// parallel_for / parallel_for_dynamic must produce the same result as a
// serial loop in every build flavor: OpenMP, the no-OpenMP build (serial
// parallel_for, std::thread parallel_for_dynamic), and the degraded serial
// paths (n < 2, nested regions). The bodies write disjoint slots per CP.2,
// so these also serve as the ThreadSanitizer CI job's data-race probes.

TEST(Parallel, HardwareThreadsIsPositive) {
  EXPECT_GE(hardware_threads(), 1);
}

TEST(Parallel, StaticScheduleCoversEveryIndexOnce) {
  // Large enough that an OpenMP team splits it across every thread.
  const std::int64_t n = 10000;
  std::vector<int> touched(static_cast<std::size_t>(n), 0);
  parallel_for(n, [&](std::int64_t i) {
    ++touched[static_cast<std::size_t>(i)];
  });
  for (std::int64_t i = 0; i < n; ++i)
    ASSERT_EQ(touched[static_cast<std::size_t>(i)], 1) << i;
}

TEST(Parallel, DynamicScheduleCoversEveryIndexOnce) {
  const std::int64_t n = 257;
  std::vector<int> touched(static_cast<std::size_t>(n), 0);
  parallel_for_dynamic(n, [&](std::int64_t i) {
    ++touched[static_cast<std::size_t>(i)];
  });
  for (std::int64_t i = 0; i < n; ++i)
    ASSERT_EQ(touched[static_cast<std::size_t>(i)], 1) << i;
}

TEST(Parallel, HandlesSmallAndEmptyRanges) {
  // Atomic: both loops may split even n = 3 across several threads
  // (OpenMP always, the no-OpenMP parallel_for_dynamic from n = 2).
  std::atomic<int> calls{0};
  parallel_for(0, [&](std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  parallel_for(3, [&](std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 3);
  parallel_for_dynamic(0, [&](std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 3);
  parallel_for_dynamic(1, [&](std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 4);
}

TEST(Parallel, SerialRegionForcesSerialExecutionInEveryBuild) {
  // Inside a SerialRegion the loop must run on the calling thread only —
  // a non-atomic counter would race otherwise. Holds for OpenMP and the
  // std::thread fallback alike (the serve scheduler relies on it to stop
  // worker-level × loop-level thread multiplication).
  const SerialRegion guard;
  const std::int64_t n = 100000;
  std::int64_t counter = 0;
  parallel_for(n, [&](std::int64_t) { ++counter; });
  EXPECT_EQ(counter, n);
  parallel_for_dynamic(1000, [&](std::int64_t) { ++counter; });
  EXPECT_EQ(counter, n + 1000);
}

TEST(Parallel, NestedRegionsStaySafe) {
  // An outer dynamic loop whose body runs an inner parallel_for: the
  // inner loop must run serially instead of oversubscribing (the
  // std::thread workers hold a SerialRegion; OpenMP has nesting
  // disabled). Totals must match the doubly-serial result either way.
  const std::int64_t outer = 8;
  const std::int64_t inner = 5000;
  std::vector<std::int64_t> sums(static_cast<std::size_t>(outer), 0);
  parallel_for_dynamic(outer, [&](std::int64_t o) {
    std::vector<std::int64_t> local(static_cast<std::size_t>(inner), 0);
    parallel_for(inner, [&](std::int64_t i) { local[
        static_cast<std::size_t>(i)] = i; });
    std::int64_t sum = 0;
    for (std::int64_t v : local) sum += v;
    sums[static_cast<std::size_t>(o)] = sum;
  });
  for (std::int64_t o = 0; o < outer; ++o)
    EXPECT_EQ(sums[static_cast<std::size_t>(o)],
              inner * (inner - 1) / 2);
}

}  // namespace
}  // namespace graphio
