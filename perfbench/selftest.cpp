// Self-test of the benchmark's own helpers: percentile math, the
// lower <= upper bound check, and the sorted batch-line diff. Exits 0 when
// every check holds; prints each failure otherwise.
//
//   python3 perfbench/run.py --selftest
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "common.hpp"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (ok) return;
  ++failures;
  std::cout << "FAIL: " << what << "\n";
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

graphio::engine::MethodRow row(const std::string& method, double memory,
                               double value) {
  using graphio::engine::BoundKind;
  graphio::engine::MethodRow r;
  r.method = method;
  r.memory = memory;
  r.value = value;
  r.kind = method == "memsim"         ? BoundKind::kUpper
           : method == "partition-dp" ? BoundKind::kCertificate
                                      : BoundKind::kLower;
  return r;
}

void test_percentile() {
  using perfbench::percentile;
  expect(percentile({}, 50) == 0.0, "empty sample gives 0");
  expect(near(percentile({7}, 90), 7), "single sample");
  expect(near(percentile({4, 1, 3, 2}, 50), 2.5), "even-count median");
  expect(near(percentile({3, 1, 2}, 50), 2), "odd-count median");
  std::vector<double> ten;
  for (int i = 1; i <= 10; ++i) ten.push_back(i);
  expect(near(percentile(ten, 90), 9.1), "p90 of 1..10 interpolates");
  expect(near(percentile(ten, 0), 1) && near(percentile(ten, 100), 10),
         "p0 / p100 are the extremes");
  expect(near(perfbench::median({5, 1, 9, 3}), 4), "median helper");
}

void test_bound_check() {
  using perfbench::check_bound_rows;
  std::vector<graphio::engine::MethodRow> rows = {
      row("spectral", 4, 10), row("mincut", 4, 20),
      row("partition-dp", 4, 50), row("memsim", 4, 40),
      row("spectral", 16, 0), row("memsim", 16, 5)};
  expect(check_bound_rows(rows).empty(),
         "sound report passes (a certificate may exceed memsim)");

  auto corrupted = rows;
  corrupted[1].value = 41;  // mincut above memsim at M=4
  expect(check_bound_rows(corrupted).size() == 1,
         "lower bound above the upper bound is rejected");

  corrupted = rows;
  corrupted[4].value = -1;
  expect(!check_bound_rows(corrupted).empty(), "negative row is rejected");

  corrupted = rows;
  corrupted[0].value = std::nan("");
  expect(!check_bound_rows(corrupted).empty(), "NaN row is rejected");

  corrupted = rows;
  corrupted[1].applicable = false;
  corrupted[1].value = 1e9;
  expect(check_bound_rows(corrupted).empty(),
         "inapplicable rows are skipped");
}

void test_line_diff() {
  const std::vector<std::string> cold = {R"({"job":1,"report":{"v":1}})",
                                         R"({"job":2,"report":{"v":2}})"};
  const std::vector<std::string> replay = {cold[1], cold[0]};
  expect(perfbench::diff_sorted_lines(cold, replay).empty(),
         "reordered lines compare equal");

  auto changed = replay;
  changed[0] = R"({"job":2,"report":{"v":3}})";
  const auto diff = perfbench::diff_sorted_lines(cold, changed);
  expect(diff.size() == 2, "a changed line shows as missing + unexpected");
  expect(!diff.empty() && diff[0].rfind("missing: ", 0) == 0,
         "missing line reported first");

  auto shorter = replay;
  shorter.pop_back();
  expect(perfbench::diff_sorted_lines(cold, shorter).size() == 1,
         "a dropped line is flagged");
}

void test_result_json() {
  const std::string json = perfbench::result_json(
      true, 3, 0, {{"latency_ms", 1.25, "ms"}, {"setup_s", 0.5, "s"}});
  expect(json == R"({"correct": true, "attempted": 3, "failed": 0, )"
                 R"("metrics": {"latency_ms": {"value": 1.25, "unit": "ms"}, )"
                 R"("setup_s": {"value": 0.5, "unit": "s"}}})",
         "result line format");
}

}  // namespace

int main() {
  test_percentile();
  test_bound_check();
  test_line_diff();
  test_result_json();
  if (failures == 0) std::cout << "perfbench selftest: all checks passed\n";
  return failures == 0 ? 0 : 1;
}
