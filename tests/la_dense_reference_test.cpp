// The row-wise dense kernels against the column-walking tred2/tql2 they
// replaced (tests/dense_reference.hpp): T, Q, eigenvalues and
// eigenvectors must agree bit for bit, not just to a tolerance.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "dense_reference.hpp"
#include "graphio/engine/graph_spec.hpp"
#include "graphio/graph/builders.hpp"
#include "graphio/graph/components.hpp"
#include "graphio/graph/laplacian.hpp"
#include "graphio/la/householder.hpp"
#include "graphio/la/symmetric_eigen.hpp"
#include "graphio/la/tridiagonal.hpp"
#include "graphio/support/prng.hpp"

namespace graphio::la {
namespace {

struct Case {
  std::string name;
  DenseMatrix a;
};

DenseMatrix random_symmetric(std::size_t n, std::uint64_t seed) {
  Prng rng(seed);
  DenseMatrix a(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j <= i; ++j) {
      const double v = rng.uniform(-1.0, 1.0);
      a(i, j) = v;
      a(j, i) = v;
    }
  return a;
}

std::vector<Case> reference_cases() {
  std::vector<Case> cases;
  // Every residue of n mod 4 for the four-row blocks, and both sides of
  // the power-of-two sizes.
  for (std::size_t n : {0, 1, 2, 3, 4, 5, 7, 8, 9, 31, 64, 100, 128, 129, 200})
    cases.push_back({"random n=" + std::to_string(n),
                     random_symmetric(n, 1000 + n)});
  // scale == 0 on every row.
  DenseMatrix diag(9, 9);
  for (std::size_t i = 0; i < 9; ++i) diag(i, i) = 3.0 - static_cast<double>(i);
  cases.push_back({"diagonal", std::move(diag)});
  // An isolated vertex first, in the middle and last: a zero row and
  // column, so scale == 0 where that row is reduced.
  const std::vector<std::pair<std::string, std::vector<Digraph>>> isolated{
      {"first", {Digraph(1), builders::path(8)}},
      {"middle", {builders::path(8), Digraph(1), builders::cycle(5)}},
      {"last", {builders::fft(3), Digraph(1)}}};
  for (const auto& [where, parts] : isolated)
    for (LaplacianKind kind :
         {LaplacianKind::kPlain, LaplacianKind::kOutDegreeNormalized})
      cases.push_back({"isolated vertex " + where,
                       dense_laplacian(disjoint_union(parts), kind)});
  // Disconnected: three copies of fft:3, a repeated zero eigenvalue.
  const Digraph multi = engine::GraphSpec::parse("multi:3:fft:3").build();
  for (LaplacianKind kind :
       {LaplacianKind::kPlain, LaplacianKind::kOutDegreeNormalized})
    cases.push_back({"multi:3:fft:3", dense_laplacian(multi, kind)});
  return cases;
}

void expect_bitwise(std::span<const double> got, std::span<const double> want,
                    const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < got.size(); ++i)
    if (std::bit_cast<std::uint64_t>(got[i]) !=
        std::bit_cast<std::uint64_t>(want[i]))
      ++mismatches;
  EXPECT_EQ(mismatches, 0u) << what;
}

TEST(Householder, ReductionMatchesReferenceBitwise) {
  for (const Case& c : reference_cases()) {
    for (bool accumulate : {false, true}) {
      DenseMatrix got_q = c.a;
      DenseMatrix want_q = c.a;
      const SymTridiag got = householder_tridiagonalize(got_q, accumulate);
      const SymTridiag want =
          reference::householder_tridiagonalize(want_q, accumulate);
      const std::string what =
          c.name + (accumulate ? " (accumulate)" : " (values)");
      expect_bitwise(got.diag, want.diag, "T diagonal, " + what);
      expect_bitwise(got.off, want.off, "T off-diagonal, " + what);
      if (accumulate) expect_bitwise(got_q.data(), want_q.data(), "Q, " + what);
    }
  }
}

TEST(Tridiagonal, EigenvectorsMatchReferenceBitwise) {
  for (const Case& c : reference_cases()) {
    DenseMatrix scratch = c.a;
    const SymTridiag t = householder_tridiagonalize(scratch, false);
    const TridiagEigen got = tridiagonal_eigen(t);

    // The reference rotates columns of Z = I, then sorts the pairs.
    const std::size_t n = t.diag.size();
    std::vector<double> d = t.diag;
    std::vector<double> e = t.off;
    DenseMatrix z = DenseMatrix::identity(n);
    reference::ql_implicit_shift(d, e, &z);
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [&](std::size_t x, std::size_t y) { return d[x] < d[y]; });
    std::vector<double> values(n);
    DenseMatrix vectors(n, n);
    for (std::size_t j = 0; j < n; ++j) {
      values[j] = d[order[j]];
      for (std::size_t i = 0; i < n; ++i) vectors(i, j) = z(i, order[j]);
    }
    expect_bitwise(got.values, values, "values, " + c.name);
    expect_bitwise(got.vectors.data(), vectors.data(), "vectors, " + c.name);
  }
}

TEST(SymmetricEigen, MatchesReferenceBitwise) {
  for (const Case& c : reference_cases()) {
    expect_bitwise(symmetric_eigenvalues(c.a),
                   reference::symmetric_eigenvalues(c.a),
                   "values only, " + c.name);
    const SymmetricEigen got = symmetric_eigen(c.a);
    const SymmetricEigen want = reference::symmetric_eigen(c.a);
    expect_bitwise(got.values, want.values, "values, " + c.name);
    expect_bitwise(got.vectors.data(), want.vectors.data(),
                   "vectors, " + c.name);
  }
}

}  // namespace
}  // namespace graphio::la
