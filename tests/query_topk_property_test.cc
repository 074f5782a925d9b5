// Oracle property tests for the rank-driven query engine.
//
//   * top-k: for many seeds, TopKDiscover's answer must equal "full
//     discovery -> rank -> truncate to k" with the deterministic tie order,
//     for every k from 1 past the cover size — the early-termination bound
//     must never cost a top-k member.
//   * approximate: tane(eps), dhyfd(eps), and the query engine must all
//     produce exactly the brute-force minimal approximate cover (every
//     candidate tested with the g3 removal counter over all LHS subsets).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "algo/dhyfd.h"
#include "algo/discovery.h"
#include "algo/tane.h"
#include "partition/partition_ops.h"
#include "query/engine.h"
#include "test_util.h"

namespace dhyfd {
namespace {

using testutil::FromValues;
using testutil::RandomRelation;

std::string CoverString(FdSet fds) {
  fds.sort();
  std::string out;
  for (const Fd& fd : fds.fds) {
    out += fd.to_string();
    out += "\n";
  }
  return out;
}

std::string RankedString(const std::vector<RankedFd>& fds) {
  std::string out;
  for (const RankedFd& f : fds) {
    out += f.fd.to_string();
    out += " score=";
    out += std::to_string(f.score);
    out += "\n";
  }
  return out;
}

/// Exponential reference: the minimal approximate cover under the g3
/// removal budget, by testing every (X, A) candidate directly.
FdSet BruteForceApproxCover(const Relation& r, double epsilon) {
  const int m = r.num_cols();
  const int64_t budget = ApproxRemovalBudget(epsilon, r.num_rows());
  const int num_sets = 1 << m;
  // valid[x] = bitmask of RHS attributes A (not in X) with removals <= budget.
  std::vector<std::uint32_t> valid(num_sets, 0);
  for (int mask = 0; mask < num_sets; ++mask) {
    AttributeSet x;
    for (int a = 0; a < m; ++a) {
      if (mask & (1 << a)) x.set(a);
    }
    StrippedPartition pi = BuildPartition(r, x);
    for (AttrId a = 0; a < m; ++a) {
      if (x.test(a)) continue;
      if (ApproxFdRemovals(r, pi, a) <= budget) valid[mask] |= 1u << a;
    }
  }
  FdSet out;
  for (int mask = 0; mask < num_sets; ++mask) {
    std::uint32_t rhs = valid[mask];
    if (!rhs) continue;
    // Minimal iff no proper subset (drop one attribute) already validates A.
    for (int a = 0; a < m && rhs; ++a) {
      if (mask & (1 << a)) rhs &= ~valid[mask & ~(1 << a)];
    }
    for (AttrId a = 0; a < m; ++a) {
      if (!(rhs & (1u << a))) continue;
      AttributeSet x;
      for (int b = 0; b < m; ++b) {
        if (mask & (1 << b)) x.set(b);
      }
      out.add(Fd(x, a));
    }
  }
  return out;
}

TEST(TopKOracleTest, TopKEqualsFullRankTruncate) {
  // >= 8 seeds over varied shapes; each sweeps k across the whole range.
  struct Case {
    int seed, rows, cols, domain;
    double null_rate;
  };
  const std::vector<Case> cases = {
      {101, 30, 4, 2, 0.0}, {102, 50, 5, 3, 0.0},  {103, 80, 4, 4, 0.1},
      {104, 25, 6, 2, 0.0}, {105, 120, 5, 6, 0.0}, {106, 40, 5, 3, 0.3},
      {107, 60, 6, 2, 0.1}, {108, 90, 4, 8, 0.0},  {109, 15, 5, 2, 0.5},
  };
  for (const Case& c : cases) {
    Relation r = RandomRelation(c.seed, c.rows, c.cols, c.domain, c.null_rate);
    QueryResult full = QueryEngine().execute(r, DiscoveryQuery{});
    const std::size_t n = full.fds.size();
    for (std::uint32_t k = 1; k <= n + 1; ++k) {
      DiscoveryQuery q;
      q.top_k = k;
      QueryResult got = QueryEngine().execute(r, q);
      std::vector<RankedFd> expected(
          full.fds.begin(),
          full.fds.begin() + std::min<std::size_t>(k, n));
      EXPECT_EQ(RankedString(got.fds), RankedString(expected))
          << "seed=" << c.seed << " k=" << k;
    }
  }
}

TEST(TopKOracleTest, TopKUnderEpsilonAndArity) {
  // The truncate oracle must also hold with epsilon and arity bounds mixed
  // in, since the top-k walk prunes with all three at once.
  for (int seed : {201, 202, 203, 204, 205, 206, 207, 208}) {
    Relation r = RandomRelation(seed, 40, 5, 3, 0.1);
    DiscoveryQuery base;
    base.epsilon = 0.1;
    base.max_lhs = 2;
    QueryResult full = QueryEngine().execute(r, base);
    for (std::uint32_t k : {1u, 2u, 3u, 5u}) {
      DiscoveryQuery q = base;
      q.top_k = k;
      QueryResult got = QueryEngine().execute(r, q);
      std::vector<RankedFd> expected(
          full.fds.begin(),
          full.fds.begin() +
              std::min<std::size_t>(k, full.fds.size()));
      EXPECT_EQ(RankedString(got.fds), RankedString(expected))
          << "seed=" << seed << " k=" << k;
    }
  }
}

TEST(ApproxOracleTest, AlgorithmsMatchBruteForceApproxCover) {
  for (int seed : {301, 302, 303, 304, 305, 306, 307, 308}) {
    Relation r = RandomRelation(seed, 24, 4, 2, seed % 2 ? 0.2 : 0.0);
    for (double eps : {0.05, 0.15, 0.4}) {
      FdSet expected = BruteForceApproxCover(r, eps);
      DiscoveryConfig config;
      config.epsilon = eps;
      EXPECT_EQ(CoverString(Tane(config).discover(r).fds), CoverString(expected))
          << "tane seed=" << seed << " eps=" << eps;
      EXPECT_EQ(CoverString(Dhyfd({config}).discover(r).fds),
                CoverString(expected))
          << "dhyfd seed=" << seed << " eps=" << eps;
      DiscoveryQuery q;
      q.epsilon = eps;
      EXPECT_EQ(CoverString(QueryEngine().execute(r, q).cover()),
                CoverString(expected))
          << "query seed=" << seed << " eps=" << eps;
      // The top-k lattice under the same epsilon, with k past the cover
      // size, must find the identical cover.
      q.top_k = static_cast<std::uint32_t>(expected.size()) + 1;
      EXPECT_EQ(CoverString(QueryEngine().execute(r, q).cover()),
                CoverString(expected))
          << "topk seed=" << seed << " eps=" << eps;
    }
  }
}

TEST(ApproxOracleTest, EpsilonZeroMatchesExactBruteForce) {
  for (int seed : {401, 402, 403, 404}) {
    Relation r = RandomRelation(seed, 30, 4, 3);
    FdSet exact = BruteForceDiscover(r);
    FdSet approx0 = BruteForceApproxCover(r, 0);
    EXPECT_EQ(CoverString(approx0), CoverString(exact)) << seed;
  }
}

}  // namespace
}  // namespace dhyfd
