// Cross-algorithm property tests: all six discovery algorithms must agree
// with the brute-force reference (and hence with each other) on randomized
// relations across rows/columns/domains/null-rate sweeps, under both null
// semantics. This is the repository's strongest end-to-end guarantee.
#include <gtest/gtest.h>

#include <tuple>

#include "algo/discovery.h"
#include "fd/cover.h"
#include "query/engine.h"
#include "relation/encoder.h"
#include "test_util.h"
#include "util/random.h"

namespace dhyfd {
namespace {

using testutil::CoverDifference;
using testutil::RandomRelation;

struct SweepCase {
  int seed;
  int rows;
  int cols;
  int domain;
  double null_rate;
};

class AlgorithmSweep
    : public ::testing::TestWithParam<std::tuple<std::string, SweepCase>> {};

TEST_P(AlgorithmSweep, AgreesWithBruteForce) {
  const auto& [algo_name, c] = GetParam();
  Relation r = RandomRelation(c.seed, c.rows, c.cols, c.domain, c.null_rate);
  FdSet expected = BruteForceDiscover(r);
  DiscoveryResult res = MakeDiscovery(algo_name)->discover(r);
  EXPECT_EQ(CoverDifference(expected, res.fds, c.cols), "")
      << algo_name << " rows=" << c.rows << " cols=" << c.cols
      << " domain=" << c.domain;
  // Left-reduced covers of the same relation with singleton RHSs are
  // unique, so sizes must match exactly.
  EXPECT_EQ(res.fds.size(), expected.size()) << algo_name;
  EXPECT_TRUE(IsLeftReduced(res.fds, c.cols)) << algo_name;
}

// epsilon = 0, k = 0, unbounded arity must reduce the query engine exactly
// to today's exact-discovery path: the cover equals brute force (and hence
// every algorithm above) on every sweep case.
class QueryEquivalenceSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(QueryEquivalenceSweep, UnconstrainedQueryEqualsExactDiscovery) {
  const SweepCase& c = GetParam();
  Relation r = RandomRelation(c.seed, c.rows, c.cols, c.domain, c.null_rate);
  FdSet expected = BruteForceDiscover(r);
  QueryResult res = QueryEngine().execute(r, DiscoveryQuery{});
  EXPECT_EQ(CoverDifference(expected, res.cover(), c.cols), "")
      << "seed=" << c.seed;
  EXPECT_EQ(res.fds.size(), expected.size());
  // The top-k lattice with k >= |cover| must find the identical cover.
  DiscoveryQuery all_k;
  all_k.top_k = static_cast<std::uint32_t>(expected.size()) + 1;
  QueryResult topk = QueryEngine().execute(r, all_k);
  EXPECT_EQ(CoverDifference(expected, topk.cover(), c.cols), "")
      << "topk seed=" << c.seed;
}

std::vector<SweepCase> SweepCases() {
  return {
      {1, 10, 3, 2, 0.0},   {2, 30, 4, 3, 0.0},   {3, 50, 5, 2, 0.0},
      {4, 80, 4, 5, 0.0},   {5, 25, 6, 2, 0.0},   {6, 120, 3, 8, 0.0},
      {7, 40, 5, 3, 0.2},   {8, 60, 4, 4, 0.1},   {9, 35, 7, 2, 0.0},
      {10, 200, 4, 10, 0.0}, {11, 15, 5, 2, 0.5},  {12, 70, 5, 4, 0.05},
  };
}

std::string SweepName(
    const ::testing::TestParamInfo<std::tuple<std::string, SweepCase>>& info) {
  return std::get<0>(info.param) + "_s" +
         std::to_string(std::get<1>(info.param).seed);
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, AlgorithmSweep,
    ::testing::Combine(::testing::ValuesIn(AllDiscoveryNames()),
                       ::testing::ValuesIn(SweepCases())),
    SweepName);

INSTANTIATE_TEST_SUITE_P(
    AllCases, QueryEquivalenceSweep, ::testing::ValuesIn(SweepCases()),
    [](const ::testing::TestParamInfo<SweepCase>& info) {
      return "s" + std::to_string(info.param.seed);
    });

TEST(DiscoveryFactoryTest, KnownNames) {
  for (const std::string& name : AllDiscoveryNames()) {
    auto algo = MakeDiscovery(name);
    EXPECT_EQ(algo->name(), name);
  }
  // Names outside the paper's line-up, DFD / FastFDs / Dep-Miner included.
  for (const char* name : {"nope", "dfd", "fastfds", "depminer"}) {
    EXPECT_THROW(MakeDiscovery(name), std::invalid_argument) << name;
  }
}

TEST(NullSemanticsPropertyTest, NotEqualsYieldsSupersetOfFds) {
  // Under null != null every null is unique, so agree sets shrink and more
  // FDs hold: the null != null cover must imply... every FD that holds
  // under null = null also holds under null != null? Not in general — but
  // the count tends to grow. We assert the precise per-relation behaviour:
  // both covers are exact for their own encodings.
  RawTable t;
  t.header = {"a", "b", "c"};
  for (int i = 0; i < 40; ++i) {
    std::string a = (i % 7 == 0) ? "" : "a" + std::to_string(i % 5);
    std::string b = (i % 11 == 0) ? "" : "b" + std::to_string(i % 3);
    std::string c = "c" + std::to_string((i % 5 + i % 3) % 4);
    t.rows.push_back({a, b, c});
  }
  for (NullSemantics sem :
       {NullSemantics::kNullEqualsNull, NullSemantics::kNullNotEqualsNull}) {
    EncodedRelation e = EncodeRelation(t, sem);
    FdSet expected = BruteForceDiscover(e.relation);
    for (const std::string& name : AllDiscoveryNames()) {
      DiscoveryResult res = MakeDiscovery(name)->discover(e.relation);
      EXPECT_EQ(CoverDifference(expected, res.fds, 3), "")
          << name << " sem=" << static_cast<int>(sem);
    }
  }
}

}  // namespace
}  // namespace dhyfd
