// Parallel-equals-sequential equivalence: sharded DHyFD/HyFD runs must
// return bit-identical covers (same FDs, same order) to their sequential
// counterparts at every degree, across the same randomized sweep the
// cross-algorithm property tests use — including the approximate (epsilon >
// 0), arity-bounded, and query-engine paths, and the top-k lattice walk at
// degrees {1, 2, 4} with the same answers, scores and work counters. This
// binary runs under the TSan CI leg, so the determinism claims are checked
// race-free, not just equal.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "algo/dhyfd.h"
#include "algo/hyfd.h"
#include "datagen/benchmark_data.h"
#include "fd/cover.h"
#include "query/engine.h"
#include "query/topk.h"
#include "relation/encoder.h"
#include "test_util.h"
#include "util/thread_pool.h"

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

std::vector<SweepCase> SweepCases() {
  return {
      {1, 10, 3, 2, 0.0},   {2, 30, 4, 3, 0.0},   {3, 50, 5, 2, 0.0},
      {4, 80, 4, 5, 0.0},   {5, 25, 6, 2, 0.0},   {6, 120, 3, 8, 0.0},
      {7, 40, 5, 3, 0.2},   {8, 60, 4, 4, 0.1},   {9, 35, 7, 2, 0.0},
      {10, 200, 4, 10, 0.0}, {11, 15, 5, 2, 0.5},  {12, 70, 5, 4, 0.05},
  };
}

/// Bit-identical: same FDs in the same positions, not just the same set.
void ExpectIdenticalCovers(const FdSet& sequential, const FdSet& parallel,
                           const std::string& label) {
  ASSERT_EQ(sequential.fds.size(), parallel.fds.size()) << label;
  for (std::size_t i = 0; i < sequential.fds.size(); ++i) {
    EXPECT_TRUE(sequential.fds[i] == parallel.fds[i])
        << label << " diverges at index " << i << ": sequential "
        << sequential.fds[i].to_string() << " vs parallel "
        << parallel.fds[i].to_string();
  }
}

class ParallelEquivalenceSweep
    : public ::testing::TestWithParam<std::tuple<int, SweepCase>> {};

TEST_P(ParallelEquivalenceSweep, DhyfdParallelEqualsSequential) {
  const auto& [degree, c] = GetParam();
  Relation r = RandomRelation(c.seed, c.rows, c.cols, c.domain, c.null_rate);
  DiscoveryResult sequential = Dhyfd().discover(r);

  ThreadPool pool(degree);
  DiscoveryConfig config;
  config.threads = degree;
  config.pool = &pool;
  DiscoveryResult parallel = Dhyfd({config}).discover(r);

  ExpectIdenticalCovers(sequential.fds, parallel.fds,
                        "dhyfd p=" + std::to_string(degree) + " seed=" +
                            std::to_string(c.seed));
  // The same candidates are validated in both runs, so the counters agree
  // too — parallelism changes who does the work, never how much.
  EXPECT_EQ(sequential.stats.validations, parallel.stats.validations);
  EXPECT_EQ(sequential.stats.invalidated, parallel.stats.invalidated);
}

TEST_P(ParallelEquivalenceSweep, HyfdParallelEqualsSequential) {
  const auto& [degree, c] = GetParam();
  Relation r = RandomRelation(c.seed, c.rows, c.cols, c.domain, c.null_rate);
  DiscoveryResult sequential = Hyfd().discover(r);

  ThreadPool pool(degree);
  DiscoveryConfig config;
  config.threads = degree;
  config.pool = &pool;
  DiscoveryResult parallel = Hyfd({config}).discover(r);

  ExpectIdenticalCovers(sequential.fds, parallel.fds,
                        "hyfd p=" + std::to_string(degree) + " seed=" +
                            std::to_string(c.seed));
  EXPECT_EQ(sequential.stats.validations, parallel.stats.validations);
}

TEST_P(ParallelEquivalenceSweep, ApproximateAndBoundedPathsMatch) {
  const auto& [degree, c] = GetParam();
  Relation r = RandomRelation(c.seed, c.rows, c.cols, c.domain, c.null_rate);
  ThreadPool pool(degree);
  // epsilon > 0 skips sampling and specializes refuted candidates directly;
  // max_lhs truncates the level loop — both reshape the candidate stream,
  // so each must stay shard-order invariant on its own.
  for (double epsilon : {0.0, 0.1}) {
    for (int max_lhs : {0, 2}) {
      DiscoveryConfig seq;
      seq.epsilon = epsilon;
      seq.max_lhs = max_lhs;
      DiscoveryConfig par = seq;
      par.threads = degree;
      par.pool = &pool;
      DiscoveryResult a = Dhyfd({seq}).discover(r);
      DiscoveryResult b = Dhyfd({par}).discover(r);
      ExpectIdenticalCovers(
          a.fds, b.fds,
          "dhyfd eps=" + std::to_string(epsilon) + " max_lhs=" +
              std::to_string(max_lhs) + " p=" + std::to_string(degree));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Degrees, ParallelEquivalenceSweep,
    ::testing::Combine(::testing::Values(2, 4),
                       ::testing::ValuesIn(SweepCases())),
    [](const ::testing::TestParamInfo<std::tuple<int, SweepCase>>& info) {
      return "p" + std::to_string(std::get<0>(info.param)) + "_s" +
             std::to_string(std::get<1>(info.param).seed);
    });

TEST(ParallelQueryTest, RankedAnswerIdenticalAtAnyDegree) {
  Relation r = RandomRelation(42, 120, 5, 4, 0.1);
  QueryResult sequential = QueryEngine().execute(r, DiscoveryQuery{});

  ThreadPool pool(4);
  DiscoveryConfig config;
  config.threads = 4;
  config.pool = &pool;
  QueryResult parallel = QueryEngine(config).execute(r, DiscoveryQuery{});

  ASSERT_EQ(sequential.fds.size(), parallel.fds.size());
  for (std::size_t i = 0; i < sequential.fds.size(); ++i) {
    EXPECT_TRUE(sequential.fds[i].fd == parallel.fds[i].fd) << i;
    EXPECT_EQ(sequential.fds[i].score, parallel.fds[i].score) << i;
  }
}

TEST(ParallelQueryTest, EpsilonQueryIdenticalAtAnyDegree) {
  Relation r = RandomRelation(7, 80, 5, 3, 0.0);
  DiscoveryQuery q;
  q.epsilon = 0.05;
  q.max_lhs = 3;
  QueryResult sequential = QueryEngine().execute(r, q);

  ThreadPool pool(3);
  DiscoveryConfig config;
  config.threads = 3;
  config.pool = &pool;
  QueryResult parallel = QueryEngine(config).execute(r, q);

  ASSERT_EQ(sequential.fds.size(), parallel.fds.size());
  for (std::size_t i = 0; i < sequential.fds.size(); ++i) {
    EXPECT_TRUE(sequential.fds[i].fd == parallel.fds[i].fd) << i;
  }
}

/// Same FDs, same scores, same order, and the same work counters.
void ExpectIdenticalQueryResults(const QueryResult& sequential,
                                 const QueryResult& parallel,
                                 const std::string& label) {
  ASSERT_EQ(sequential.fds.size(), parallel.fds.size()) << label;
  for (std::size_t i = 0; i < sequential.fds.size(); ++i) {
    EXPECT_TRUE(sequential.fds[i].fd == parallel.fds[i].fd)
        << label << " diverges at rank " << i << ": sequential "
        << sequential.fds[i].fd.to_string() << " vs parallel "
        << parallel.fds[i].fd.to_string();
    EXPECT_EQ(sequential.fds[i].score, parallel.fds[i].score)
        << label << " rank " << i;
  }
  const QueryStats& a = sequential.stats;
  const QueryStats& b = parallel.stats;
  EXPECT_EQ(a.validations, b.validations) << label;
  EXPECT_EQ(a.pruned_epsilon, b.pruned_epsilon) << label;
  EXPECT_EQ(a.pruned_arity, b.pruned_arity) << label;
  EXPECT_EQ(a.pruned_bound, b.pruned_bound) << label;
  EXPECT_EQ(a.levels, b.levels) << label;
  EXPECT_EQ(a.early_terminated, b.early_terminated) << label;
  EXPECT_FALSE(b.timed_out) << label;
}

class TopKParallelSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(TopKParallelSweep, WalkIdenticalAtAnyDegree) {
  const SweepCase& c = GetParam();
  Relation r = RandomRelation(c.seed, c.rows, c.cols, c.domain, c.null_rate);
  struct Path {
    std::string name;
    DiscoveryQuery query;
  };
  std::vector<Path> paths(4);
  paths[0].name = "exact";
  paths[1].name = "epsilon";
  paths[1].query.epsilon = 0.1;
  paths[2].name = "max_lhs";
  paths[2].query.max_lhs = 2;
  paths[3].name = "scope";
  paths[3].query.exclude_columns = {0};
  const std::vector<AttrId> scope_cols = [&] {
    std::vector<AttrId> cols;
    for (AttrId a = 1; a < c.cols; ++a) cols.push_back(a);
    return cols;
  }();
  const Relation scoped = ProjectRelation(r, scope_cols);

  for (int degree : {1, 2, 4}) {
    ThreadPool pool(degree);
    DiscoveryConfig config;
    config.threads = degree;
    config.pool = &pool;
    for (const Path& path : paths) {
      const Relation& walked = path.name == "scope" ? scoped : r;
      const std::size_t cover_size =
          QueryEngine().execute(r, path.query).fds.size();
      for (std::uint32_t k :
           {1u, 3u, 10u, static_cast<std::uint32_t>(cover_size) + 1}) {
        DiscoveryQuery q = path.query;
        q.top_k = k;
        const std::string label = path.name + " p=" + std::to_string(degree) +
                                  " k=" + std::to_string(k) +
                                  " seed=" + std::to_string(c.seed);
        ExpectIdenticalQueryResults(TopKDiscover(walked, q),
                                    TopKDiscover(walked, q, config),
                                    "walk " + label);
        ExpectIdenticalQueryResults(QueryEngine().execute(r, q),
                                    QueryEngine(config).execute(r, q),
                                    "engine " + label);
      }
    }
    // The walk really fanned out: a fresh pool's idle workers were enlisted.
    if (degree > 1) {
      EXPECT_GT(pool.tasks_executed(), 0) << "p=" << degree;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TopKParallelSweep, ::testing::ValuesIn(SweepCases()),
    [](const ::testing::TestParamInfo<SweepCase>& info) {
      return "s" + std::to_string(info.param.seed);
    });

TEST(ParallelDeadlineTest, ShardsPollOneDeadlineRaceFree) {
  // A time limit makes every shard poll the run's one Deadline, whose
  // expiry cache is written on each poll; under TSan this pins that the
  // polls from concurrent shards do not race. The limit never fires, so the
  // answers must still equal the unlimited sequential ones.
  Relation r = EncodeRelation(GenerateBenchmark("uniprot", 1500)).relation;
  ThreadPool pool(4);
  DiscoveryConfig config;
  config.time_limit_seconds = 600;
  config.threads = 4;
  config.pool = &pool;

  DiscoveryResult dhyfd = Dhyfd({config}).discover(r);
  EXPECT_FALSE(dhyfd.stats.timed_out);
  ExpectIdenticalCovers(Dhyfd().discover(r).fds, dhyfd.fds, "dhyfd deadline");

  DiscoveryResult hyfd = Hyfd({config}).discover(r);
  EXPECT_FALSE(hyfd.stats.timed_out);
  ExpectIdenticalCovers(Hyfd().discover(r).fds, hyfd.fds, "hyfd deadline");

  // The top-k walk's shards poll the same way; lineitem's walk ends early
  // (uniprot's would explore most of a 30-column lattice).
  Relation tall = EncodeRelation(GenerateBenchmark("lineitem", 1500)).relation;
  DiscoveryQuery q;
  q.top_k = 5;
  ExpectIdenticalQueryResults(QueryEngine().execute(tall, q),
                              QueryEngine(config).execute(tall, q),
                              "topk deadline");
}

}  // namespace
}  // namespace dhyfd
