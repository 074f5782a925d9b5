// Parallel-equals-sequential equivalence for the rank stage: the sharded
// redundancy kernel must return the same ranking (order and all three
// counts) and the same dataset redundancy as the sequential kernel at every
// degree, on the Table II analogs, on relations with nulls, on a saturated
// pool, and on empty and one-FD covers. The Profiler checks close the loop:
// a pooled profile equals a pool-less one. This binary runs under the TSan
// CI leg, so the shared bitmap's atomic ORs and the per-FD result slots are
// checked race-free, not just equal.
#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <future>
#include <string>
#include <tuple>
#include <vector>

#include "algo/dhyfd.h"
#include "core/profiler.h"
#include "datagen/benchmark_data.h"
#include "datagen/generator.h"
#include "fd/cover.h"
#include "ranking/ranking.h"
#include "relation/encoder.h"
#include "test_util.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace dhyfd {
namespace {

const RedundancyMode kModes[] = {RedundancyMode::kWithNulls,
                                 RedundancyMode::kExcludingNullRhs,
                                 RedundancyMode::kExcludingNullBoth};

/// What the Profiler's rank stage produces.
struct RankOutput {
  std::vector<FdRedundancy> ranking;
  DatasetRedundancy dataset;
};

RankOutput Rank(const Relation& r, const FdSet& cover, RedundancyMode mode,
                int threads, ThreadPool* pool) {
  RankOutput out;
  out.ranking = ComputeFdRedundancies(r, cover, &out.dataset, threads, pool);
  SortByRedundancy(out.ranking, mode);
  return out;
}

/// The sequential reference, through the stand-alone entry points.
RankOutput Sequential(const Relation& r, const FdSet& cover,
                      RedundancyMode mode) {
  return {RankFds(r, cover, mode), ComputeDatasetRedundancy(r, cover)};
}

void ExpectIdenticalRankings(const std::vector<FdRedundancy>& want,
                             const std::vector<FdRedundancy>& got,
                             const std::string& label) {
  ASSERT_EQ(want.size(), got.size()) << label;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_TRUE(want[i].fd == got[i].fd)
        << label << " diverges at index " << i << ": " << want[i].fd.to_string()
        << " vs " << got[i].fd.to_string();
    EXPECT_EQ(want[i].with_nulls, got[i].with_nulls) << label << " at " << i;
    EXPECT_EQ(want[i].excluding_null_rhs, got[i].excluding_null_rhs)
        << label << " at " << i;
    EXPECT_EQ(want[i].excluding_null_lhs_rhs, got[i].excluding_null_lhs_rhs)
        << label << " at " << i;
  }
}

void ExpectIdenticalDataset(const DatasetRedundancy& want,
                            const DatasetRedundancy& got,
                            const std::string& label) {
  EXPECT_EQ(want.num_values, got.num_values) << label;
  EXPECT_EQ(want.red, got.red) << label;
  EXPECT_EQ(want.red_plus0, got.red_plus0) << label;
}

void ExpectIdentical(const RankOutput& want, const RankOutput& got,
                     const std::string& label) {
  ExpectIdenticalRankings(want.ranking, got.ranking, label);
  ExpectIdenticalDataset(want.dataset, got.dataset, label);
}

/// O(|cover| * rows^2) cell oracle: t(A) is redundant iff some FD X -> Y of
/// the cover has A in Y and another tuple agrees with t on X.
DatasetRedundancy BruteForceDatasetRedundancy(const Relation& r,
                                              const FdSet& cover) {
  const std::size_t m = static_cast<std::size_t>(r.num_cols());
  std::vector<bool> marked(static_cast<std::size_t>(r.num_rows()) * m, false);
  for (const Fd& fd : cover.fds) {
    for (RowId t = 0; t < r.num_rows(); ++t) {
      bool witness = false;
      for (RowId s = 0; s < r.num_rows() && !witness; ++s) {
        witness = s != t && r.agree_on(s, t, fd.lhs);
      }
      if (!witness) continue;
      fd.rhs.for_each([&](AttrId a) {
        marked[static_cast<std::size_t>(t) * m + static_cast<std::size_t>(a)] = true;
      });
    }
  }
  DatasetRedundancy d;
  d.num_values = r.num_values();
  for (RowId t = 0; t < r.num_rows(); ++t) {
    for (AttrId a = 0; a < r.num_cols(); ++a) {
      if (!marked[static_cast<std::size_t>(t) * m + static_cast<std::size_t>(a)]) continue;
      ++d.red_plus0;
      if (!r.is_null(t, a)) ++d.red;
    }
  }
  return d;
}

Relation Analog(const std::string& name, int rows, std::uint64_t seed) {
  DatasetSpec spec = MakeBenchmarkSpec(name, rows);
  spec.seed = seed;
  return EncodeRelation(GenerateRawTable(spec)).relation;
}

/// A canonical cover of `r`. The arity bound keeps discovery on the wide
/// analogs cheap enough for the TSan leg; every emitted FD still holds, and
/// short LHSs give large pi_X classes, so many cells are marked.
FdSet CanonicalCoverOf(const Relation& r) {
  DiscoveryConfig config;
  config.max_lhs = 2;
  return CanonicalCover(Dhyfd({config}).discover(r).fds, r.num_cols());
}

class AnalogSweep
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(AnalogSweep, ShardedRankEqualsSequentialAtEveryDegree) {
  const auto& [name, seed] = GetParam();
  Relation r = Analog(name, 300, static_cast<std::uint64_t>(seed));
  FdSet cover = CanonicalCoverOf(r);
  ASSERT_FALSE(cover.empty()) << name << " seed " << seed;
  RankOutput want = Sequential(r, cover, RedundancyMode::kExcludingNullRhs);
  for (int degree : {1, 2, 4}) {
    ThreadPool pool(degree);
    ExpectIdentical(want,
                    Rank(r, cover, RedundancyMode::kExcludingNullRhs, degree,
                         &pool),
                    name + " seed=" + std::to_string(seed) +
                        " p=" + std::to_string(degree));
  }
}

INSTANTIATE_TEST_SUITE_P(
    TableTwoAnalogs, AnalogSweep,
    ::testing::Combine(::testing::Values("uniprot", "weather", "lineitem"),
                       ::testing::Range(1, 9)),
    [](const ::testing::TestParamInfo<AnalogSweep::ParamType>& info) {
      return std::get<0>(info.param) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

/// Planted FDs a -> c and {a, b} -> d with null markers on both sides of
/// them: a null `a` forces a null `c` and d = b, and c is also null for
/// a = 4, so the FDs still hold under null = null while the three
/// redundancy counts differ.
Relation NullyRelation(std::uint64_t seed) {
  Random rng(seed);
  std::vector<std::vector<int>> rows;
  for (int i = 0; i < 80; ++i) {
    const bool a_null = rng.next_bool(0.15);
    const int a = static_cast<int>(rng.next_below(5));
    const int b = static_cast<int>(rng.next_below(2));
    rows.push_back({a_null ? -1 : a, b, a_null || a == 4 ? -1 : a % 3,
                    a_null ? b : (a + b) % 4,
                    rng.next_bool(0.2) ? -1
                                       : static_cast<int>(rng.next_below(6))});
  }
  return testutil::FromValues(rows);
}

TEST(ParallelRankingTest, NullsUnderEveryModeMatchSequentialAndOracles) {
  ThreadPool pool(4);
  bool rhs_nulls_counted = false;
  bool lhs_nulls_counted = false;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Relation r = NullyRelation(seed);
    FdSet cover = CanonicalCover(BruteForceDiscover(r), r.num_cols());
    ASSERT_FALSE(cover.empty()) << seed;
    DatasetRedundancy oracle = BruteForceDatasetRedundancy(r, cover);
    for (RedundancyMode mode : kModes) {
      const std::string label = "seed=" + std::to_string(seed) + " mode=" +
                                std::to_string(static_cast<int>(mode));
      RankOutput got = Rank(r, cover, mode, 4, &pool);
      ExpectIdentical(Sequential(r, cover, mode), got, label);
      ExpectIdenticalDataset(oracle, got.dataset, label + " vs oracle");
      for (const FdRedundancy& red : got.ranking) {
        FdRedundancy brute = BruteForceFdRedundancy(r, red.fd);
        EXPECT_EQ(brute.with_nulls, red.with_nulls) << label;
        EXPECT_EQ(brute.excluding_null_rhs, red.excluding_null_rhs) << label;
        EXPECT_EQ(brute.excluding_null_lhs_rhs, red.excluding_null_lhs_rhs)
            << label;
        rhs_nulls_counted |= red.with_nulls != red.excluding_null_rhs;
        lhs_nulls_counted |=
            red.excluding_null_rhs != red.excluding_null_lhs_rhs;
      }
    }
  }
  // The data must actually tell the three modes apart.
  EXPECT_TRUE(rhs_nulls_counted);
  EXPECT_TRUE(lhs_nulls_counted);
}

TEST(ParallelRankingTest, DatasetRedundancyMatchesCellOracle) {
  ThreadPool pool(4);
  for (const char* name : {"uniprot", "weather", "lineitem"}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      Relation r = Analog(name, 120, seed);
      FdSet cover = CanonicalCoverOf(r);
      const std::string label =
          std::string(name) + " seed=" + std::to_string(seed);
      DatasetRedundancy want = BruteForceDatasetRedundancy(r, cover);
      for (int degree : {1, 4}) {
        DatasetRedundancy got;
        ComputeFdRedundancies(r, cover, &got, degree, &pool);
        ExpectIdenticalDataset(want, got,
                               label + " p=" + std::to_string(degree));
      }
    }
  }
}

TEST(ParallelRankingTest, SaturatedPoolDegradesToSequential) {
  Relation r = Analog("weather", 300, 1);
  FdSet cover = CanonicalCoverOf(r);
  RankOutput want = Sequential(r, cover, RedundancyMode::kExcludingNullRhs);

  // Two workers: one parked on a gate, the other running the rank stage as
  // a pool task, so no worker is idle to help and the task must finish its
  // shards alone.
  ThreadPool pool(2);
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  std::promise<void> parked;
  ASSERT_TRUE(pool.submit([opened, &parked] {
    parked.set_value();
    opened.wait();
  }));
  parked.get_future().wait();

  std::promise<RankOutput> result;
  std::future<RankOutput> got = result.get_future();
  ASSERT_TRUE(pool.submit([&] {
    result.set_value(
        Rank(r, cover, RedundancyMode::kExcludingNullRhs, 4, &pool));
  }));
  ASSERT_EQ(got.wait_for(std::chrono::seconds(120)), std::future_status::ready)
      << "rank stage deadlocked on a saturated pool";
  ExpectIdentical(want, got.get(), "saturated pool");

  // And from outside the pool while every worker is busy.
  std::promise<void> gate2;
  std::shared_future<void> opened2 = gate2.get_future().share();
  std::promise<void> parked2;
  ASSERT_TRUE(pool.submit([opened2, &parked2] {
    parked2.set_value();
    opened2.wait();
  }));
  parked2.get_future().wait();
  ExpectIdentical(want,
                  Rank(r, cover, RedundancyMode::kExcludingNullRhs, 4, &pool),
                  "caller with busy pool");
  gate.set_value();
  gate2.set_value();
}

TEST(ParallelRankingTest, EmptyAndOneFdCovers) {
  ThreadPool pool(4);
  Relation r = Analog("lineitem", 150, 2);

  RankOutput empty = Rank(r, FdSet{}, RedundancyMode::kExcludingNullRhs, 4,
                          &pool);
  EXPECT_TRUE(empty.ranking.empty());
  EXPECT_EQ(empty.dataset.num_values, r.num_values());
  EXPECT_EQ(empty.dataset.red, 0);
  EXPECT_EQ(empty.dataset.red_plus0, 0);

  FdSet cover = CanonicalCoverOf(r);
  ASSERT_FALSE(cover.empty());
  FdSet one;
  one.add(cover.fds.front());
  RankOutput got = Rank(r, one, RedundancyMode::kExcludingNullRhs, 4, &pool);
  ExpectIdentical(Sequential(r, one, RedundancyMode::kExcludingNullRhs), got,
                  "one FD");
  ExpectIdenticalDataset(BruteForceDatasetRedundancy(r, one), got.dataset,
                         "one FD vs oracle");
}

TEST(ParallelRankingTest, PooledProfilerEqualsPoolLessProfiler) {
  ThreadPool pool(4);
  for (const char* name : {"uniprot", "weather", "lineitem"}) {
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      Relation r = Analog(name, 200, seed);
      ProfileOptions plain;
      plain.discovery.max_lhs = 2;
      ProfileOptions pooled = plain;
      pooled.discovery.threads = 4;
      pooled.discovery.pool = &pool;
      ProfileReport a = Profiler(plain).profile(r);
      ProfileReport b = Profiler(pooled).profile(r);
      const std::string label =
          std::string(name) + " seed=" + std::to_string(seed);

      ASSERT_EQ(a.canonical.fds.size(), b.canonical.fds.size()) << label;
      for (std::size_t i = 0; i < a.canonical.fds.size(); ++i) {
        EXPECT_TRUE(a.canonical.fds[i] == b.canonical.fds[i]) << label;
      }
      // cover_stats describes the one canonical cover the report carries:
      // the stand-alone computation on the same left-reduced cover agrees
      // on every field but the timing.
      CoverStats alone = ComputeCoverStats(
          a.left_reduced, CanonicalCover(a.left_reduced, r.num_cols()));
      for (const CoverStats* s : {&a.cover_stats, &b.cover_stats, &alone}) {
        EXPECT_EQ(s->left_reduced_count, a.cover_stats.left_reduced_count);
        EXPECT_EQ(s->left_reduced_occurrences,
                  a.cover_stats.left_reduced_occurrences);
        EXPECT_EQ(s->canonical_count, a.cover_stats.canonical_count);
        EXPECT_EQ(s->canonical_occurrences,
                  a.cover_stats.canonical_occurrences);
        EXPECT_EQ(s->percent_size, a.cover_stats.percent_size);
        EXPECT_EQ(s->percent_card, a.cover_stats.percent_card);
      }
      EXPECT_EQ(a.cover_stats.canonical_count,
                static_cast<std::int64_t>(a.canonical.size()))
          << label;
      EXPECT_EQ(a.cover_stats.seconds, a.timings.canonical_seconds) << label;

      ExpectIdenticalRankings(a.ranking, b.ranking, label);
      ExpectIdenticalDataset(a.dataset_redundancy, b.dataset_redundancy,
                             label);
      ExpectIdentical(Sequential(r, a.canonical, plain.ranking_mode),
                      {b.ranking, b.dataset_redundancy}, label + " vs RankFds");
    }
  }
}

}  // namespace
}  // namespace dhyfd
