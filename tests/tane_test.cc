#include "algo/tane.h"

#include <gtest/gtest.h>

#include "fd/cover.h"
#include "test_util.h"

namespace dhyfd {
namespace {

using testutil::CoverDifference;
using testutil::FromValues;
using testutil::HoldsBruteForce;
using testutil::RandomRelation;

TEST(TaneTest, ConstantColumn) {
  Relation r = FromValues({{7, 0}, {7, 1}, {7, 2}});
  DiscoveryResult res = Tane().discover(r);
  ASSERT_EQ(res.fds.size(), 1);
  EXPECT_EQ(res.fds.fds[0], Fd(AttributeSet{}, 0));
}

TEST(TaneTest, KeyColumn) {
  Relation r = FromValues({{0, 5}, {1, 5}, {2, 6}});
  DiscoveryResult res = Tane().discover(r);
  // 0 is a key: 0 -> 1. Column 1 determines nothing (5 maps to 0 and 1...).
  bool has_key_fd = false;
  for (const Fd& fd : res.fds.fds) {
    if (fd == Fd(AttributeSet{0}, 1)) has_key_fd = true;
  }
  EXPECT_TRUE(has_key_fd);
}

TEST(TaneTest, PlantedCompositeFd) {
  // {0,1} -> 2, not reducible to either attribute alone.
  Relation r = FromValues({
      {0, 0, 10}, {0, 0, 10}, {0, 1, 11}, {1, 0, 12}, {1, 1, 13}, {1, 1, 13}});
  DiscoveryResult res = Tane().discover(r);
  bool found = false;
  for (const Fd& fd : res.fds.fds) {
    if (fd == Fd(AttributeSet{0, 1}, 2)) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(TaneTest, MatchesBruteForceOnRandomData) {
  for (int seed = 1; seed <= 10; ++seed) {
    Relation r = RandomRelation(seed, 40, 5, 3);
    DiscoveryResult res = Tane().discover(r);
    FdSet expected = BruteForceDiscover(r);
    EXPECT_EQ(CoverDifference(expected, res.fds, 5), "") << "seed=" << seed;
    EXPECT_EQ(res.fds.size(), expected.size()) << "seed=" << seed;
  }
}

TEST(TaneTest, OutputIsLeftReducedAndValid) {
  Relation r = RandomRelation(77, 60, 6, 3);
  DiscoveryResult res = Tane().discover(r);
  EXPECT_TRUE(IsLeftReduced(res.fds, 6));
  for (const Fd& fd : res.fds.fds) {
    EXPECT_TRUE(HoldsBruteForce(r, fd)) << fd.to_string();
  }
}

TEST(TaneTest, EmptyRelation) {
  Relation r = FromValues({});
  DiscoveryResult res = Tane().discover(r);
  EXPECT_TRUE(res.fds.empty() || res.fds.size() >= 0);  // no crash
}

TEST(TaneTest, SingleRowAllConstants) {
  Relation r = FromValues({{1, 2, 3}});
  DiscoveryResult res = Tane().discover(r);
  // Every column is constant on a single row: {} -> A for all A.
  EXPECT_EQ(res.fds.size(), 3);
  for (const Fd& fd : res.fds.fds) EXPECT_TRUE(fd.lhs.empty());
}

TEST(TaneTest, DuplicateRowsOnly) {
  Relation r = FromValues({{1, 2}, {1, 2}, {1, 2}});
  DiscoveryResult res = Tane().discover(r);
  EXPECT_EQ(res.fds.size(), 2);  // both columns constant
}

TEST(TaneTest, MaxLevelCapStopsEarly) {
  Relation r = RandomRelation(5, 50, 6, 2);
  DiscoveryConfig config;
  config.max_lhs = 1;
  DiscoveryResult res = Tane(config).discover(r);
  for (const Fd& fd : res.fds.fds) EXPECT_LE(fd.lhs.count(), 1);
}

TEST(TaneTest, StatsPopulated) {
  Relation r = RandomRelation(9, 100, 5, 3);
  DiscoveryResult res = Tane().discover(r);
  EXPECT_GT(res.stats.validations, 0);
  EXPECT_GE(res.stats.seconds, 0);
  EXPECT_GE(res.stats.levels, 1);
}

}  // namespace
}  // namespace dhyfd
