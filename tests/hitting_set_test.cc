#include "fd/hitting_set.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "util/random.h"

namespace dhyfd {
namespace {

/// True if `candidate` intersects every set of the family.
bool HitsAll(const std::vector<AttributeSet>& family, const AttributeSet& candidate) {
  for (const AttributeSet& s : family) {
    if (!s.intersects(candidate)) return false;
  }
  return true;
}

// Brute-force reference: enumerate all subsets of the universe, keep
// minimal hitting sets.
std::vector<AttributeSet> BruteForceMhs(const std::vector<AttributeSet>& family,
                                        int universe) {
  std::vector<AttributeSet> hits;
  for (uint32_t mask = 0; mask < (1u << universe); ++mask) {
    AttributeSet s;
    for (int i = 0; i < universe; ++i) {
      if ((mask >> i) & 1) s.set(i);
    }
    if (HitsAll(family, s)) hits.push_back(s);
  }
  std::vector<AttributeSet> minimal;
  for (const AttributeSet& s : hits) {
    bool dominated = false;
    for (const AttributeSet& t : hits) {
      if (t != s && t.is_subset_of(s)) {
        dominated = true;
        break;
      }
    }
    if (!dominated) minimal.push_back(s);
  }
  std::sort(minimal.begin(), minimal.end());
  return minimal;
}

std::vector<AttributeSet> Sorted(std::vector<AttributeSet> v) {
  std::sort(v.begin(), v.end());
  return v;
}

TEST(HittingSetTest, EmptyFamilyHasEmptyTransversal) {
  std::vector<AttributeSet> result = MinimalHittingSets({});
  ASSERT_EQ(result.size(), 1u);
  EXPECT_TRUE(result[0].empty());
}

TEST(HittingSetTest, EmptySetInFamilyMeansNoTransversal) {
  EXPECT_TRUE(MinimalHittingSets({AttributeSet{0}, AttributeSet{}}).empty());
}

TEST(HittingSetTest, SingleSet) {
  std::vector<AttributeSet> result =
      Sorted(MinimalHittingSets({AttributeSet{1, 3}}));
  ASSERT_EQ(result.size(), 2u);
  EXPECT_EQ(result[0], AttributeSet{1});
  EXPECT_EQ(result[1], AttributeSet{3});
}

TEST(HittingSetTest, TextbookExample) {
  // {0,1}, {1,2}, {0,2}: minimal transversals are all pairs.
  std::vector<AttributeSet> family = {AttributeSet{0, 1}, AttributeSet{1, 2},
                                      AttributeSet{0, 2}};
  std::vector<AttributeSet> result = Sorted(MinimalHittingSets(family));
  EXPECT_EQ(result, BruteForceMhs(family, 3));
  EXPECT_EQ(result.size(), 3u);
}

TEST(HittingSetTest, DisjointSetsMultiply) {
  std::vector<AttributeSet> family = {AttributeSet{0, 1}, AttributeSet{2, 3}};
  std::vector<AttributeSet> result = MinimalHittingSets(family);
  EXPECT_EQ(result.size(), 4u);  // cross product
  for (const AttributeSet& t : result) EXPECT_EQ(t.count(), 2);
}

TEST(HittingSetTest, SupersetSetsAreAbsorbed) {
  // {0} forces 0; {0,1,2} is then already hit.
  std::vector<AttributeSet> family = {AttributeSet{0}, AttributeSet{0, 1, 2}};
  std::vector<AttributeSet> result = MinimalHittingSets(family);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0], AttributeSet{0});
}

TEST(HittingSetTest, MatchesBruteForceOnRandomFamilies) {
  for (int seed = 1; seed <= 20; ++seed) {
    Random rng(seed * 131);
    int universe = 4 + static_cast<int>(rng.next_below(4));  // 4..7
    int sets = 1 + static_cast<int>(rng.next_below(6));
    std::vector<AttributeSet> family;
    for (int i = 0; i < sets; ++i) {
      AttributeSet s;
      for (int a = 0; a < universe; ++a) {
        if (rng.next_bool(0.4)) s.set(a);
      }
      if (!s.empty()) family.push_back(s);
    }
    EXPECT_EQ(Sorted(MinimalHittingSets(family)), BruteForceMhs(family, universe))
        << "seed=" << seed;
  }
}

TEST(HittingSetTest, ResultsAreMinimalAndHitting) {
  std::vector<AttributeSet> family = {AttributeSet{0, 1, 2}, AttributeSet{2, 3},
                                      AttributeSet{1, 3, 4}, AttributeSet{0, 4}};
  std::vector<AttributeSet> result = MinimalHittingSets(family);
  for (const AttributeSet& t : result) {
    EXPECT_TRUE(HitsAll(family, t));
    t.for_each([&](AttrId a) {
      AttributeSet smaller = t;
      smaller.reset(a);
      EXPECT_FALSE(HitsAll(family, smaller)) << t.to_string();
    });
  }
}

TEST(HittingSetTest, DualityRoundTrip) {
  // Tr(Tr(H)) equals the minimal sets of H for simple hypergraphs.
  std::vector<AttributeSet> family = {AttributeSet{0, 1}, AttributeSet{1, 2},
                                      AttributeSet{3}};
  std::vector<AttributeSet> twice =
      Sorted(MinimalHittingSets(MinimalHittingSets(family)));
  EXPECT_EQ(twice, Sorted(family));
}

}  // namespace
}  // namespace dhyfd
