#include "fd/armstrong.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "fd/closure.h"
#include "fd/hitting_set.h"

namespace dhyfd {

namespace {

// All minimal LHSs X (subseteq R - {attr}) with attr in closure(X).
// Exhaustive by-size enumeration with domination pruning: a Lucchesi-
// Osborn-style expansion is only complete for candidate keys, not for
// arbitrary single-attribute targets. Exponential in num_attrs; Armstrong
// generation targets design-sized schemas (bounded in the caller).
std::vector<AttributeSet> FindMinimalLhs(const ClosureEngine& engine, AttrId attr,
                                         int num_attrs) {
  if (engine.closure(AttributeSet()).test(attr)) return {AttributeSet()};
  std::vector<AttrId> rest_attrs;
  for (AttrId a = 0; a < num_attrs; ++a) {
    if (a != attr) rest_attrs.push_back(a);
  }
  const int k = static_cast<int>(rest_attrs.size());
  std::vector<std::vector<uint32_t>> by_size(k + 1);
  for (uint32_t mask = 1; mask < (1u << k); ++mask) {
    by_size[std::popcount(mask)].push_back(mask);
  }
  std::vector<uint32_t> minimal_masks;
  std::vector<AttributeSet> minimal;
  for (int size = 1; size <= k; ++size) {
    for (uint32_t mask : by_size[size]) {
      bool dominated = false;
      for (uint32_t seen : minimal_masks) {
        if ((seen & ~mask) == 0) {
          dominated = true;
          break;
        }
      }
      if (dominated) continue;
      AttributeSet lhs;
      for (int i = 0; i < k; ++i) {
        if ((mask >> i) & 1) lhs.set(rest_attrs[i]);
      }
      if (engine.closure(lhs).test(attr)) {
        minimal_masks.push_back(mask);
        minimal.push_back(lhs);
      }
    }
  }
  return minimal;
}

}  // namespace

std::vector<AttributeSet> MaximalSets(const FdSet& cover, AttrId attr, int num_attrs) {
  if (num_attrs > 24) {
    throw std::invalid_argument("MaximalSets: schemas above 24 attributes");
  }
  ClosureEngine engine(cover, num_attrs);
  AttributeSet rest = AttributeSet::full(num_attrs);
  rest.reset(attr);

  std::vector<AttributeSet> min_lhss = FindMinimalLhs(engine, attr, num_attrs);
  // Duality: X avoids determining attr iff its complement within
  // R - {attr} hits every minimal LHS; maximal X <-> minimal transversals.
  std::vector<AttributeSet> transversals = MinimalHittingSets(min_lhss);
  std::vector<AttributeSet> max_sets;
  max_sets.reserve(transversals.size());
  for (const AttributeSet& t : transversals) max_sets.push_back(rest - t);
  return max_sets;
}

Relation BuildArmstrongRelation(const FdSet& cover, int num_attrs) {
  // Distinct maximal sets over all attributes, in deterministic order.
  std::vector<AttributeSet> all_max;
  for (AttrId a = 0; a < num_attrs; ++a) {
    for (AttributeSet& m : MaximalSets(cover, a, num_attrs)) all_max.push_back(m);
  }
  std::sort(all_max.begin(), all_max.end());
  all_max.erase(std::unique(all_max.begin(), all_max.end()), all_max.end());

  const RowId rows = static_cast<RowId>(all_max.size()) + 1;
  Relation r(Schema::numbered(num_attrs), rows);
  // Row 0 is the reference; row i+1 agrees with it exactly on all_max[i].
  for (AttrId c = 0; c < num_attrs; ++c) {
    std::vector<ValueId> column(rows);
    column[0] = 0;
    ValueId next_code = 1;
    for (size_t i = 0; i < all_max.size(); ++i) {
      column[i + 1] = all_max[i].test(c) ? 0 : next_code++;
    }
    for (RowId row = 0; row < rows; ++row) r.set_value(row, c, column[row]);
    r.set_domain_size(c, next_code);
  }
  return r;
}

}  // namespace dhyfd
