#include "fd/hitting_set.h"

#include <algorithm>

namespace dhyfd {

std::vector<AttributeSet> MinimalHittingSets(const std::vector<AttributeSet>& family) {
  // An empty set in the family cannot be hit: no transversal exists.
  for (const AttributeSet& s : family) {
    if (s.empty()) return {};
  }

  // Berge's algorithm: fold the sets in one at a time, keeping the current
  // minimal transversals. Processing larger sets last keeps intermediate
  // families small in practice.
  std::vector<AttributeSet> sorted = family;
  std::sort(sorted.begin(), sorted.end(),
            [](const AttributeSet& a, const AttributeSet& b) {
              return a.count() < b.count();
            });

  std::vector<AttributeSet> transversals = {AttributeSet()};
  for (const AttributeSet& s : sorted) {
    std::vector<AttributeSet> kept;
    std::vector<AttributeSet> extended;
    for (const AttributeSet& t : transversals) {
      if (t.intersects(s)) {
        kept.push_back(t);
      } else {
        s.for_each([&](AttrId a) {
          AttributeSet candidate = t;
          candidate.set(a);
          extended.push_back(candidate);
        });
      }
    }
    // A kept transversal is still minimal. An extended candidate survives
    // only if no kept transversal is a subset of it (extended candidates
    // cannot dominate kept ones, and equal-new-attr extensions of distinct
    // minimal t's cannot contain each other unless via kept-check).
    for (const AttributeSet& cand : extended) {
      bool dominated = false;
      for (const AttributeSet& t : kept) {
        if (t.is_subset_of(cand)) {
          dominated = true;
          break;
        }
      }
      if (dominated) continue;
      for (const AttributeSet& other : extended) {
        if (other != cand && other.is_subset_of(cand)) {
          // Strict subset, or equal-set duplicate resolved by keeping the
          // first occurrence (pointer order).
          if (other == cand) continue;
          dominated = true;
          break;
        }
      }
      if (dominated) continue;
      // Deduplicate equal candidates.
      bool duplicate = false;
      for (const AttributeSet& t : kept) {
        if (t == cand) {
          duplicate = true;
          break;
        }
      }
      if (!duplicate) kept.push_back(cand);
    }
    transversals = std::move(kept);
  }
  return transversals;
}

}  // namespace dhyfd
