#include "algo/tane.h"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "obs/obs.h"
#include "obs/obs_schema.gen.h"
#include "obs/trace.h"
#include "partition/partition_ops.h"
#include "util/deadline.h"
#include "util/memory.h"
#include "util/timer.h"

namespace dhyfd {

namespace {

struct LevelEntry {
  AttributeSet attrs;
  AttributeSet cplus;  // TANE's C+(X): still-possible RHS attributes
  StrippedPartition partition;
  int64_t error = 0;  // e(X) = ||pi_X|| - |pi_X|
};

using Level = std::vector<LevelEntry>;
using LevelIndex = std::unordered_map<AttributeSet, int, AttributeSetHash>;

// Persistent store of every C+(X) computed so far. The key-pruning rule
// needs C+ of sibling sets that may have been deleted — or never generated
// because an ancestor was a key; Huhtala et al. define those recursively as
// the intersection of the C+ of all |X|-1-subsets (memoized here).
class CplusStore {
 public:
  explicit CplusStore(int num_attrs) {
    memo_.emplace(AttributeSet(), AttributeSet::full(num_attrs));
  }

  void put(const AttributeSet& s, const AttributeSet& cplus) { memo_[s] = cplus; }

  AttributeSet get(const AttributeSet& s) {
    auto it = memo_.find(s);
    if (it != memo_.end()) return it->second;
    AttributeSet cplus = AttributeSet::full(AttributeSet::kCapacity);
    s.for_each([&](AttrId c) {
      AttributeSet sub = s;
      sub.reset(c);
      cplus &= get(sub);
    });
    memo_.emplace(s, cplus);
    return cplus;
  }

  size_t memory_bytes() const {
    return memo_.size() * (2 * sizeof(AttributeSet) + 2 * sizeof(void*));
  }

 private:
  std::unordered_map<AttributeSet, AttributeSet, AttributeSetHash> memo_;
};

}  // namespace

DiscoveryResult Tane::discover(const Relation& r) {
  Timer timer;
  MemoryWatermark mem;
  Deadline deadline(config_.time_limit_seconds);
  DiscoveryResult result;
  const int m = r.num_cols();
  const int64_t empty_error = r.num_rows() > 0 ? r.num_rows() - 1 : 0;
  const AttributeSet all = AttributeSet::full(m);
  // Approximate mode: candidates hold while their g3 removal count stays
  // within the budget. budget == 0 keeps the exact error-comparison test
  // (and skips the prev-level partition retention it would need).
  const int64_t budget = ApproxRemovalBudget(config_.epsilon, r.num_rows());
  const bool approx = budget > 0;
  ApproxErrorCalculator approx_calc(r);

  // One intersector for the whole run: its probe table and output arenas
  // persist across every level-(k+1) product.
  PartitionIntersector intersector(r.num_rows());

  // Level 0 state: C+({}) = R, e({}) = |r| - 1.
  Level level;
  LevelIndex index;
  for (AttrId a = 0; a < m; ++a) {
    LevelEntry e;
    e.attrs = AttributeSet::single(a);
    e.cplus = all;
    e.partition = BuildAttributePartition(r, a);
    e.error = e.partition.error();
    index.emplace(e.attrs, static_cast<int>(level.size()));
    level.push_back(std::move(e));
  }
  CplusStore cplus_store(m);
  // Level-1 dependencies {} -> A (constant columns; under a removal budget,
  // near-constant columns). pi_{} is the single whole-relation class.
  const StrippedPartition whole = StrippedPartition::whole(r.num_rows());
  for (LevelEntry& e : level) {
    ++result.stats.validations;
    AttrId a = e.attrs.first();
    bool valid = approx ? approx_calc.removals(whole, a) <= budget
                        : e.error == empty_error;
    if (valid) {
      result.fds.add(Fd(AttributeSet(), a));
      e.cplus.reset(a);
      // {} -> A valid: remove all B in R - X from C+(X) (X = {A}). This
      // extra pruning relies on exact-FD augmentation, which the g3 measure
      // does not satisfy as an equivalence, so approximate runs keep only
      // the minimality-preserving reset above.
      if (!approx) e.cplus &= e.attrs;
    } else {
      ++result.stats.invalidated;
    }
    cplus_store.put(e.attrs, e.cplus);
  }

  // Errors of the previous level, for the e(X - A) == e(X) test. Approximate
  // runs additionally retain the previous level's partitions: the removal
  // count for X - A -> A is computed from pi_{X-A} and the A column, which
  // the error values alone cannot provide.
  std::unordered_map<AttributeSet, int64_t, AttributeSetHash> prev_errors;
  std::unordered_map<AttributeSet, StrippedPartition, AttributeSetHash>
      prev_partitions;
  prev_errors.emplace(AttributeSet(), empty_error);
  size_t logical_peak = 0;

  int level_num = 1;
  while (!level.empty() && !result.stats.timed_out) {
    TraceSpan level_span(kObsDiscoverValidation);
    result.stats.levels = level_num;
    ObsAdd(kObsDiscoverLatticeLevelEntries, static_cast<int64_t>(level.size()));
    if (level_num >= 2) {
      // compute_dependencies for this level.
      for (LevelEntry& e : level) {
        if (deadline.expired()) {
          result.stats.timed_out = true;
          break;
        }
        AttributeSet check = e.attrs & e.cplus;
        check.for_each([&](AttrId a) {
          AttributeSet x_minus_a = e.attrs;
          x_minus_a.reset(a);
          auto it = prev_errors.find(x_minus_a);
          if (it == prev_errors.end()) return;  // pruned parent
          ++result.stats.validations;
          bool valid;
          if (approx) {
            valid =
                approx_calc.removals(prev_partitions.at(x_minus_a), a) <= budget;
          } else {
            valid = it->second == e.error;
          }
          if (valid) {
            result.fds.add(Fd(x_minus_a, a));
            e.cplus.reset(a);
            // See the level-1 comment: the R - X sweep is exact-only.
            if (!approx) e.cplus -= all - e.attrs;
          } else {
            ++result.stats.invalidated;
          }
        });
        cplus_store.put(e.attrs, e.cplus);
      }
    }

    // Prune: drop X with empty C+; emit key-based FDs and drop superkeys.
    // Key-rule FDs have an LHS of exactly level_num attributes, so the
    // precise arity bound suppresses them on its one extra level.
    const bool emit_key_fds =
        config_.max_lhs == 0 || level_num <= config_.max_lhs;
    Level pruned;
    LevelIndex pruned_index;
    for (LevelEntry& e : level) {
      if (e.cplus.empty()) continue;
      if (e.error == 0) {
        if (!emit_key_fds) continue;
        // X is a (super)key. Huhtala et al.'s key pruning rule: emit X -> A
        // for A in C+(X) - X whenever A survives the C+ of every sibling
        // set (X + {A}) - {B}, B in X; then delete X from the level.
        AttributeSet extra = e.cplus - e.attrs;
        extra.for_each([&](AttrId a) {
          bool emit = true;
          e.attrs.for_each([&](AttrId b) {
            if (!emit) return;
            AttributeSet sibling = e.attrs;
            sibling.reset(b);
            sibling.set(a);
            // Sibling C+ may belong to a set that was deleted or never
            // generated; the store derives it recursively in that case.
            if (!cplus_store.get(sibling).test(a)) emit = false;
          });
          if (emit) {
            ++result.stats.validations;
            result.fds.add(Fd(e.attrs, a));
          }
        });
        continue;  // superkeys never extend to the next level
      }
      pruned_index.emplace(e.attrs, static_cast<int>(pruned.size()));
      pruned.push_back(std::move(e));
    }

    // The precise arity bound stops after the level that validates LHSs of
    // exactly max_lhs attributes (level max_lhs + 1), so the cover below the
    // bound is complete.
    if (config_.max_lhs > 0 && level_num > config_.max_lhs) break;

    // generate_next_level via prefix blocks: combine entries that share all
    // attributes except their largest one.
    prev_errors.clear();
    for (const LevelEntry& e : pruned) prev_errors.emplace(e.attrs, e.error);

    std::unordered_map<AttributeSet, std::vector<int>, AttributeSetHash> blocks;
    for (int i = 0; i < static_cast<int>(pruned.size()); ++i) {
      AttributeSet prefix = pruned[i].attrs;
      prefix.reset(pruned[i].attrs.last());
      blocks[prefix].push_back(i);
    }

    Level next;
    LevelIndex next_index;
    for (auto& [prefix, members] : blocks) {
      (void)prefix;
      if (result.stats.timed_out) break;
      for (size_t i = 0; i < members.size(); ++i) {
        for (size_t j = i + 1; j < members.size(); ++j) {
          if (deadline.expired()) {
            result.stats.timed_out = true;
            break;
          }
          const LevelEntry& a = pruned[members[i]];
          const LevelEntry& b = pruned[members[j]];
          AttributeSet xy = a.attrs | b.attrs;
          // All |XY|-1 subsets must have survived pruning.
          bool ok = true;
          AttributeSet cplus = all;
          xy.for_each([&](AttrId c) {
            if (!ok) return;
            AttributeSet sub = xy;
            sub.reset(c);
            auto it = pruned_index.find(sub);
            if (it == pruned_index.end()) {
              ok = false;
            } else {
              cplus &= pruned[it->second].cplus;
            }
          });
          if (!ok || cplus.empty()) continue;
          LevelEntry e;
          e.attrs = xy;
          e.cplus = cplus;
          intersector.intersect(a.partition, b.partition, e.partition);
          e.error = e.partition.error();
          result.stats.refinements += a.partition.size();
          next_index.emplace(xy, static_cast<int>(next.size()));
          next.push_back(std::move(e));
        }
        if (result.stats.timed_out) break;
      }
    }
    mem.sample();
    size_t level_bytes = cplus_store.memory_bytes();
    for (const LevelEntry& e : level) level_bytes += e.partition.memory_bytes();
    for (const LevelEntry& e : next) level_bytes += e.partition.memory_bytes();
    logical_peak = std::max(logical_peak, level_bytes);
    if (approx) {
      // Generation is done with this level's partitions; keep them one more
      // level for the next round's removal counts.
      prev_partitions.clear();
      for (LevelEntry& e : pruned) {
        prev_partitions.emplace(e.attrs, std::move(e.partition));
      }
    }
    level = std::move(next);
    index = std::move(next_index);
    ++level_num;
  }

  result.fds.sort();
  result.stats.seconds = timer.seconds();
  result.stats.memory_mb = std::max(
      mem.delta_peak_mb(), static_cast<double>(logical_peak) / (1024.0 * 1024.0));
  return result;
}

}  // namespace dhyfd
