#include "query/topk.h"

#include <algorithm>
#include <memory>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/obs_schema.gen.h"
#include "obs/trace.h"
#include "partition/partition_ops.h"
#include "ranking/redundancy.h"
#include "util/chunk_runner.h"
#include "util/deadline.h"
#include "util/timer.h"

namespace dhyfd {

namespace {

struct LevelEntry {
  AttributeSet attrs;
  AttributeSet cplus;  // TANE's C+(X): still-possible RHS attributes
  StrippedPartition partition;
};

using Level = std::vector<LevelEntry>;
using LevelIndex = std::unordered_map<AttributeSet, int, AttributeSetHash>;

// Same memoized C+ store as TANE's (tane.cc): the key-pruning rule needs C+
// of sibling sets that were deleted or never generated.
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

 private:
  std::unordered_map<AttributeSet, AttributeSet, AttributeSetHash> memo_;
};

/// The k best-ranked FDs so far. top() is the current floor: the entry any
/// new candidate must outrank to enter once the heap is full.
class TopKHeap {
 public:
  explicit TopKHeap(std::uint32_t k) : k_(k) {}

  bool full() const { return heap_.size() >= k_; }
  int64_t floor_score() const { return heap_.top().score; }

  void offer(RankedFd candidate) {
    if (!full()) {
      heap_.push(std::move(candidate));
    } else if (RankedFdBetter(candidate, heap_.top())) {
      heap_.pop();
      heap_.push(std::move(candidate));
    }
  }

  std::vector<RankedFd> take_ranked() {
    std::vector<RankedFd> out;
    out.reserve(heap_.size());
    while (!heap_.empty()) {
      out.push_back(heap_.top());
      heap_.pop();
    }
    std::reverse(out.begin(), out.end());  // worst pops first
    return out;
  }

 private:
  struct Better {
    bool operator()(const RankedFd& a, const RankedFd& b) const {
      return RankedFdBetter(a, b);
    }
  };
  // priority_queue surfaces the *last* element under the comparator, so
  // ordering by "better" keeps the worst kept FD on top.
  std::priority_queue<RankedFd, std::vector<RankedFd>, Better> heap_;
  std::uint32_t k_;
};

/// What one chunk of a level loop produced. Chunks are contiguous index
/// ranges, so concatenating their results in chunk order reproduces the
/// sequential loop's output order.
struct ChunkResult {
  Level entries;              // pair loop: the chunk's children, in pair order
  std::vector<RankedFd> fds;  // validation: its valid FDs, in entry order
  int64_t validations = 0;
  int64_t pruned_epsilon = 0;
  bool timed_out = false;
};

/// A walk worker's own state: no two running chunks share an intersector
/// or removal counter, and a walk builds at most `threads` of each.
struct WalkScratch {
  explicit WalkScratch(const Relation& r) : intersector(r.num_rows()), approx(r) {}
  PartitionIntersector intersector;
  ApproxErrorCalculator approx;
};

/// Candidate FDs still reachable from a level's surviving entries; the
/// frontier size credited to whichever bound cut the traversal.
int64_t FrontierSize(const Level& pruned) {
  int64_t n = 0;
  for (const LevelEntry& e : pruned) n += e.cplus.count();
  return n;
}

}  // namespace

QueryResult TopKDiscover(const Relation& r, const DiscoveryQuery& q,
                         const DiscoveryConfig& config) {
  Timer timer;
  Deadline deadline(config.time_limit_seconds);
  QueryResult result;
  const int m = r.num_cols();
  const AttributeSet all = AttributeSet::full(m);
  const int64_t budget = ApproxRemovalBudget(q.epsilon, r.num_rows());
  const bool approx = budget > 0;
  ChunkRunner<WalkScratch> runner(config.pool, config.threads,
                                 [&r] { return std::make_unique<WalkScratch>(r); });
  TopKHeap heap(q.top_k);

  // Level 1: single attributes, validated as {} -> A against the whole
  // relation's partition like any deeper X - A -> A.
  Level level(static_cast<std::size_t>(m));
  for (AttrId a = 0; a < m; ++a) {
    level[a].attrs = AttributeSet::single(a);
    level[a].cplus = all;
  }
  runner.run<NoResult>(level.size(), kObsQueryShard,
                       [&](WalkScratch&, NoResult&, std::size_t begin, std::size_t end) {
                         for (std::size_t i = begin; i < end; ++i) {
                           level[i].partition =
                               BuildAttributePartition(r, static_cast<AttrId>(i));
                         }
                       });
  CplusStore cplus_store(m);

  // The previous level's surviving entries and their index: their
  // partitions answer the error tests (error(X - A) == error(X) exactly when
  // X - A -> A holds) and score valid candidates, whose LHS is the
  // previous-level set X - A. Level 1's predecessor is {} with the whole
  // relation as one class.
  Level prev(1);
  prev[0].partition = StrippedPartition::whole(r.num_rows());
  LevelIndex prev_index{{AttributeSet(), 0}};

  int level_num = 1;
  while (!level.empty() && !result.stats.timed_out) {
    TraceSpan level_span(kObsQueryLatticeLevel);
    result.stats.levels = level_num;

    // Validate: each entry tests X - A -> A for A in X & C+(X) and updates
    // only its own C+; the valid FDs are offered after the join.
    auto validate = [&](WalkScratch& s, ChunkResult& out,
                        std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        if (deadline.expired()) {
          out.timed_out = true;
          return;
        }
        LevelEntry& e = level[i];
        AttributeSet check = e.attrs & e.cplus;
        check.for_each([&](AttrId a) {
          AttributeSet x_minus_a = e.attrs;
          x_minus_a.reset(a);
          auto it = prev_index.find(x_minus_a);
          if (it == prev_index.end()) return;  // pruned parent
          ++out.validations;
          const StrippedPartition& pi = prev[it->second].partition;
          bool valid = approx ? s.approx.removals(pi, a) <= budget
                              : pi.error() == e.partition.error();
          if (valid) {
            Fd fd(x_minus_a, a);
            out.fds.push_back(RankedFd{
                fd, RedundancyCount(FdRedundancyFromPartition(r, fd, pi),
                                    q.ranking_mode)});
            e.cplus.reset(a);
            if (!approx) e.cplus -= all - e.attrs;  // exact-only R - X sweep
          } else {
            ++out.pruned_epsilon;
          }
        });
      }
    };
    for (ChunkResult& chunk :
         runner.run<ChunkResult>(level.size(), kObsQueryShard, validate)) {
      result.stats.validations += chunk.validations;
      result.stats.pruned_epsilon += chunk.pruned_epsilon;
      if (chunk.timed_out) result.stats.timed_out = true;
      for (RankedFd& f : chunk.fds) heap.offer(std::move(f));
    }
    for (const LevelEntry& e : level) cplus_store.put(e.attrs, e.cplus);

    // Prune: empty C+, and exact keys (emitted through the key rule; a
    // key's pi_X is empty, so they score 0 — "zero counts hint at keys").
    const bool emit_key_fds = q.max_lhs == 0 || level_num <= q.max_lhs;
    Level pruned;
    LevelIndex pruned_index;
    for (LevelEntry& e : level) {
      if (e.cplus.empty()) continue;
      if (e.partition.error() == 0) {
        if (!emit_key_fds) continue;
        AttributeSet extra = e.cplus - e.attrs;
        extra.for_each([&](AttrId a) {
          bool emit = true;
          e.attrs.for_each([&](AttrId b) {
            if (!emit) return;
            AttributeSet sibling = e.attrs;
            sibling.reset(b);
            sibling.set(a);
            if (!cplus_store.get(sibling).test(a)) emit = false;
          });
          if (emit) {
            ++result.stats.validations;
            heap.offer(RankedFd{Fd(e.attrs, a), 0});
          }
        });
        continue;
      }
      pruned_index.emplace(e.attrs, static_cast<int>(pruned.size()));
      pruned.push_back(std::move(e));
    }

    if (q.max_lhs > 0 && level_num > q.max_lhs) {
      result.stats.pruned_arity += FrontierSize(pruned);
      break;
    }

    // Early termination: every FD still discoverable has an LHS refining
    // some surviving entry, so its score is bounded by the largest surviving
    // support. Once that bound cannot beat the heap floor (ties lose to the
    // strictly smaller LHSs already kept), deeper levels are provably
    // irrelevant.
    if (heap.full() && !pruned.empty()) {
      int64_t bound = 0;
      for (const LevelEntry& e : pruned) {
        bound = std::max(bound, e.partition.support());
      }
      if (bound <= heap.floor_score()) {
        result.stats.pruned_bound += FrontierSize(pruned);
        result.stats.early_terminated = true;
        break;
      }
    }

    // Generate: entry i of a block pairs with each later member j. The
    // (block, i) rows of every block, in block order, form one index range;
    // a row runs its pairs in j order, each doing its subset/C+ check and
    // its intersection on its own, so the chunks' children concatenate into
    // `next` in the sequential pair order. Rows rather than single pairs
    // keep the range O(level) instead of O(pairs), and since a block's rows
    // shrink as i grows, workers claiming chunks in order take the heavy
    // rows first.
    std::unordered_map<AttributeSet, std::vector<int>, AttributeSetHash> blocks;
    for (int i = 0; i < static_cast<int>(pruned.size()); ++i) {
      AttributeSet prefix = pruned[i].attrs;
      prefix.reset(pruned[i].attrs.last());
      blocks[prefix].push_back(i);
    }
    std::vector<std::pair<const std::vector<int>*, std::size_t>> rows;
    for (const auto& [prefix, members] : blocks) {
      (void)prefix;
      for (std::size_t i = 0; i + 1 < members.size(); ++i) {
        rows.emplace_back(&members, i);
      }
    }
    if (result.stats.timed_out) rows.clear();

    auto generate = [&](WalkScratch& s, ChunkResult& out,
                        std::size_t begin, std::size_t end) {
      for (std::size_t row = begin; row < end; ++row) {
        const auto& [members, i] = rows[row];
        const LevelEntry& a = pruned[(*members)[i]];
        for (std::size_t j = i + 1; j < members->size(); ++j) {
          if (deadline.expired()) {
            out.timed_out = true;
            return;
          }
          const LevelEntry& b = pruned[(*members)[j]];
          AttributeSet xy = a.attrs | b.attrs;
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
          LevelEntry& e = out.entries.emplace_back();
          e.attrs = xy;
          e.cplus = cplus;
          s.intersector.intersect(a.partition, b.partition, e.partition);
        }
      }
    };
    std::vector<ChunkResult> made =
        runner.run<ChunkResult>(rows.size(), kObsQueryShard, generate);
    Level next;
    std::size_t total = 0;
    for (const ChunkResult& chunk : made) total += chunk.entries.size();
    next.reserve(total);
    for (ChunkResult& chunk : made) {
      if (chunk.timed_out) result.stats.timed_out = true;
      for (LevelEntry& e : chunk.entries) next.push_back(std::move(e));
    }

    prev = std::move(pruned);
    prev_index = std::move(pruned_index);
    level = std::move(next);
    ++level_num;
  }

  result.fds = heap.take_ranked();
  result.stats.seconds = timer.seconds();
  return result;
}

}  // namespace dhyfd
