#include "algo/sampler.h"

#include <algorithm>

#include "obs/obs.h"
#include "obs/obs_schema.gen.h"

namespace dhyfd {

NeighborhoodSampler::NeighborhoodSampler(
    const Relation& r, const std::vector<StrippedPartition>& attr_partitions,
    ThreadPool* pool, int parallelism)
    : rel_(r), runner_(pool, parallelism) {
  const int m = r.num_cols();
  sorted_.resize(m);
  // Per-attribute neighborhood sort; attributes are independent, so chunks
  // write disjoint sorted_[a] slots.
  auto sort_attribute = [&](size_t a) {
    sorted_[a] = attr_partitions[a];
    for (size_t ci = 0; ci < static_cast<size_t>(sorted_[a].size()); ++ci) {
      std::span<RowId> cluster = sorted_[a].mutable_cluster(ci);
      // Sort by the remaining attributes, wrapping around from a+1, so the
      // neighborhood ordering differs per attribute and covers more pairs.
      std::sort(cluster.begin(), cluster.end(), [&](RowId x, RowId y) {
        for (int off = 1; off < m; ++off) {
          AttrId c = (static_cast<int>(a) + off) % m;
          ValueId vx = rel_.value(x, c), vy = rel_.value(y, c);
          if (vx != vy) return vx < vy;
        }
        return x < y;
      });
    }
  };
  runner_.run<NoResult>(m, kObsDiscoverShard,
                        [&](NoScratch&, NoResult&, size_t begin, size_t end) {
                          for (size_t a = begin; a < end; ++a) sort_attribute(a);
                        });
}

void NeighborhoodSampler::collect_attribute(AttrId a, int window,
                                            std::vector<AttributeSet>& out,
                                            int64_t& comparisons) const {
  const int m = rel_.num_cols();
  for (ClusterView cluster : sorted_[a].clusters()) {
    if (static_cast<int>(cluster.size()) <= window) continue;
    for (size_t i = 0; i + window < cluster.size(); ++i) {
      RowId s = cluster[i], t = cluster[i + window];
      ++comparisons;
      AttributeSet ag = rel_.agree_set(s, t);
      if (ag.count() == m) continue;  // duplicate rows imply no non-FD
      out.push_back(ag);
    }
  }
}

std::vector<AttributeSet> NeighborhoodSampler::run(int window) {
  const int m = rel_.num_cols();
  // Agree-set induction fans out over attribute chunks; dedup stays on the
  // calling thread, replayed in chunk (= attribute) order, so `fresh` (and
  // the seen_ state feeding every later run) is independent of timing.
  struct Collected {
    std::vector<AttributeSet> agree_sets;
    int64_t comparisons = 0;
  };
  std::vector<Collected> chunks = runner_.run<Collected>(
      static_cast<size_t>(m), kObsDiscoverShard,
      [&](NoScratch&, Collected& out, size_t begin, size_t end) {
        for (size_t a = begin; a < end; ++a) {
          collect_attribute(static_cast<AttrId>(a), window, out.agree_sets,
                            out.comparisons);
        }
      });

  std::vector<AttributeSet> fresh;
  int64_t comparisons = 0;
  for (const Collected& chunk : chunks) {
    comparisons += chunk.comparisons;
    for (const AttributeSet& ag : chunk.agree_sets) {
      if (seen_.insert(ag).second) fresh.push_back(ag);
    }
  }
  pairs_compared_ += comparisons;
  last_efficiency_ =
      comparisons == 0 ? 0.0
                       : static_cast<double>(fresh.size()) / static_cast<double>(comparisons);
  window_ = std::max(window_, window);
  ObsAdd(kObsDiscoverSamplerRounds);
  ObsAdd(kObsDiscoverSamplerPairs, comparisons);
  ObsAdd(kObsDiscoverSamplerNewAgreeSets, static_cast<int64_t>(fresh.size()));
  return fresh;
}

std::vector<AttributeSet> NeighborhoodSampler::initial(int max_window) {
  std::vector<AttributeSet> all;
  for (int w = 1; w <= max_window; ++w) {
    std::vector<AttributeSet> fresh = run(w);
    all.insert(all.end(), fresh.begin(), fresh.end());
  }
  return all;
}

}  // namespace dhyfd
