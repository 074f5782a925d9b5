#ifndef DHYFD_ALGO_SAMPLER_H_
#define DHYFD_ALGO_SAMPLER_H_

#include <unordered_set>
#include <vector>

#include "partition/stripped_partition.h"
#include "relation/relation.h"
#include "util/chunk_runner.h"

namespace dhyfd {

/// Sorted-neighborhood pair selection sampling (Hernandez & Stolfo; used by
/// HyFD and, once at start-up, by DHyFD).
///
/// For every attribute, the rows of each cluster of pi_A are sorted
/// lexicographically by the remaining attributes (the "sorted
/// neighborhood"); likely-similar tuples then sit next to each other.
/// Comparing rows at neighbor distance w harvests large agree sets — the
/// most specific non-FDs — cheaply.
///
/// With a pool and parallelism > 1, the per-attribute work — neighborhood
/// sorting in the constructor, agree-set induction in run() — runs in
/// attribute chunks over the pool. Each chunk collects its attributes'
/// agree sets in order; the dedup against `seen_` then replays the chunks in
/// order on the calling thread, so the returned fresh agree sets are the
/// exact sequence the sequential loop produces.
class NeighborhoodSampler {
 public:
  /// `attr_partitions` must contain one partition per attribute and outlive
  /// the sampler. `pool` (not owned, may be null) enables sharded sampling
  /// with up to `parallelism` threads including the caller.
  NeighborhoodSampler(const Relation& r,
                      const std::vector<StrippedPartition>& attr_partitions,
                      ThreadPool* pool = nullptr, int parallelism = 1);

  /// Compares rows at distance `window` within every sorted cluster and
  /// returns the agree sets not seen before (across all calls).
  std::vector<AttributeSet> run(int window);

  /// Runs windows 1..max_window: the one-off initial sampling of DHyFD.
  std::vector<AttributeSet> initial(int max_window);

  int64_t pairs_compared() const { return pairs_compared_; }

  /// New non-FDs per comparison in the most recent run(); HyFD's sampling
  /// phase stops when this drops below its efficiency threshold.
  double last_efficiency() const { return last_efficiency_; }

  /// Largest window run so far; HyFD resumes from window() + 1.
  int window() const { return window_; }

 private:
  /// All (non-trivial) agree sets of attribute a's clusters at `window`, in
  /// cluster-then-pair order, before dedup.
  void collect_attribute(AttrId a, int window, std::vector<AttributeSet>& out,
                         int64_t& comparisons) const;

  const Relation& rel_;
  ChunkRunner<> runner_;
  // Per attribute: a CSR copy of that attribute's partition with rows in
  // sorted-neighborhood order (reordered in place via mutable_cluster).
  std::vector<StrippedPartition> sorted_;
  std::unordered_set<AttributeSet, AttributeSetHash> seen_;
  int64_t pairs_compared_ = 0;
  double last_efficiency_ = 0;
  int window_ = 0;
};

}  // namespace dhyfd

#endif  // DHYFD_ALGO_SAMPLER_H_
