#ifndef DHYFD_ALGO_HYFD_H_
#define DHYFD_ALGO_HYFD_H_

#include "algo/discovery.h"

namespace dhyfd {

struct HyfdOptions {
  /// Reads time_limit_seconds, threads and pool; max_lhs and epsilon are
  /// ignored (HyFD discovers the exact, unbounded cover).
  DiscoveryConfig config;
  /// After a validation level invalidates more than this fraction of its
  /// candidates, HyFD switches back to the sampling phase.
  double validation_switch_threshold = 0.2;
};

/// HyFD (Papenbrock & Naumann 2016): the sampling-focused hybrid baseline.
///
/// Alternates a sorted-neighborhood sampling phase (harvesting non-FDs,
/// inducted into an FD-tree) with a validation phase that checks the tree's
/// candidates level by level against single-attribute stripped partitions.
/// Unlike DHyFD it never reuses refined partitions across levels, so LHS
/// values are recomputed redundantly — the inefficiency the paper's DDM
/// removes. As in the paper's experiments, this implementation uses
/// synergized induction on extended FD-trees ("our implementation of HyFD
/// uses synergized induction and performs better than the best known
/// bounds").
class Hyfd : public FdDiscovery {
 public:
  explicit Hyfd(HyfdOptions options = {}) : options_(options) {}
  std::string name() const override { return "hyfd"; }
  DiscoveryResult discover(const Relation& r) override;

 private:
  HyfdOptions options_;
};

}  // namespace dhyfd

#endif  // DHYFD_ALGO_HYFD_H_
