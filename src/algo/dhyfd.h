#ifndef DHYFD_ALGO_DHYFD_H_
#define DHYFD_ALGO_DHYFD_H_

#include "algo/discovery.h"

namespace dhyfd {

struct DhyfdOptions {
  /// Reads every field. With epsilon > 0 the sampling phase is skipped — a
  /// single violating pair refutes only exact FDs — and failed candidates
  /// are specialized directly; soundness of the tree traversal follows from
  /// the g3 measure's anti-monotonicity. max_lhs stops the level loop after
  /// validating LHSs of max_lhs attributes and drops deeper speculative FDs
  /// from the collected cover.
  DiscoveryConfig config;
  /// The efficiency-inefficiency ratio above which the DDM refreshes its
  /// dynamic partitions (paper Section IV-G; Figure 6 tunes this — 3.0 is
  /// the value the paper settles on).
  double ratio_threshold = 3.0;
  /// If false, the DDM never refreshes: every validation starts from a
  /// single-attribute partition. For the E12 ablation bench.
  bool enable_ddm = true;
};

/// DHyFD (paper Algorithm 6): the dynamic hybrid FD-discovery algorithm.
///
/// Column-based traversal of an extended FD-tree, with a dynamic data
/// manager that refines stripped partitions to the current controlled level
/// whenever the efficiency-inefficiency ratio says many FDs are likely
/// valid. Validation (Algorithm 4) extracts non-FDs as it works; synergized
/// induction (Algorithm 2) applies them to the tree.
class Dhyfd : public FdDiscovery {
 public:
  explicit Dhyfd(DhyfdOptions options = {}) : options_(options) {}
  std::string name() const override { return "dhyfd"; }
  DiscoveryResult discover(const Relation& r) override;

 private:
  DhyfdOptions options_;
};

}  // namespace dhyfd

#endif  // DHYFD_ALGO_DHYFD_H_
