#ifndef DHYFD_ALGO_FDEP_H_
#define DHYFD_ALGO_FDEP_H_

#include "algo/discovery.h"

namespace dhyfd {

/// The three row-based variants evaluated in the paper (Section V-B):
enum class FdepVariant {
  /// FDEP: Flach & Savnik's original — classic FD-tree with propagated RHS
  /// labels and per-RHS-attribute induction.
  kClassic,
  /// FDEP1: non-redundant cover of non-FDs (maximal agree sets only), then
  /// synergized induction on an extended FD-tree.
  kNonRedundant,
  /// FDEP2: all non-FDs sorted descending by LHS size, synergized induction
  /// on an extended FD-tree. The paper's recommended variant.
  kSorted,
};

/// Row-based FD discovery from the complete agree-set cover of all tuple
/// pairs. Exact but O(rows^2); the paper's row-scalability baseline.
class Fdep : public FdDiscovery {
 public:
  /// Reads only config.time_limit_seconds (the paper's TL); the run is
  /// single-threaded and exact.
  explicit Fdep(FdepVariant variant = FdepVariant::kSorted,
                DiscoveryConfig config = {})
      : variant_(variant), config_(config) {}
  std::string name() const override;
  DiscoveryResult discover(const Relation& r) override;

 private:
  FdepVariant variant_;
  DiscoveryConfig config_;
};

}  // namespace dhyfd

#endif  // DHYFD_ALGO_FDEP_H_
