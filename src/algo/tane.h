#ifndef DHYFD_ALGO_TANE_H_
#define DHYFD_ALGO_TANE_H_

#include "algo/discovery.h"

namespace dhyfd {

/// TANE (Huhtala et al. 1999): the column-based baseline. Traverses the
/// attribute lattice level by level, validating candidates via stripped-
/// partition errors and pruning with RHS-candidate sets C+ and superkeys.
/// Reads max_lhs, epsilon and time_limit_seconds from its config; the run
/// is single-threaded. The precise arity bound runs one extra validation
/// level, so the cover below the bound is complete.
class Tane : public FdDiscovery {
 public:
  explicit Tane(DiscoveryConfig config = {}) : config_(config) {}
  std::string name() const override { return "tane"; }
  DiscoveryResult discover(const Relation& r) override;

 private:
  DiscoveryConfig config_;
};

}  // namespace dhyfd

#endif  // DHYFD_ALGO_TANE_H_
