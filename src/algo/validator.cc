#include "algo/validator.h"

#include <iterator>

#include "obs/obs.h"
#include "obs/obs_schema.gen.h"

namespace dhyfd {

ValidationOutcome ValidateWithPartition(const Relation& r, const AttributeSet& lhs,
                                        const AttributeSet& rhs,
                                        const StrippedPartition& base,
                                        const AttributeSet& base_attrs,
                                        PartitionRefiner& refiner) {
  ValidationOutcome out;
  out.valid_rhs = rhs;
  if (rhs.empty()) return out;
  // Counters are flushed once per call (below), not per pair: the observer
  // costs one thread-local check even when every row is visited.
  struct CallCounters {
    const ValidationOutcome& out;
    const AttributeSet& rhs;
    ~CallCounters() {
      ObsAdd(kObsDiscoverValidatorCalls);
      ObsAdd(kObsDiscoverValidatorPairs, out.pairs_checked);
      ObsAdd(kObsDiscoverValidatorRefutedFds,
             rhs.count() - out.valid_rhs.count());
      ObsAdd(kObsPartitionSingleClusterRefinements, out.refinements);
    }
  } counters{out, rhs};

  AttributeSet missing = lhs - base_attrs;
  std::vector<AttrId> missing_attrs;
  missing.for_each([&](AttrId a) { missing_attrs.push_back(a); });

  // Two CSR scratch arenas ping-pong per refinement step; their capacity is
  // reused across every class of `base`, so the whole call allocates only
  // while the arenas first grow.
  StrippedPartition pi, next;
  for (ClusterView s : base.clusters()) {
    // Algorithm 4 steps 5-8: refine only this class, one attribute at a time.
    pi.clear();
    pi.add_cluster(s);
    for (AttrId a : missing_attrs) {
      next.clear();
      const size_t n = static_cast<size_t>(pi.size());
      for (size_t i = 0; i < n; ++i) {
        refiner.refine_cluster(pi.cluster(i), a, next);
        ++out.refinements;
      }
      pi.swap(next);
      if (pi.empty()) break;
    }
    for (ClusterView cluster : pi.clusters()) {
      RowId t0 = cluster[0];
      for (size_t i = 1; i < cluster.size(); ++i) {
        RowId ti = cluster[i];
        ++out.pairs_checked;
        AttributeSet invalid;
        out.valid_rhs.for_each([&](AttrId a) {
          if (r.value(ti, a) != r.value(t0, a)) invalid.set(a);
        });
        if (!invalid.empty()) {
          out.valid_rhs -= invalid;
          out.violations.push_back(r.agree_set(t0, ti));
          if (out.valid_rhs.empty()) return out;
        }
      }
    }
  }
  return out;
}

ValidationOutcome ValidateApproxWithPartition(const Relation& r,
                                              const AttributeSet& lhs,
                                              const AttributeSet& rhs,
                                              const StrippedPartition& base,
                                              const AttributeSet& base_attrs,
                                              PartitionRefiner& refiner,
                                              int64_t budget) {
  ValidationOutcome out;
  out.valid_rhs = rhs;
  if (rhs.empty()) return out;
  struct CallCounters {
    const ValidationOutcome& out;
    const AttributeSet& rhs;
    ~CallCounters() {
      ObsAdd(kObsDiscoverValidatorCalls);
      ObsAdd(kObsDiscoverValidatorPairs, out.pairs_checked);
      ObsAdd(kObsDiscoverValidatorRefutedFds,
             rhs.count() - out.valid_rhs.count());
      ObsAdd(kObsPartitionSingleClusterRefinements, out.refinements);
    }
  } counters{out, rhs};

  AttributeSet missing = lhs - base_attrs;
  std::vector<AttrId> missing_attrs;
  missing.for_each([&](AttrId a) { missing_attrs.push_back(a); });

  // Per-RHS removal counts accumulate across base classes; an attribute is
  // refuted the moment its count exceeds the budget. Removal counting is
  // additive over disjoint classes, so per-class accumulation computes the
  // same total as one pass over the full pi_X.
  ApproxErrorCalculator calc(r);
  std::vector<int64_t> removals(static_cast<size_t>(r.num_cols()), 0);

  StrippedPartition pi, next;
  for (ClusterView s : base.clusters()) {
    pi.clear();
    pi.add_cluster(s);
    for (AttrId a : missing_attrs) {
      next.clear();
      const size_t n = static_cast<size_t>(pi.size());
      for (size_t i = 0; i < n; ++i) {
        refiner.refine_cluster(pi.cluster(i), a, next);
        ++out.refinements;
      }
      pi.swap(next);
      if (pi.empty()) break;
    }
    if (pi.empty()) continue;
    AttributeSet refuted;
    out.valid_rhs.for_each([&](AttrId a) {
      out.pairs_checked += pi.support();
      removals[a] += calc.removals(pi, a);
      if (removals[a] > budget) refuted.set(a);
    });
    if (!refuted.empty()) {
      out.valid_rhs -= refuted;
      if (out.valid_rhs.empty()) return out;
    }
  }
  return out;
}

void LevelValidationResult::append(LevelValidationResult&& o) {
  auto concat = [](auto& into, auto& from) {
    if (into.empty()) {
      into = std::move(from);
    } else {
      into.insert(into.end(), std::make_move_iterator(from.begin()),
                  std::make_move_iterator(from.end()));
    }
  };
  concat(violations, o.violations);
  concat(refuted_fds, o.refuted_fds);
  validations += o.validations;
  pairs_checked += o.pairs_checked;
  refinements += o.refinements;
  invalidated += o.invalidated;
  timed_out = timed_out || o.timed_out;
}

}  // namespace dhyfd
