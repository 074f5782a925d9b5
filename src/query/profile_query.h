#ifndef DHYFD_QUERY_PROFILE_QUERY_H_
#define DHYFD_QUERY_PROFILE_QUERY_H_

#include <memory>
#include <optional>

#include "core/profiler.h"
#include "query/query.h"

namespace dhyfd {

/// Where BindQueryToProfile parks the full ranked answer. The profiling
/// thread writes `result` exactly once, while running the discovery stage;
/// readers must wait for the profile run to finish (JobHandle::wait /
/// JobScheduler completion) before looking, which is the same ordering
/// contract ProfileReport itself has.
struct QueryResultSlot {
  std::optional<QueryResult> result;
};

/// Routes `options`' discovery stage through the rank-driven query engine
/// (approximate thresholds, arity bounds, top-k early termination), keeping
/// core free of any query dependency: this installs a
/// ProfileOptions::discovery_override closure that runs QueryEngine under the
/// options' DiscoveryConfig, surfaces the result's cover and stats
/// through the generic DiscoveryResult fields, and stores the full
/// QueryResult (scores, pruning stats) in the returned slot.
///
/// The returned shared_ptr is also captured by the closure, so the slot
/// outlives copies of the options regardless of which dies first.
std::shared_ptr<QueryResultSlot> BindQueryToProfile(ProfileOptions& options,
                                                    DiscoveryQuery query);

}  // namespace dhyfd

#endif  // DHYFD_QUERY_PROFILE_QUERY_H_
