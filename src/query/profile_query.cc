#include "query/profile_query.h"

#include <utility>

#include "query/engine.h"

namespace dhyfd {

std::shared_ptr<QueryResultSlot> BindQueryToProfile(ProfileOptions& options,
                                                    DiscoveryQuery query) {
  auto slot = std::make_shared<QueryResultSlot>();
  options.discovery_override =
      [slot, query = std::move(query)](
          const Relation& relation,
          const ProfileOptions& opts) -> DiscoveryResult {
    // The engine runs under the options' config as of profile() time,
    // after the service layer's deadline, thread clamp and pool injection.
    slot->result = QueryEngine(opts.discovery).execute(relation, query);

    // Surface the query answer through the generic discovery fields so
    // cover and ranking consumers work unchanged.
    DiscoveryResult discovery;
    discovery.fds = slot->result->cover();
    discovery.stats.seconds = slot->result->stats.seconds;
    discovery.stats.validations = slot->result->stats.validations;
    discovery.stats.levels = slot->result->stats.levels;
    discovery.stats.timed_out = slot->result->stats.timed_out;
    return discovery;
  };
  return slot;
}

}  // namespace dhyfd
