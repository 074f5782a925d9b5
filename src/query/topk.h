#ifndef DHYFD_QUERY_TOPK_H_
#define DHYFD_QUERY_TOPK_H_

#include "algo/discovery.h"
#include "query/query.h"
#include "relation/relation.h"

namespace dhyfd {

/// Rank-driven lattice traversal for top-k queries (q.top_k > 0): a
/// TANE-style level walk that keeps a min-heap of the k best-ranked FDs
/// found so far plus an admissible upper bound on the score of anything
/// still unexplored, and stops — provably without missing a top-k member —
/// once the bound can no longer beat the heap floor.
///
/// The bound: an FD emitted at a deeper level has an LHS W whose lattice
/// entry descends from the surviving entries of the current level, so some
/// surviving Z satisfies Z subseteq W; redundancy scores count pi_{LHS}
/// arena rows, and supports only shrink under refinement, hence
/// score(W -> A) <= ||pi_W|| <= ||pi_Z|| <= max surviving support. Ties at
/// the floor cannot displace either: every heap member has a strictly
/// smaller LHS than any future candidate, and ties rank small-LHS-first
/// (see DESIGN.md "Rank-driven queries" for the full argument).
///
/// Each level's loops — column partitions at level 1, candidate validation,
/// and the same-prefix pair loop with its partition intersections — run
/// over config.pool at config.threads; pruning, the key rule, the bound and
/// block grouping stay on the caller. The answer and every QueryStats
/// counter are identical at any degree (DESIGN.md "Rank-driven queries").
/// config.time_limit_seconds is the deadline; q's epsilon and max_lhs
/// replace the config's.
///
/// `r` must already be projected to the query's column scope; attribute ids
/// in the result refer to r's schema.
QueryResult TopKDiscover(const Relation& r, const DiscoveryQuery& q,
                         const DiscoveryConfig& config = {});

}  // namespace dhyfd

#endif  // DHYFD_QUERY_TOPK_H_
