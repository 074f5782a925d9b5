#ifndef DHYFD_QUERY_ENGINE_H_
#define DHYFD_QUERY_ENGINE_H_

#include "algo/discovery.h"
#include "query/query.h"
#include "relation/relation.h"

namespace dhyfd {

/// Executes DiscoveryQuery specs. Routing:
///
///   top_k > 0            -> the rank-driven lattice walk (query/topk.h)
///   top_k == 0           -> DHyFD with the query's epsilon / arity bounds
///                           threaded through, then ranked in full
///
/// so an unconstrained query (epsilon 0, k 0, unbounded arity) returns
/// exactly the DHyFD cover in rank order. Column include/exclude scopes run
/// discovery on a projected copy of the relation; result attribute ids are
/// mapped back to the original schema.
///
/// The engine's config supplies the deadline, threads and pool to both
/// paths: the full-discovery path shards DHyFD and the rank stage, the top-k
/// walk shards each lattice level. The ranked answer is bit-identical at any
/// degree. Each query's own epsilon and max_lhs replace the config's.
class QueryEngine {
 public:
  explicit QueryEngine(DiscoveryConfig config = {}) : config_(config) {}

  /// Throws std::invalid_argument when DescribeQueryError rejects the spec
  /// against r's schema.
  QueryResult execute(const Relation& r, const DiscoveryQuery& q) const;

 private:
  DiscoveryConfig config_;
};

/// Copies the given columns (in the given order) into a standalone relation;
/// nulls and dense value codes are preserved. Exposed for tests.
Relation ProjectRelation(const Relation& r, const std::vector<AttrId>& cols);

}  // namespace dhyfd

#endif  // DHYFD_QUERY_ENGINE_H_
