#ifndef DHYFD_ALGO_DISCOVERY_H_
#define DHYFD_ALGO_DISCOVERY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fd/fd_set.h"
#include "relation/relation.h"

namespace dhyfd {

class ThreadPool;

/// The discovery settings every layer shares: arity, error threshold,
/// deadline and threads (the surface Desbordante exposes for its FD
/// algorithms). Whoever owns a request fills one config in — a library
/// caller, the query engine from a DiscoveryQuery, the scheduler from a job —
/// and it is passed down unchanged. Algorithms read the fields they support
/// and ignore the rest:
///
///   max_lhs, epsilon     TANE and DHyFD
///   time_limit_seconds   every algorithm, and the top-k walk
///   threads, pool        HyFD and DHyFD, the rank stage after them (the
///                        Profiler's, the query engine's full-cover path),
///                        and the query engine's top-k walk
struct DiscoveryConfig {
  /// Precise LHS arity bound (0 = unbounded): every FD with at most max_lhs
  /// LHS attributes is validated and emitted, nothing larger is explored, so
  /// the output is exactly the full cover filtered to |LHS| <= max_lhs.
  int max_lhs = 0;
  /// Error threshold for approximate FDs: a candidate X -> A holds when its
  /// g3 removal count stays within floor(epsilon * |r|) (see
  /// ApproxErrorCalculator). 0 runs the exact test.
  double epsilon = 0;
  /// Cooperative deadline in seconds (0 = none); on expiry the run stops
  /// with stats.timed_out set, mirroring the paper's TL entries.
  double time_limit_seconds = 0;
  /// Threads used within one run, including the calling thread (<= 1 =
  /// sequential). Effective only with a pool; parallel runs return covers
  /// bit-identical to sequential ones (DESIGN.md, "Parallel discovery").
  int threads = 1;
  /// Pool the validation/sampling/DDM shards, the rank stage's per-FD
  /// shards and the top-k walk's per-level shards fan out over. Not owned;
  /// may be shared with other jobs (shards are claimed help-first, so a
  /// busy pool degrades to sequential instead of deadlocking).
  ThreadPool* pool = nullptr;
};

/// Run statistics shared by every discovery algorithm; these back the
/// paper's Table II (time, memory) and the scalability figures.
struct DiscoveryStats {
  double seconds = 0;
  double memory_mb = 0;            // peak RSS delta during the run
  int64_t validations = 0;         // candidate FDs checked against the data
  int64_t invalidated = 0;         // candidates found invalid
  int64_t sampled_non_fds = 0;     // non-FDs from sampling / agree sets
  int64_t pairs_compared = 0;      // tuple pairs inspected
  int64_t refinements = 0;         // stripped-partition cluster refinements
  int ddm_updates = 0;             // DDM rebuilds (DHyFD only)
  int levels = 0;                  // validation levels processed
  /// True if the run was abandoned at its time limit; fds is then partial
  /// (the paper reports such runs as "TL").
  bool timed_out = false;
};

struct DiscoveryResult {
  /// A left-reduced cover of the FDs satisfied by the input, with singleton
  /// RHSs, in deterministic sorted order.
  FdSet fds;
  DiscoveryStats stats;
};

/// Common interface for all six discovery algorithms, so benches and tests
/// can sweep over them uniformly.
class FdDiscovery {
 public:
  virtual ~FdDiscovery() = default;
  virtual std::string name() const = 0;
  virtual DiscoveryResult discover(const Relation& r) = 0;
};

/// Names accepted by MakeDiscovery: "tane", "fdep", "fdep1", "fdep2",
/// "hyfd", "dhyfd" (AllDiscoveryNames()); any other name throws
/// std::invalid_argument.
std::unique_ptr<FdDiscovery> MakeDiscovery(const std::string& name,
                                           const DiscoveryConfig& config);

/// Positional shorthand for a config with only the deadline and threads set.
std::unique_ptr<FdDiscovery> MakeDiscovery(const std::string& name,
                                           double time_limit_seconds = 0,
                                           int parallelism = 1,
                                           ThreadPool* worker_pool = nullptr);

/// All six algorithm names in the paper's Table II order.
const std::vector<std::string>& AllDiscoveryNames();

/// Brute-force reference: computes the left-reduced cover by enumerating
/// agree sets of all tuple pairs and minimizing. Exponential in columns;
/// only for cross-checking on small inputs in tests.
FdSet BruteForceDiscover(const Relation& r);

}  // namespace dhyfd

#endif  // DHYFD_ALGO_DISCOVERY_H_
