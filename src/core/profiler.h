#ifndef DHYFD_CORE_PROFILER_H_
#define DHYFD_CORE_PROFILER_H_

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "algo/discovery.h"
#include "fd/cover.h"
#include "ranking/ranking.h"
#include "relation/encoder.h"

namespace dhyfd {

/// The pipeline stages a ProfileReport times individually; passed to
/// ProfileOptions::stage_hook as each stage completes.
enum class ProfileStage { kEncode, kDiscover, kCanonical, kRank };

const char* ProfileStageName(ProfileStage stage);

/// Options for the one-call profiling pipeline.
struct ProfileOptions {
  /// One of AllDiscoveryNames(); DHyFD by default.
  std::string algorithm = "dhyfd";
  NullSemantics semantics = NullSemantics::kNullEqualsNull;
  /// Compute the canonical cover from the left-reduced one (Section V-D).
  bool compute_canonical = true;
  /// Rank the (canonical) cover by data redundancy (Section VI).
  bool compute_ranking = true;
  RedundancyMode ranking_mode = RedundancyMode::kExcludingNullRhs;
  /// Settings for the discovery stage: deadline (the paper's TL), threads
  /// and pool, arity and error bounds. The rank stage shards over the same
  /// threads and pool. The JobScheduler sets the pool and clamps the
  /// threads for service jobs; library callers may pass their own pool.
  DiscoveryConfig discovery;
  /// When set, replaces the discovery stage wholesale: the hook receives
  /// the relation plus these options (after the service layer's
  /// adjustments to `discovery`) and must return the cover and
  /// stats the rest of the pipeline consumes. This is how upper layers
  /// inject richer discovery without core depending on them — the query
  /// layer's BindQueryToProfile (src/query/profile_query.h) installs an
  /// override that runs the rank-driven engine and parks the full
  /// QueryResult in a side slot. `algorithm` is ignored while set.
  std::function<DiscoveryResult(const Relation&, const ProfileOptions&)>
      discovery_override;
  /// Called on the profiling thread as each stage finishes; the service
  /// layer uses this to feed per-stage latency histograms.
  std::function<void(ProfileStage, double seconds)> stage_hook;
};

/// Validates the options a client controls; returns "" when they can run,
/// else a one-line reason. Today that is the algorithm name: it must be one
/// of AllDiscoveryNames() unless discovery_override replaces the stage.
/// The net front end calls this before queueing a job, so a bad name is a
/// client error, not a failed job.
std::string DescribeProfileError(const ProfileOptions& options);

/// Wall-clock seconds spent in each pipeline stage. encode_seconds is only
/// nonzero for the RawTable overload (an already-encoded Relation skips it).
struct StageTimings {
  double encode_seconds = 0;
  double discover_seconds = 0;
  double canonical_seconds = 0;
  double ranking_seconds = 0;
  double total_seconds() const {
    return encode_seconds + discover_seconds + canonical_seconds +
           ranking_seconds;
  }
};

/// Everything the paper derives from one data set.
struct ProfileReport {
  Schema schema;
  NullStats null_stats;
  DiscoveryResult discovery;
  /// The discovered left-reduced cover (same as discovery.fds).
  FdSet left_reduced;
  FdSet canonical;
  CoverStats cover_stats;
  /// Canonical-cover FDs ranked by descending redundancy.
  std::vector<FdRedundancy> ranking;
  DatasetRedundancy dataset_redundancy;
  StageTimings timings;
  /// True if a CancelScope token fired mid-pipeline; later stages were
  /// skipped and discovery.stats.timed_out may be set.
  bool cancelled = false;

  /// Multi-line human-readable summary.
  std::string summary() const;
};

/// The library's quickstart entry point: discover -> cover -> rank.
class Profiler {
 public:
  explicit Profiler(ProfileOptions options = {}) : options_(options) {}

  /// Profiles a raw CSV table (encodes it first under options.semantics).
  ProfileReport profile(const RawTable& table) const;

  /// Profiles an already-encoded relation.
  ProfileReport profile(const Relation& relation) const;

 private:
  ProfileOptions options_;
};

}  // namespace dhyfd

#endif  // DHYFD_CORE_PROFILER_H_
