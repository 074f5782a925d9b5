// Ablation bench (DESIGN.md E12): isolates the paper's four design choices.
//  1. Synergized induction on extended FD-trees vs classic per-attribute
//     induction on classic FD-trees (FDEP2 vs FDEP), plus the classic
//     tree's label overhead.
//  2. Non-FD ordering: sorted-descending (FDEP2) vs non-redundant cover
//     (FDEP1).
//  3. DDM refresh gating: DHyFD at ratio 3 vs never-refresh (DDM off) vs
//     always-refresh (ratio ~0).
//
// Flags: --rows=N  --tl=SECONDS (default 20)
#include "bench_util.h"

#include "algo/dhyfd.h"
#include "algo/fdep.h"
#include "fdtree/fd_tree.h"

namespace dhyfd::bench {
namespace {

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  ObsSession obs(ObsOptionsFromFlags(flags));
  DiscoveryConfig limit;
  limit.time_limit_seconds = flags.get_double("tl", 20.0);
  PrintHeader("Ablations (E12)",
              "Each block isolates one design decision the paper credits for "
              "DHyFD's gains.");

  std::printf("1) induction method: classic (FDEP) vs synergized (FDEP2), s\n");
  std::printf("%-11s %10s %10s %10s\n", "dataset", "classic", "synergized", "speedup");
  PrintRule(46);
  for (const char* name : {"ncvoter", "bridges", "echo", "hepatitis", "horse",
                           "adult", "letter"}) {
    Relation r = LoadBenchmark(name, flags.get_int("rows", 0));
    DiscoveryResult classic = Fdep(FdepVariant::kClassic, limit).discover(r);
    DiscoveryResult synergized = Fdep(FdepVariant::kSorted, limit).discover(r);
    double speedup = synergized.stats.seconds > 0 && !classic.stats.timed_out
                         ? classic.stats.seconds / synergized.stats.seconds
                         : 0;
    std::printf("%-11s %10s %10s %9.2fx\n", name, FmtTime(classic.stats).c_str(),
                FmtTime(synergized.stats).c_str(), speedup);
    std::fflush(stdout);
  }

  std::printf("\n2) non-FD ordering: non-redundant cover (FDEP1) vs sorted "
              "(FDEP2), s\n");
  std::printf("%-11s %10s %10s\n", "dataset", "fdep1", "fdep2");
  PrintRule(34);
  for (const char* name : {"ncvoter", "plista", "flight", "horse", "hepatitis"}) {
    Relation r = LoadBenchmark(name, flags.get_int("rows", 0));
    DiscoveryResult f1 = Fdep(FdepVariant::kNonRedundant, limit).discover(r);
    DiscoveryResult f2 = Fdep(FdepVariant::kSorted, limit).discover(r);
    std::printf("%-11s %10s %10s\n", name, FmtTime(f1.stats).c_str(),
                FmtTime(f2.stats).c_str());
    std::fflush(stdout);
  }

  std::printf("\n3) DDM gating on weather/diabetic analogs, s "
              "(ratio 3 = paper default)\n");
  std::printf("%-11s %12s %12s %12s %10s\n", "dataset", "ddm_off", "ratio3",
              "always", "updates@3");
  PrintRule(62);
  for (const char* name : {"weather", "diabetic", "uniprot", "lineitem"}) {
    Relation r = LoadBenchmark(name, flags.get_int("rows", 0));
    DhyfdOptions ratio3{limit};
    DhyfdOptions off = ratio3;
    off.enable_ddm = false;
    DhyfdOptions always = ratio3;
    always.ratio_threshold = 1e-9;
    DiscoveryResult r_off = Dhyfd(off).discover(r);
    DiscoveryResult r_3 = Dhyfd(ratio3).discover(r);
    DiscoveryResult r_always = Dhyfd(always).discover(r);
    std::printf("%-11s %12s %12s %12s %10d\n", name, FmtTime(r_off.stats).c_str(),
                FmtTime(r_3.stats).c_str(), FmtTime(r_always.stats).c_str(),
                r_3.stats.ddm_updates);
    std::fflush(stdout);
  }

  std::printf("\n4) classic FD-tree labeling overhead (ncvoter non-FDs)\n");
  {
    Relation r = LoadBenchmark("ncvoter", flags.get_int("rows", 0));
    DiscoveryResult res = Fdep(FdepVariant::kClassic, limit).discover(r);
    // Rebuild the final classic tree to inspect label counts.
    FdTree tree(r.num_cols());
    for (const Fd& fd : res.fds.fds) tree.add(fd.lhs, fd.rhs.first());
    std::printf("  nodes=%zu, propagated labels=%lld, FDs=%lld "
                "(labels/FD = %.2f; extended trees store exactly 1 per FD "
                "attribute)\n",
                tree.node_count(), static_cast<long long>(tree.label_count()),
                static_cast<long long>(res.fds.size()),
                res.fds.size() > 0 ? static_cast<double>(tree.label_count()) /
                                         static_cast<double>(res.fds.size())
                                   : 0.0);
  }
  return 0;
}

}  // namespace
}  // namespace dhyfd::bench

int main(int argc, char** argv) { return dhyfd::bench::Main(argc, argv); }
