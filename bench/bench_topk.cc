// Top-k query engine: how much discovery work does the rank cutoff save?
//
// Sweeps a k x epsilon grid over one benchmark dataset and reports, per
// cell, the validations performed and the pruning counters. The acceptance
// shape: within a fixed epsilon column, validations shrink monotonically as
// k tightens — the admissible score bound terminates the lattice walk
// earlier the higher the heap floor sits.
//
// The sweep stays on the top-k lattice path (k > 0) so validation counts
// are like-for-like; k=0 routes to the hybrid sampler whose validation
// accounting is not comparable (it counts refinement batches, not lattice
// candidates).
//
// The grid runs once per degree in --threads (default 1 and the machine's
// core count): degree 1 is the walk without a pool, wider degrees shard
// each lattice level over a pool of that size. A cell's `seconds` is the
// best of --reps runs, and every degree must report the same answer and
// the same pruning counters as degree 1 — parallelism changes who does the
// work, never how much.
//
// Emits one {"bench":"topk",...} JSON row per cell on stdout; fold into
// BENCH_topk.json with tools/bench_distill.py.
//
// Flags: --dataset=weather --rows=3000 --ks=1,2,4,8,16,64 --eps=0,0.01,0.05
//        --threads=1,<nproc> --reps=3
#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "query/engine.h"
#include "util/thread_pool.h"

namespace dhyfd::bench {
namespace {

struct Cell {
  int threads = 1;
  std::uint32_t k = 0;
  double epsilon = 0;
  QueryStats stats;  // stats.seconds: best of the reps
  std::vector<RankedFd> fds;
};

Cell RunCell(const Relation& r, std::uint32_t k, double epsilon, int threads,
             ThreadPool* pool, int reps) {
  DiscoveryQuery q;
  q.top_k = k;
  q.epsilon = epsilon;
  DiscoveryConfig config;
  config.threads = threads;
  config.pool = pool;
  Cell cell;
  cell.threads = threads;
  cell.k = k;
  cell.epsilon = epsilon;
  for (int rep = 0; rep < reps; ++rep) {
    QueryResult res = QueryEngine(config).execute(r, q);
    double best = rep == 0 ? res.stats.seconds
                           : std::min(cell.stats.seconds, res.stats.seconds);
    cell.stats = res.stats;
    cell.stats.seconds = best;
    cell.fds = std::move(res.fds);
  }
  return cell;
}

/// Same ranked answer and the same work counters.
bool SameAnswer(const Cell& a, const Cell& b) {
  if (a.fds.size() != b.fds.size()) return false;
  for (std::size_t i = 0; i < a.fds.size(); ++i) {
    if (!(a.fds[i].fd == b.fds[i].fd) || a.fds[i].score != b.fds[i].score) {
      return false;
    }
  }
  return a.stats.validations == b.stats.validations &&
         a.stats.pruned_epsilon == b.stats.pruned_epsilon &&
         a.stats.pruned_bound == b.stats.pruned_bound &&
         a.stats.levels == b.stats.levels &&
         a.stats.early_terminated == b.stats.early_terminated;
}

void PrintJsonRow(const std::string& dataset, const Relation& r,
                  const Cell& c) {
  std::printf(
      "{\"bench\":\"topk\",%s,\"rows\":%d,\"cols\":%d,\"threads\":%d,"
      "\"k\":%u,\"epsilon\":%g,\"fds\":%zu,\"validations\":%lld,"
      "\"pruned_epsilon\":%lld,\"pruned_arity\":%lld,\"pruned_bound\":%lld,"
      "\"levels\":%d,\"early_terminated\":%s,\"seconds\":%.4f}\n",
      JsonStamp(dataset).c_str(), r.num_rows(), r.num_cols(), c.threads, c.k,
      c.epsilon, c.fds.size(), static_cast<long long>(c.stats.validations),
      static_cast<long long>(c.stats.pruned_epsilon),
      static_cast<long long>(c.stats.pruned_arity),
      static_cast<long long>(c.stats.pruned_bound), c.stats.levels,
      c.stats.early_terminated ? "true" : "false", c.stats.seconds);
}

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  ObsSession obs(ObsOptionsFromFlags(flags));
  PrintHeader("Top-k query pruning",
              "Validations per k x epsilon cell. Reading: within an epsilon "
              "column, validations must fall monotonically as k shrinks — "
              "the heap floor rises faster, so the score bound terminates "
              "the lattice walk earlier.");

  const std::string dataset = flags.get_str("dataset", "weather");
  Relation r = LoadBenchmark(dataset, flags.get_int("rows", 3000));
  std::printf("dataset=%s rows=%d cols=%d\n\n", dataset.c_str(), r.num_rows(),
              r.num_cols());

  std::vector<std::uint32_t> ks;
  for (const std::string& s :
       flags.get_list("ks", {"1", "2", "4", "8", "16", "64"}))
    ks.push_back(static_cast<std::uint32_t>(std::atoi(s.c_str())));
  std::vector<double> epsilons;
  for (const std::string& s : flags.get_list("eps", {"0", "0.01", "0.05"}))
    epsilons.push_back(std::atof(s.c_str()));

  std::vector<int> degrees;
  const std::string nproc =
      std::to_string(std::max(1u, std::thread::hardware_concurrency()));
  for (const std::string& s : flags.get_list("threads", {"1", nproc})) {
    int t = std::max(1, std::atoi(s.c_str()));
    if (std::find(degrees.begin(), degrees.end(), t) == degrees.end()) {
      degrees.push_back(t);
    }
  }
  const int reps = std::max(1, flags.get_int("reps", 3));

  std::printf("%7s %8s %8s | %12s %12s %12s %6s %5s %8s\n", "threads", "k",
              "eps", "validations", "pruned_bound", "pruned_eps", "fds",
              "early", "time_s");
  PrintRule(88);
  std::vector<Cell> cells;
  for (int threads : degrees) {
    std::unique_ptr<ThreadPool> pool;
    if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
    for (double eps : epsilons) {
      for (std::uint32_t k : ks) {
        Cell c = RunCell(r, k, eps, threads, pool.get(), reps);
        std::printf("%7d %8u %8g | %12lld %12lld %12lld %6zu %5s %8.3f\n",
                    c.threads, c.k, c.epsilon,
                    static_cast<long long>(c.stats.validations),
                    static_cast<long long>(c.stats.pruned_bound),
                    static_cast<long long>(c.stats.pruned_epsilon),
                    c.fds.size(), c.stats.early_terminated ? "yes" : "no",
                    c.stats.seconds);
        std::fflush(stdout);
        cells.push_back(std::move(c));
      }
      PrintRule(88);
    }
  }

  // Machine-readable rows, then self-checks: every degree answers each
  // cell exactly as the first degree does, and within each epsilon,
  // validations are non-increasing as k decreases.
  std::printf("\n");
  for (const Cell& c : cells) PrintJsonRow(dataset, r, c);
  bool identical = true;
  const std::size_t grid = epsilons.size() * ks.size();
  for (std::size_t i = grid; i < cells.size(); ++i) {
    if (!SameAnswer(cells[i % grid], cells[i])) {
      identical = false;
      std::printf("DIVERGES: threads=%d eps=%g k=%u differs from threads=%d\n",
                  cells[i].threads, cells[i].epsilon, cells[i].k,
                  cells[i % grid].threads);
    }
  }
  bool monotone = true;
  for (double eps : epsilons) {
    std::int64_t prev = -1;
    // ks runs largest-work-first only if sorted; compare by k descending
    // (treating 0 = unbounded as the largest). Degrees agree (checked
    // above), so the first degree's cells stand for all.
    std::vector<Cell> col;
    for (std::size_t i = 0; i < grid; ++i)
      if (cells[i].epsilon == eps) col.push_back(cells[i]);
    std::sort(col.begin(), col.end(), [](const Cell& a, const Cell& b) {
      std::uint64_t ka = a.k == 0 ? ~0ull : a.k;
      std::uint64_t kb = b.k == 0 ? ~0ull : b.k;
      return ka > kb;
    });
    for (const Cell& c : col) {
      if (prev >= 0 && c.stats.validations > prev) {
        monotone = false;
        std::printf("NON-MONOTONE: eps=%g k=%u validations=%lld > %lld\n",
                    eps, c.k, static_cast<long long>(c.stats.validations),
                    static_cast<long long>(prev));
      }
      prev = c.stats.validations;
    }
  }
  std::printf("\nidentical(same answer and counters at every degree): %s\n",
              identical ? "yes" : "NO");
  std::printf("monotone(validations non-increasing as k tightens): %s\n",
              monotone ? "yes" : "NO");
  return identical && monotone ? 0 : 1;
}

}  // namespace
}  // namespace dhyfd::bench

int main(int argc, char** argv) { return dhyfd::bench::Main(argc, argv); }
