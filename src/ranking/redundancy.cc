#include "ranking/redundancy.h"

#include <atomic>
#include <bit>
#include <cstddef>

#include "obs/obs_schema.gen.h"
#include "partition/stripped_partition.h"
#include "util/chunk_runner.h"

namespace dhyfd {

namespace {

bool AnyLhsNull(const Relation& r, RowId row, const AttributeSet& lhs) {
  bool any = false;
  lhs.for_each([&](AttrId a) {
    if (!any && r.is_null(row, a)) any = true;
  });
  return any;
}

}  // namespace

FdRedundancy FdRedundancyFromPartition(const Relation& r, const Fd& fd,
                                       const StrippedPartition& pi_lhs) {
  FdRedundancy red;
  red.fd = fd;
  // The redundant rows are exactly the arena rows — the class bounds are
  // irrelevant here, so scan the CSR arena flat.
  for (RowId row : pi_lhs.row_arena()) {
    bool lhs_null = AnyLhsNull(r, row, fd.lhs);
    fd.rhs.for_each([&](AttrId a) {
      ++red.with_nulls;
      if (!r.is_null(row, a)) {
        ++red.excluding_null_rhs;
        if (!lhs_null) ++red.excluding_null_lhs_rhs;
      }
    });
  }
  return red;
}

std::vector<FdRedundancy> ComputeFdRedundancies(const Relation& r, const FdSet& cover,
                                                DatasetRedundancy* dataset, int threads,
                                                ThreadPool* pool) {
  const std::size_t n = cover.fds.size();
  const std::size_t m = static_cast<std::size_t>(r.num_cols());
  ChunkRunner<> runner(pool, threads);
  const bool parallel = runner.threads() > 1;
  std::vector<FdRedundancy> out(n);
  // One bit per cell, row-major. Bits are only ever set, so chunks OR into
  // the shared words with relaxed atomics and the join orders every write
  // before the count below.
  std::vector<std::uint64_t> marked(
      dataset != nullptr ? (static_cast<std::size_t>(r.num_rows()) * m + 63) / 64 : 0, 0);
  auto score = [&](std::size_t i) {
    const Fd& fd = cover.fds[i];
    StrippedPartition pi = BuildPartition(r, fd.lhs);
    out[i] = FdRedundancyFromPartition(r, fd, pi);
    if (dataset == nullptr) return;
    for (RowId row : pi.row_arena()) {
      const std::size_t base = static_cast<std::size_t>(row) * m;
      fd.rhs.for_each([&](AttrId a) {
        const std::size_t cell = base + static_cast<std::size_t>(a);
        const std::uint64_t bit = std::uint64_t{1} << (cell % 64);
        if (parallel) {
          std::atomic_ref<std::uint64_t>(marked[cell / 64])
              .fetch_or(bit, std::memory_order_relaxed);
        } else {
          marked[cell / 64] |= bit;
        }
      });
    }
  };

  // FD i writes only slot i, so `out` is in cover order at any degree. The
  // chunks record the rank stage's span, so traced runs book them there.
  runner.run<NoResult>(n, kObsProfileRank,
                       [&](NoScratch&, NoResult&, std::size_t begin, std::size_t end) {
                         for (std::size_t i = begin; i < end; ++i) score(i);
                       });

  if (dataset != nullptr) {
    *dataset = DatasetRedundancy{};
    dataset->num_values = r.num_values();
    for (std::size_t w = 0; w < marked.size(); ++w) {
      for (std::uint64_t bits = marked[w]; bits != 0; bits &= bits - 1) {
        const std::size_t cell = w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
        ++dataset->red_plus0;
        if (!r.is_null(static_cast<RowId>(cell / m), static_cast<AttrId>(cell % m))) {
          ++dataset->red;
        }
      }
    }
  }
  return out;
}

DatasetRedundancy ComputeDatasetRedundancy(const Relation& r, const FdSet& cover) {
  DatasetRedundancy result;
  ComputeFdRedundancies(r, cover, &result);
  return result;
}

FdRedundancy BruteForceFdRedundancy(const Relation& r, const Fd& fd) {
  FdRedundancy red;
  red.fd = fd;
  for (RowId t = 0; t < r.num_rows(); ++t) {
    bool has_witness = false;
    for (RowId s = 0; s < r.num_rows() && !has_witness; ++s) {
      if (s != t && r.agree_on(s, t, fd.lhs)) has_witness = true;
    }
    if (!has_witness) continue;
    bool lhs_null = AnyLhsNull(r, t, fd.lhs);
    fd.rhs.for_each([&](AttrId a) {
      ++red.with_nulls;
      if (!r.is_null(t, a)) {
        ++red.excluding_null_rhs;
        if (!lhs_null) ++red.excluding_null_lhs_rhs;
      }
    });
  }
  return red;
}

}  // namespace dhyfd
