// Correctness oracles the benchmark applies to the program's outputs,
// outside every timed region. They recompute facts from the relation
// directly (hashing projections), so they share no code with the
// discovery, cover or ranking layers they check.

#ifndef PERFBENCH_RUNNER_ORACLE_H_
#define PERFBENCH_RUNNER_ORACLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "fd/fd.h"
#include "fd/fd_set.h"
#include "relation/relation.h"

namespace perfbench {

/// True iff every pair of tuples agreeing on `fd.lhs` agrees on `fd.rhs`.
bool FdHolds(const dhyfd::Relation& r, const dhyfd::Fd& fd);

/// Redundant RHS occurrences of `fd` (paper Section VI, nulls on the RHS
/// excluded): tuples whose LHS projection another tuple shares, counted once
/// per non-null RHS cell.
std::int64_t RedundantOccurrences(const dhyfd::Relation& r,
                                  const dhyfd::Fd& fd);

/// Checks one reported FD: it holds, its LHS is minimal (dropping any LHS
/// attribute breaks it), and, when `redundancy` >= 0, the reported
/// redundancy equals the recomputed one. With `brute_force` the count is
/// also cross-checked against the library's O(rows^2) reference. Returns ""
/// on success, else a description of the first failure.
std::string CheckFd(const dhyfd::Relation& r, const dhyfd::Fd& fd,
                    double redundancy = -1, bool brute_force = false);

/// Parses the wire rendering "{1,5} -> {3}" (Fd::to_string()).
dhyfd::Fd ParseFd(const std::string& text);

/// Seeded sample of up to `n` FDs of a cover.
std::vector<dhyfd::Fd> SampleFds(const dhyfd::FdSet& cover, std::size_t n,
                                 std::uint64_t seed);

/// Order-independent digest of a cover: FNV-1a over its sorted renderings.
std::string CoverDigest(const dhyfd::FdSet& cover);

}  // namespace perfbench

#endif  // PERFBENCH_RUNNER_ORACLE_H_
