#include "oracle.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

#include "harness.h"
#include "ranking/redundancy.h"
#include "util/random.h"

namespace perfbench {
namespace {

using dhyfd::AttrId;
using dhyfd::AttributeSet;
using dhyfd::Fd;
using dhyfd::Relation;
using dhyfd::RowId;
using dhyfd::ValueId;

std::vector<AttrId> Attrs(const AttributeSet& set) {
  std::vector<AttrId> out;
  set.for_each([&](AttrId a) { out.push_back(a); });
  return out;
}

/// Projection of one row onto `cols`, as raw bytes for hashing.
std::string Key(const Relation& r, RowId row, const std::vector<AttrId>& cols) {
  std::string key(cols.size() * sizeof(ValueId), '\0');
  for (std::size_t i = 0; i < cols.size(); ++i) {
    ValueId v = r.value(row, cols[i]);
    std::copy_n(reinterpret_cast<const char*>(&v), sizeof v,
                key.data() + i * sizeof v);
  }
  return key;
}

}  // namespace

bool FdHolds(const Relation& r, const Fd& fd) {
  std::vector<AttrId> lhs = Attrs(fd.lhs);
  std::vector<AttrId> rhs = Attrs(fd.rhs);
  std::unordered_map<std::string, RowId> first;
  first.reserve(static_cast<std::size_t>(r.num_rows()));
  for (RowId row = 0; row < r.num_rows(); ++row) {
    auto [it, fresh] = first.emplace(Key(r, row, lhs), row);
    if (fresh) continue;
    for (AttrId a : rhs) {
      if (r.value(row, a) != r.value(it->second, a)) return false;
    }
  }
  return true;
}

std::int64_t RedundantOccurrences(const Relation& r, const Fd& fd) {
  std::vector<AttrId> lhs = Attrs(fd.lhs);
  std::vector<AttrId> rhs = Attrs(fd.rhs);
  std::unordered_map<std::string, std::int64_t> group_size;
  group_size.reserve(static_cast<std::size_t>(r.num_rows()));
  std::vector<std::string> keys(static_cast<std::size_t>(r.num_rows()));
  for (RowId row = 0; row < r.num_rows(); ++row) {
    keys[row] = Key(r, row, lhs);
    ++group_size[keys[row]];
  }
  std::int64_t count = 0;
  for (RowId row = 0; row < r.num_rows(); ++row) {
    if (group_size[keys[row]] < 2) continue;
    for (AttrId a : rhs) {
      if (!r.is_null(row, a)) ++count;
    }
  }
  return count;
}

std::string CheckFd(const Relation& r, const Fd& fd, double redundancy,
                    bool brute_force) {
  const std::string name = fd.to_string();
  if (!FdHolds(r, fd)) return name + " does not hold";
  std::string minimal_error;
  fd.lhs.for_each([&](AttrId b) {
    if (!minimal_error.empty()) return;
    Fd smaller = fd;
    smaller.lhs.reset(b);
    if (FdHolds(r, smaller)) {
      minimal_error = name + " is not minimal: " + smaller.to_string() +
                      " holds";
    }
  });
  if (!minimal_error.empty()) return minimal_error;
  if (redundancy >= 0) {
    std::int64_t want = RedundantOccurrences(r, fd);
    if (static_cast<std::int64_t>(redundancy) != want) {
      return name + " reported redundancy " +
             std::to_string(static_cast<std::int64_t>(redundancy)) +
             ", recomputed " + std::to_string(want);
    }
    if (brute_force) {
      std::int64_t slow = dhyfd::BruteForceFdRedundancy(r, fd).excluding_null_rhs;
      if (slow != want) {
        return name + " redundancy " + std::to_string(want) +
               " disagrees with BruteForceFdRedundancy " + std::to_string(slow);
      }
    }
  }
  return "";
}

Fd ParseFd(const std::string& text) {
  auto parse_set = [&](std::size_t open, std::size_t* next) {
    std::size_t close = text.find('}', open);
    if (text[open] != '{' || close == std::string::npos) {
      throw std::invalid_argument("malformed FD: " + text);
    }
    AttributeSet set;
    std::size_t pos = open + 1;
    while (pos < close) {
      std::size_t comma = std::min(text.find(',', pos), close);
      set.set(std::stoi(text.substr(pos, comma - pos)));
      pos = comma + 1;
    }
    *next = close + 1;
    return set;
  };
  std::size_t next = 0;
  AttributeSet lhs = parse_set(0, &next);
  std::size_t arrow = text.find("-> ", next);
  if (arrow == std::string::npos) throw std::invalid_argument("malformed FD: " + text);
  AttributeSet rhs = parse_set(arrow + 3, &next);
  return Fd(lhs, rhs);
}

std::vector<Fd> SampleFds(const dhyfd::FdSet& cover, std::size_t n,
                          std::uint64_t seed) {
  std::vector<Fd> all = cover.fds;
  dhyfd::Random rng(seed);
  for (std::size_t i = 0; i < all.size() && i < n; ++i) {
    std::size_t j = i + rng.next_below(all.size() - i);
    std::swap(all[i], all[j]);
  }
  all.resize(std::min(n, all.size()));
  return all;
}

std::string CoverDigest(const dhyfd::FdSet& cover) {
  std::vector<std::string> lines;
  lines.reserve(cover.fds.size());
  for (const Fd& fd : cover.fds) lines.push_back(fd.to_string());
  std::sort(lines.begin(), lines.end());
  std::string text;
  for (const std::string& line : lines) text += line + "\n";
  return Fnv64Hex(text);
}

}  // namespace perfbench
