#include "algo/discovery.h"

#include <bit>
#include <stdexcept>

#include "algo/agree_sets.h"
#include "algo/dhyfd.h"
#include "algo/fdep.h"
#include "algo/hyfd.h"
#include "algo/tane.h"

namespace dhyfd {

std::unique_ptr<FdDiscovery> MakeDiscovery(const std::string& name,
                                           const DiscoveryConfig& config) {
  if (name == "tane") return std::make_unique<Tane>(config);
  if (name == "fdep") return std::make_unique<Fdep>(FdepVariant::kClassic, config);
  if (name == "fdep1") {
    return std::make_unique<Fdep>(FdepVariant::kNonRedundant, config);
  }
  if (name == "fdep2") return std::make_unique<Fdep>(FdepVariant::kSorted, config);
  if (name == "hyfd") return std::make_unique<Hyfd>(HyfdOptions{config});
  if (name == "dhyfd") return std::make_unique<Dhyfd>(DhyfdOptions{config});
  throw std::invalid_argument("unknown discovery algorithm: " + name);
}

std::unique_ptr<FdDiscovery> MakeDiscovery(const std::string& name,
                                           double time_limit_seconds,
                                           int parallelism,
                                           ThreadPool* worker_pool) {
  DiscoveryConfig config;
  config.time_limit_seconds = time_limit_seconds;
  config.threads = parallelism;
  config.pool = worker_pool;
  return MakeDiscovery(name, config);
}

const std::vector<std::string>& AllDiscoveryNames() {
  static const std::vector<std::string>* names = new std::vector<std::string>{
      "tane", "fdep", "fdep1", "fdep2", "hyfd", "dhyfd"};
  return *names;
}

FdSet BruteForceDiscover(const Relation& r) {
  const int m = r.num_cols();
  if (m > 20) throw std::invalid_argument("BruteForceDiscover: too many columns");
  std::vector<AttributeSet> agree_sets = ComputeAllAgreeSets(r);

  // As 32-bit masks for speed; valid X -> a iff every agree set containing
  // X also contains a.
  std::vector<uint32_t> ag_masks;
  ag_masks.reserve(agree_sets.size());
  for (const AttributeSet& s : agree_sets) {
    uint32_t mask = 0;
    s.for_each([&](AttrId a) { mask |= 1u << a; });
    ag_masks.push_back(mask);
  }

  FdSet out;
  for (AttrId a = 0; a < m; ++a) {
    uint32_t rhs_bit = 1u << a;
    std::vector<uint32_t> minimal;
    // Enumerate candidate LHSs by popcount so minimality is a subset check
    // against already-accepted smaller LHSs.
    std::vector<std::vector<uint32_t>> by_size(m + 1);
    uint32_t universe = (m == 32) ? ~0u : ((1u << m) - 1);
    for (uint32_t x = 0; x <= universe; ++x) {
      if ((x & rhs_bit) != 0) continue;
      by_size[std::popcount(x)].push_back(x);
    }
    for (int size = 0; size <= m; ++size) {
      for (uint32_t x : by_size[size]) {
        bool dominated = false;
        for (uint32_t kept : minimal) {
          if ((kept & ~x) == 0) {
            dominated = true;
            break;
          }
        }
        if (dominated) continue;
        bool valid = true;
        for (uint32_t z : ag_masks) {
          if ((x & ~z) == 0 && (z & rhs_bit) == 0) {
            valid = false;
            break;
          }
        }
        if (valid) minimal.push_back(x);
      }
    }
    for (uint32_t x : minimal) {
      AttributeSet lhs;
      for (int b = 0; b < m; ++b) {
        if ((x >> b) & 1u) lhs.set(b);
      }
      out.add(Fd(lhs, a));
    }
  }
  out.sort();
  return out;
}

}  // namespace dhyfd
