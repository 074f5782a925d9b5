#ifndef DHYFD_FD_HITTING_SET_H_
#define DHYFD_FD_HITTING_SET_H_

#include <vector>

#include "util/attribute_set.h"

namespace dhyfd {

/// Minimal hitting sets (hypergraph transversals) over attribute sets.
///
/// The Armstrong generator (fd/armstrong.h) uses the duality between the
/// minimal LHSs of an attribute and the maximal sets that avoid it.
///
/// Implementation: Berge's incremental algorithm with minimization at each
/// step. Exponential in the worst case (the output can be exponential);
/// callers bound the schema size.
std::vector<AttributeSet> MinimalHittingSets(const std::vector<AttributeSet>& family);

}  // namespace dhyfd

#endif  // DHYFD_FD_HITTING_SET_H_
