#include "algo/ddm.h"

#include "obs/obs.h"
#include "obs/obs_schema.gen.h"

namespace dhyfd {

Ddm::Ddm(const Relation& r) : rel_(r) {
  const int m = r.num_cols();
  static_partitions_.reserve(m);
  attribute_supports_.reserve(m);
  for (AttrId a = 0; a < m; ++a) {
    static_partitions_.push_back(BuildAttributePartition(r, a));
    attribute_supports_.push_back(static_partitions_.back().support());
  }
}

const StrippedPartition& Ddm::partition_for_id(int id) const {
  if (id < rel_.num_cols()) return static_partitions_[id];
  return dynamic_[id - rel_.num_cols()].partition;
}

AttributeSet Ddm::attrs_for_id(int id) const {
  if (id < rel_.num_cols()) return AttributeSet::single(id);
  return dynamic_[id - rel_.num_cols()].attrs;
}

int64_t Ddm::update(const std::vector<ExtendedFdTree::Node*>& level_nodes,
                    ExtendedFdTree& tree, RefinerRunner& runner) {
  const int m = rel_.num_cols();
  std::vector<Entry> fresh(level_nodes.size());

  // Capture the nodes' current partition references before wiping ids:
  // Algorithm 3 starts each refinement from the node's previous partition.
  std::vector<int> old_ids;
  old_ids.reserve(level_nodes.size());
  for (const ExtendedFdTree::Node* node : level_nodes) old_ids.push_back(node->id);

  // Reset every id to its default so no node anywhere in the tree keeps a
  // reference into the dynamic array we are about to replace.
  tree.reset_ids();

  // Per-node rebuild. Entry ids are pre-assigned by node index (new_id =
  // m + idx), so the rebuilt array does not depend on completion order; the
  // level's nodes root disjoint subtrees, so the id propagation below writes
  // disjoint node sets.
  auto rebuild_node = [&](size_t idx, PartitionRefiner& refiner,
                          int64_t& chunk_refinements) {
    ExtendedFdTree::Node* node = level_nodes[idx];
    AttributeSet path = tree.path_of(node);
    // Algorithm 3 steps 7-9: start from the node's current partition — the
    // dynamic entry its id pointed to, or its own attribute's partition.
    const StrippedPartition* start;
    AttributeSet start_attrs;
    if (old_ids[idx] >= m) {
      const Entry& e = dynamic_[old_ids[idx] - m];
      start = &e.partition;
      start_attrs = e.attrs;
    } else {
      start = &static_partitions_[node->attr];
      start_attrs = AttributeSet::single(node->attr);
    }
    Entry& entry = fresh[idx];
    entry.attrs = path;
    entry.partition = *start;
    AttributeSet todo = path - start_attrs;
    todo.for_each([&](AttrId b) {
      chunk_refinements += entry.partition.size();
      refiner.refine_inplace(entry.partition, b);
    });
    int new_id = m + static_cast<int>(idx);
    // Step 13-15: re-point the node and propagate to descendants, keeping
    // every id consistent (descendant paths are supersets of `path`).
    std::vector<ExtendedFdTree::Node*> stack = {node};
    while (!stack.empty()) {
      ExtendedFdTree::Node* cur = stack.back();
      stack.pop_back();
      cur->id = new_id;
      for (const auto& c : cur->children) stack.push_back(c.get());
    }
  };

  int64_t refinements = 0;
  for (int64_t chunk : runner.run<int64_t>(
           level_nodes.size(), kObsDiscoverShard,
           [&](PartitionRefiner& refiner, int64_t& chunk_refinements,
               size_t begin, size_t end) {
             for (size_t idx = begin; idx < end; ++idx) {
               rebuild_node(idx, refiner, chunk_refinements);
             }
           })) {
    refinements += chunk;
  }

  dynamic_ = std::move(fresh);
  ObsAdd(kObsPartitionDdmDynamicBuilds, static_cast<int64_t>(dynamic_.size()));
  ObsAdd(kObsPartitionDdmRefinements, refinements);
  return refinements;
}

size_t Ddm::memory_bytes() const {
  size_t bytes = 0;
  for (const StrippedPartition& p : static_partitions_) bytes += p.memory_bytes();
  for (const Entry& e : dynamic_) bytes += e.partition.memory_bytes();
  return bytes;
}

}  // namespace dhyfd
