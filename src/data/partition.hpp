// Data partitioners (paper §IV-B d).
//
// * shard_partition — the CIFAR-10 scheme: sort by label, cut into
//   nodes*shards_per_node contiguous shards, deal shards_per_node random
//   shards to each node. With 2 shards/node each node sees at most 4 classes.
// * client_partition — the LEAF scheme: samples are grouped by the client
//   that produced them; clients are dealt evenly across nodes.
// * cyclic_partition — a deterministic strided split for the synthetic
//   scale workload, where shuffling partitioners would dominate setup.
#pragma once

#include <cstdint>
#include <vector>

#include "data/dataset.hpp"

namespace jwins::data {

using Partition = std::vector<std::vector<std::size_t>>;

/// Sort-by-label sharding. Requires dataset.label_of() >= 0 for all samples.
Partition shard_partition(const Dataset& dataset, std::size_t nodes,
                          std::size_t shards_per_node, std::uint64_t seed);

/// Groups samples by client and deals whole clients to nodes (each node gets
/// an equal number of clients; requires client_count() >= nodes).
Partition client_partition(const Dataset& dataset, std::size_t nodes,
                           std::uint64_t seed);

/// Deterministic striding split for huge node counts: node i gets the
/// `per_node` indices {(i * per_node + j) % samples}. No RNG, no dataset
/// walk — O(nodes * per_node) total, so a million-node partition builds in
/// milliseconds where the shuffling partitioners above would dominate the
/// run. Nodes wrap around the sample pool once nodes * per_node > samples
/// (shards overlap; fine for the synthetic scale workload).
Partition cyclic_partition(std::size_t samples, std::size_t nodes,
                           std::size_t per_node);

/// Number of distinct labels present in a node's shard (diagnostic used by
/// tests to verify non-IIDness).
std::size_t distinct_labels(const Dataset& dataset,
                            const std::vector<std::size_t>& indices);

}  // namespace jwins::data
