#include "data/partition.hpp"

#include <algorithm>
#include <numeric>
#include <random>
#include <set>
#include <stdexcept>

namespace jwins::data {

Partition shard_partition(const Dataset& dataset, std::size_t nodes,
                          std::size_t shards_per_node, std::uint64_t seed) {
  if (nodes == 0 || shards_per_node == 0) {
    throw std::invalid_argument("shard_partition: nodes and shards must be positive");
  }
  std::vector<std::size_t> all(dataset.size());
  std::iota(all.begin(), all.end(), 0u);
  for (std::size_t idx : all) {
    if (dataset.label_of(idx) < 0) {
      throw std::invalid_argument("shard_partition: dataset has no labels");
    }
  }
  std::sort(all.begin(), all.end(), [&](std::size_t a, std::size_t b) {
    const auto la = dataset.label_of(a), lb = dataset.label_of(b);
    return la != lb ? la < lb : a < b;
  });
  const std::size_t total_shards = nodes * shards_per_node;
  if (all.size() < total_shards) {
    throw std::invalid_argument("shard_partition: fewer samples than shards");
  }
  std::vector<std::size_t> shard_order(total_shards);
  std::iota(shard_order.begin(), shard_order.end(), 0u);
  std::mt19937_64 rng(seed);
  std::shuffle(shard_order.begin(), shard_order.end(), rng);

  Partition out(nodes);
  const std::size_t shard_size = all.size() / total_shards;
  for (std::size_t node = 0; node < nodes; ++node) {
    for (std::size_t s = 0; s < shards_per_node; ++s) {
      const std::size_t shard = shard_order[node * shards_per_node + s];
      const std::size_t begin = shard * shard_size;
      // The last shard absorbs the remainder.
      const std::size_t end =
          (shard + 1 == total_shards) ? all.size() : begin + shard_size;
      out[node].insert(out[node].end(), all.begin() + static_cast<std::ptrdiff_t>(begin),
                       all.begin() + static_cast<std::ptrdiff_t>(end));
    }
  }
  return out;
}

Partition client_partition(const Dataset& dataset, std::size_t nodes,
                           std::uint64_t seed) {
  const std::size_t clients = dataset.client_count();
  if (clients < nodes) {
    throw std::invalid_argument("client_partition: fewer clients than nodes");
  }
  std::vector<std::vector<std::size_t>> by_client(clients);
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    const std::int32_t c = dataset.client_of(i);
    if (c < 0) {
      throw std::invalid_argument("client_partition: dataset has no client ids");
    }
    by_client[static_cast<std::size_t>(c)].push_back(i);
  }
  std::vector<std::size_t> client_order(clients);
  std::iota(client_order.begin(), client_order.end(), 0u);
  std::mt19937_64 rng(seed);
  std::shuffle(client_order.begin(), client_order.end(), rng);

  Partition out(nodes);
  for (std::size_t i = 0; i < clients; ++i) {
    auto& dst = out[i % nodes];
    const auto& src = by_client[client_order[i]];
    dst.insert(dst.end(), src.begin(), src.end());
  }
  return out;
}

Partition cyclic_partition(std::size_t samples, std::size_t nodes,
                           std::size_t per_node) {
  if (samples == 0 || nodes == 0 || per_node == 0) {
    throw std::invalid_argument(
        "cyclic_partition: samples, nodes, and per_node must be positive");
  }
  Partition out(nodes);
  for (std::size_t i = 0; i < nodes; ++i) {
    out[i].reserve(per_node);
    for (std::size_t j = 0; j < per_node; ++j) {
      out[i].push_back((i * per_node + j) % samples);
    }
  }
  return out;
}

std::size_t distinct_labels(const Dataset& dataset,
                            const std::vector<std::size_t>& indices) {
  std::set<std::int32_t> labels;
  for (std::size_t idx : indices) labels.insert(dataset.label_of(idx));
  return labels.size();
}

}  // namespace jwins::data
