#include "sim/node_state.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace jwins::sim {

NodeStateStore::NodeStateStore(std::size_t nodes, std::span<const float> base)
    : params_(base.size()), base_(base.begin(), base.end()) {
  if (nodes == 0) throw std::invalid_argument("NodeStateStore: no nodes");
  if (params_ == 0) throw std::invalid_argument("NodeStateStore: no params");
  // No zero-fill pass: the kernel backs a slot's pages only when slot()
  // first writes them.
  slots_ = std::make_unique_for_overwrite<float[]>(nodes * params_);
  ready_.assign(nodes, 0);
}

std::size_t NodeStateStore::materialized_count() const noexcept {
  return static_cast<std::size_t>(std::count(ready_.begin(), ready_.end(), 1));
}

std::span<float> NodeStateStore::slot(std::size_t node) {
  if (!ready_[node]) {
    std::memcpy(slot_data(node), base_.data(), params_ * sizeof(float));
    ready_[node] = 1;
  }
  return {slot_data(node), params_};
}

std::size_t NodeStateStore::memory_bytes() const noexcept {
  return (base_.size() + size() * params_) * sizeof(float) + size();
}

}  // namespace jwins::sim
