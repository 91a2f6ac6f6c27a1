#include "net/buffer.hpp"

namespace jwins::net {

SharedBytes::Block::~Block() {
  // The pool is tracked weakly: bodies that outlive it simply free their
  // storage instead of recycling into a dead free list.
  if (auto state = pool.lock()) {
    std::lock_guard<std::mutex> lock(state->mutex);
    state->free.push_back(std::move(bytes));
  }
}

std::vector<std::uint8_t> BufferPool::acquire() {
  std::lock_guard<std::mutex> lock(state_->mutex);
  if (state_->free.empty()) return {};
  std::vector<std::uint8_t> out = std::move(state_->free.back());
  state_->free.pop_back();
  out.clear();  // keeps capacity
  return out;
}

void BufferPool::release(std::vector<std::uint8_t>&& bytes) {
  if (bytes.capacity() == 0) return;
  std::lock_guard<std::mutex> lock(state_->mutex);
  state_->free.push_back(std::move(bytes));
}

SharedBytes BufferPool::adopt(std::vector<std::uint8_t>&& bytes) {
  if (bytes.empty()) {
    // Nothing to share; recycle the capacity right away.
    release(std::move(bytes));
    return SharedBytes();
  }
  return SharedBytes(std::make_shared<SharedBytes::Block>(std::move(bytes),
                                                          state_));
}

std::size_t BufferPool::idle_count() const {
  std::lock_guard<std::mutex> lock(state_->mutex);
  return state_->free.size();
}

}  // namespace jwins::net
