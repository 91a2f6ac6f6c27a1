// Copy-on-write flat-parameter store for the compact node-state engine.
//
// The full engine keeps one DlNode per simulated node: model object, layer
// tensors, optimizer, sampler — kilobytes of bookkeeping around a parameter
// vector that may be a few dozen floats. At 100k–1M nodes that overhead (not
// the parameters) is what exhausts memory. NodeStateStore inverts the
// layout: ONE shared read-only base vector (the common initial model — every
// node starts from the same x^(0,0), paper Algorithm 1) plus one rank-indexed
// array of nodes × params floats, where node i's slot is filled from the
// base the first time its parameters diverge. The array is allocated without
// zero-filling, so the pages of a slot that never materializes are never
// touched. Per-node cost is params * sizeof(float) + a one-byte ready flag —
// nothing else.
//
// Concurrency contract (matches the engine's static-chunked phases): a node
// index is touched by exactly one execution lane inside a phase, and phases
// are separated by thread-pool joins. Distinct nodes own distinct slots and
// distinct flag bytes, so no lock is needed.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace jwins::sim {

class NodeStateStore {
 public:
  /// `base` is copied once; every node reads it until its first slot().
  NodeStateStore(std::size_t nodes, std::span<const float> base);

  std::size_t size() const noexcept { return ready_.size(); }
  std::size_t params() const noexcept { return params_; }

  /// True once `node` owns a private slot (its state diverged from base).
  bool materialized(std::size_t node) const noexcept {
    return ready_[node] != 0;
  }
  /// Number of materialized slots (a scan over the ready flags).
  std::size_t materialized_count() const noexcept;

  /// Current parameters of `node`: its slot, or the shared base.
  std::span<const float> view(std::size_t node) const noexcept {
    return materialized(node) ? std::span<const float>(slot_data(node), params_)
                              : std::span<const float>(base_);
  }

  /// Writable slot for `node`, materialized (base-initialized) on first use.
  /// Thread-safe for distinct nodes.
  std::span<float> slot(std::size_t node);

  /// Bytes held by the store: base + the slot array + the ready flags. The
  /// memory-regression guard divides this by size() to pin per-node cost.
  std::size_t memory_bytes() const noexcept;

 private:
  float* slot_data(std::size_t node) const noexcept {
    return slots_.get() + node * params_;
  }

  std::size_t params_;
  std::vector<float> base_;
  std::unique_ptr<float[]> slots_;    ///< nodes × params, filled on demand
  std::vector<std::uint8_t> ready_;   ///< 1 once the node's slot is filled
};

}  // namespace jwins::sim
