// Per-worker round scratch: every reusable buffer a node needs to run one
// share() or aggregate() call without touching the heap.
//
// Ownership model (docs/PERFORMANCE.md has the full map):
//  * sim::Experiment owns one RoundScratch per execution lane, sized once
//    from the model and reused for every (node, round) the lane processes.
//  * A node resets the scratch at the top of each share()/aggregate() call;
//    everything handed out by the arena or the pools is dead after the call
//    returns. Cross-call state (accumulation vectors, error feedback, the
//    indices a node must remember until aggregate()) stays in node members.
//  * Scratches are never shared between concurrently running calls — lanes
//    are the unit of exclusivity (net::ThreadPool's static chunking).
//
// Determinism: scratch reuse cannot change results — every buffer is fully
// written before it is read, and no value depends on an address — so
// threads=N stays bit-identical to threads=1 (test_determinism.cpp) and
// arena-backed runs stay byte-identical to the allocating legacy APIs
// (tests/test_arena.cpp).
#pragma once

#include <cstddef>
#include <vector>

#include "compress/bitstream.hpp"
#include "compress/quantize.hpp"
#include "core/arena.hpp"
#include "core/averaging.hpp"
#include "core/sparse_payload.hpp"
#include "dwt/dwt.hpp"
#include "net/network.hpp"

namespace jwins::core {

/// Reuse pool for decoded payloads. next() recycles SparsePayload slots —
/// and, crucially, the heap capacity of their index/value vectors — across
/// rounds; reset() only rewinds the cursor. References stay valid until the
/// pool grows (decode everything first, then take stable references).
class PayloadPool {
 public:
  /// A cleared payload slot (buffers empty, capacity kept).
  SparsePayload& next() {
    if (used_ == slots_.size()) slots_.emplace_back();
    SparsePayload& p = slots_[used_++];
    p.vector_length = 0;
    p.indices.clear();
    p.values.clear();
    return p;
  }

  SparsePayload& operator[](std::size_t i) { return slots_[i]; }
  const SparsePayload& operator[](std::size_t i) const { return slots_[i]; }
  std::size_t used() const noexcept { return used_; }
  void reset() noexcept { used_ = 0; }

 private:
  std::vector<SparsePayload> slots_;
  std::size_t used_ = 0;
};

struct RoundScratch {
  Arena arena;               ///< POD temporaries; valid until the next reset()
  dwt::DwtWorkspace dwt;     ///< wavelet transform ping-pong buffers
  compress::BitWriter bits;  ///< Elias/XOR bitstream staging
  PayloadPool payloads;      ///< decoded neighbor payloads
  std::vector<net::Message> inbox;  ///< drain_into target (capacity circulates
                                    ///< with the mailbox)
  std::vector<WeightedContribution> contributions;  ///< partial_average input
  compress::QuantizedVector quantized;  ///< QSGD encode staging (CHOCO)
  std::vector<float> floats;            ///< generic reused float buffer

  /// Called by a node at the top of each share()/aggregate(): invalidates
  /// all arena spans and pool slots from the previous call, keeps capacity.
  /// Clearing the inbox here also releases the previous round's message
  /// bodies back to the network's BufferPool before new sends acquire.
  void reset() {
    arena.reset();
    payloads.reset();
    inbox.clear();
    contributions.clear();
  }

  /// Pre-sizes the arena from the model so round one already runs without
  /// heap growth. The factor covers the worst per-call demand: two double
  /// accumulators, two float deltas, a coefficient vector, gathered values,
  /// an index list, and slack for coefficient-length padding.
  void reserve_for_model(std::size_t param_count) {
    arena.reserve(48 * param_count + 4096);
  }
};

}  // namespace jwins::core
