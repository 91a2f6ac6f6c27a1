// Decode-once cache for received message bodies.
//
// A node broadcasts one refcounted body to every neighbour (net::SharedBytes),
// so in one aggregation pass the same bytes reach up to `degree` receivers.
// Decoding is a pure function of those bytes, so a lane decodes each body
// once per pass and every later receiver on the lane reads the cached
// SparsePayload: bit-identical to decoding again, at a fraction of the cost
// (the Elias/XOR sections, and the index re-draw of a seed-mode message).
//
// Lifetime:
//  * An entry is keyed by the body's storage and holds a reference to it, so
//    the BufferPool cannot recycle that storage (and hand its address to
//    another body) while the key is live.
//  * release_unshared() drops the entries that the previous receiver read
//    and that no one else holds any more (no mailbox or inbox still has the
//    body), so no later receiver can ask for them. RoundScratch::reset()
//    calls it after clearing the inbox; on a ring this keeps O(1) entries.
//  * flush() drops everything. The engines call it at the end of every
//    aggregation pass, before the next share() draws send buffers from the
//    pool.
//  * Slots are pooled: a freed slot keeps the capacity of its vectors and is
//    handed out again best-fit by the header's entry count, so one dense
//    message does not, over time, grow every slot to the dense size.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "core/arena.hpp"
#include "core/sparse_payload.hpp"
#include "net/buffer.hpp"

namespace jwins::core {

class DecodeCache {
 public:
  /// The decoded payload of `body`: decode_payload_into(body, ...,
  /// expected_length) on the first call for this body since the last
  /// flush(), the cached slot afterwards. A cached payload whose
  /// vector_length is not `expected_length` is rejected by
  /// decode_payload_into exactly as a first decode would be. `arena` backs
  /// a seed-mode decode's membership flags. The reference stays valid until
  /// flush(), or until release_unshared() drops the entry after the body's
  /// last other holder let go.
  const SparsePayload& decode(const net::SharedBytes& body,
                              std::size_t expected_length, Arena& arena);

  /// Drops the entries read since the last call whose body the cache alone
  /// still holds.
  void release_unshared();

  /// Drops every entry and releases its body; slots keep their capacity.
  void flush();

  /// Live entries.
  std::size_t size() const noexcept { return live_; }
  /// decode_payload_into calls made so far, rejected ones included.
  std::uint64_t decodes() const noexcept { return decodes_; }

 private:
  struct Slot {
    net::SharedBytes body;  ///< empty while the slot is free
    SparsePayload payload;
  };

  /// Table position holding slot id + 1 for `key`, or the empty position
  /// where it would go.
  std::size_t probe(const std::uint8_t* key) const noexcept;
  std::size_t home(const std::uint8_t* key) const noexcept;
  void insert(std::uint32_t id);
  void erase(std::uint32_t id);
  /// A free slot id, best fit for `count` entries; the slot leaves free_.
  std::uint32_t take_slot(std::size_t count);
  void free_slot(std::uint32_t id);
  /// The best-fit key: how many values slot `id` holds without growing.
  std::size_t capacity(std::uint32_t id) const noexcept {
    return slots_[id].payload.values.capacity();
  }

  std::deque<Slot> slots_;            ///< stable addresses
  std::vector<std::uint32_t> free_;   ///< ascending by values.capacity()
  std::vector<std::uint32_t> table_;  ///< open addressing, slot id + 1
  std::vector<std::uint32_t> read_;   ///< slots read since release_unshared()
  std::size_t live_ = 0;
  std::uint64_t decodes_ = 0;
};

}  // namespace jwins::core
