// Immutable shared message bodies and the send-buffer pool.
//
// A node shares one payload with every neighbor, and the old Message carried
// its bytes by value — a gossip fan-out of degree d heap-copied the body d
// times per round. SharedBytes makes the body an immutable refcounted
// buffer: copying a Message bumps a reference count, and all mailboxes view
// the same bytes (safe because receivers only ever read).
//
// BufferPool closes the loop on the send side: share() encodes into a
// vector acquired from the pool, adopt() wraps it into a SharedBytes whose
// release hands the storage back, and next round's acquire() reuses it —
// steady state, the per-message heap traffic is one small block (refcount,
// byte vector and decode slot together) instead of O(degree) body copies.
//
// The block also carries the body's decoded payload (SharedBytes::decoded):
// decoding is a pure function of the bytes, so the first reader decodes and
// every other holder reads the same payload, which dies with the block.
#pragma once

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <vector>

namespace jwins::net {

/// The decoded form of a sparse model-vector body (core/sparse_payload.hpp
/// has the wire format and the decoder; the type is core::SparsePayload
/// there). It is defined here so a body can hold its own decode.
struct SparsePayload {
  std::uint32_t vector_length = 0;
  std::vector<std::uint32_t> indices;  ///< ascending; empty when dense
  std::vector<float> values;           ///< aligned with indices (or dense)

  bool dense() const noexcept { return indices.empty(); }
};

/// Immutable, cheaply copyable byte buffer. Converts implicitly to
/// std::span<const std::uint8_t>, so readers (ByteReader, decode_payload)
/// take it like any other byte range without copying.
class SharedBytes {
 public:
  SharedBytes() = default;
  SharedBytes(std::vector<std::uint8_t> bytes);  // NOLINT(google-explicit-*)
  SharedBytes(std::initializer_list<std::uint8_t> bytes)
      : SharedBytes(std::vector<std::uint8_t>(bytes)) {}

  /// A zero-filled body of `n` bytes (test/bench convenience).
  static SharedBytes zeros(std::size_t n) {
    return SharedBytes(std::vector<std::uint8_t>(n, 0));
  }

  std::span<const std::uint8_t> span() const noexcept;
  operator std::span<const std::uint8_t>() const noexcept { return span(); }

  std::size_t size() const noexcept { return span().size(); }
  bool empty() const noexcept { return size() == 0; }
  const std::uint8_t* data() const noexcept { return span().data(); }
  std::uint8_t operator[](std::size_t i) const { return span()[i]; }

  /// True when both instances view the same underlying storage (the fan-out
  /// sharing guarantee the tests assert).
  bool shares_storage_with(const SharedBytes& other) const noexcept {
    return block_ != nullptr && block_ == other.block_;
  }

  /// The payload decoded from this body, decoded once for all its holders:
  /// the first caller runs `decode(span(), payload)`, and a caller that
  /// finds another one decoding waits for it, then reads the same payload.
  /// A decode that throws leaves the slot empty, so the next caller decodes
  /// again. The payload lives until the body's last holder drops it. An
  /// empty body has no slot: `decode` gets it and must reject it.
  template <class Decode>
  const SparsePayload& decoded(Decode&& decode) const;

 private:
  friend class BufferPool;
  struct Block;
  explicit SharedBytes(std::shared_ptr<Block> block)
      : block_(std::move(block)) {}

  std::shared_ptr<Block> block_;
};

/// Thread-safe free list of byte vectors. acquire() pops a warmed buffer (or
/// returns a fresh empty one), adopt() turns a filled buffer into a
/// SharedBytes that returns its storage here when the last reference drops.
/// The pool state is refcounted, so in-flight SharedBytes stay valid even if
/// the pool itself is destroyed first.
class BufferPool {
 public:
  BufferPool() : state_(std::make_shared<State>()) {}

  /// An empty vector, with capacity from a previously released body when one
  /// is available.
  std::vector<std::uint8_t> acquire();

  /// Returns storage to the free list directly (for buffers that never
  /// became messages).
  void release(std::vector<std::uint8_t>&& bytes);

  /// Wraps `bytes` into a SharedBytes whose destruction recycles the
  /// storage into this pool.
  SharedBytes adopt(std::vector<std::uint8_t>&& bytes);

  /// Buffers currently parked in the free list.
  std::size_t idle_count() const;

 private:
  friend struct SharedBytes::Block;
  struct State {
    std::mutex mutex;
    std::vector<std::vector<std::uint8_t>> free;
  };

  std::shared_ptr<State> state_;
};

/// A body's single heap block, refcount included (std::make_shared): the
/// bytes, the pool they go back to, and the decode slot. The slot's vectors
/// stay empty until a decode and are freed with the block; only the bytes
/// are recycled.
struct SharedBytes::Block {
  enum Slot : std::uint8_t { kEmpty, kDecoding, kReady };

  Block(std::vector<std::uint8_t>&& b,
        std::weak_ptr<BufferPool::State> p = {})
      : bytes(std::move(b)), pool(std::move(p)) {}
  /// Hands the bytes back to the pool, unless it is gone.
  ~Block();

  std::vector<std::uint8_t> bytes;  ///< never written while the block is shared
  std::weak_ptr<BufferPool::State> pool;
  std::atomic<std::uint8_t> state{kEmpty};  ///< guards payload
  SparsePayload payload;
};

inline SharedBytes::SharedBytes(std::vector<std::uint8_t> bytes)
    : block_(bytes.empty() ? nullptr
                           : std::make_shared<Block>(std::move(bytes))) {}

inline std::span<const std::uint8_t> SharedBytes::span() const noexcept {
  return block_ ? std::span<const std::uint8_t>(block_->bytes)
                : std::span<const std::uint8_t>();
}

template <class Decode>
const SparsePayload& SharedBytes::decoded(Decode&& decode) const {
  if (!block_) {
    SparsePayload none;
    decode(span(), none);
    throw std::invalid_argument("SharedBytes::decoded: empty body");
  }
  Block& b = *block_;
  std::uint8_t state = b.state.load(std::memory_order_acquire);
  while (state != Block::kReady) {
    if (state == Block::kDecoding) {
      b.state.wait(Block::kDecoding, std::memory_order_acquire);
      state = b.state.load(std::memory_order_acquire);
    } else if (b.state.compare_exchange_strong(state, Block::kDecoding,
                                               std::memory_order_acquire)) {
      try {
        decode(span(), b.payload);
      } catch (...) {
        b.state.store(Block::kEmpty, std::memory_order_release);
        b.state.notify_all();
        throw;
      }
      b.state.store(Block::kReady, std::memory_order_release);
      b.state.notify_all();
      return b.payload;
    }  // else the exchange failed and `state` holds the new value
  }
  return b.payload;
}

}  // namespace jwins::net
