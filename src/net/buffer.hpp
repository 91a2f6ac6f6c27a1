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
// steady state, the per-message heap traffic is one small control-block
// allocation instead of O(degree) body copies.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

namespace jwins::net {

/// Immutable, cheaply copyable byte buffer. Converts implicitly to
/// std::span<const std::uint8_t>, so readers (ByteReader, decode_payload)
/// take it like any other byte range without copying.
class SharedBytes {
 public:
  SharedBytes() = default;
  SharedBytes(std::vector<std::uint8_t> bytes)  // NOLINT(google-explicit-*)
      : data_(bytes.empty()
                  ? nullptr
                  : std::make_shared<std::vector<std::uint8_t>>(std::move(bytes))) {}
  SharedBytes(std::initializer_list<std::uint8_t> bytes)
      : SharedBytes(std::vector<std::uint8_t>(bytes)) {}

  /// A zero-filled body of `n` bytes (test/bench convenience).
  static SharedBytes zeros(std::size_t n) {
    return SharedBytes(std::vector<std::uint8_t>(n, 0));
  }

  std::span<const std::uint8_t> span() const noexcept {
    return data_ ? std::span<const std::uint8_t>(*data_)
                 : std::span<const std::uint8_t>();
  }
  operator std::span<const std::uint8_t>() const noexcept { return span(); }

  std::size_t size() const noexcept { return data_ ? data_->size() : 0; }
  bool empty() const noexcept { return size() == 0; }
  const std::uint8_t* data() const noexcept {
    return data_ ? data_->data() : nullptr;
  }
  std::uint8_t operator[](std::size_t i) const { return (*data_)[i]; }

  /// True when both instances view the same underlying storage (the fan-out
  /// sharing guarantee the tests assert).
  bool shares_storage_with(const SharedBytes& other) const noexcept {
    return data_ != nullptr && data_ == other.data_;
  }

  /// True when this instance is the body's only holder (no mailbox, inbox
  /// or other copy still views it). Reliable when true even while other
  /// threads drop their copies, since no new copy can then appear.
  bool sole_owner() const noexcept {
    return data_ != nullptr && data_.use_count() == 1;
  }

 private:
  friend class BufferPool;
  explicit SharedBytes(std::shared_ptr<const std::vector<std::uint8_t>> data)
      : data_(std::move(data)) {}

  std::shared_ptr<const std::vector<std::uint8_t>> data_;
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
  struct State {
    std::mutex mutex;
    std::vector<std::vector<std::uint8_t>> free;
  };

  std::shared_ptr<State> state_;
};

}  // namespace jwins::net
