#include "core/decode_cache.hpp"

#include <algorithm>
#include <iterator>

#include "net/serializer.hpp"

namespace jwins::core {

namespace {

/// The header's entry count ([index u8][value u8][vector_len u32][count
/// u32]), the slot size a decode will need; 0 for a body too short to say.
std::size_t header_count(std::span<const std::uint8_t> body) {
  constexpr std::size_t kCountOffset = 6;
  if (body.size() < kCountOffset + sizeof(std::uint32_t)) return 0;
  return net::ByteReader(body.subspan(kCountOffset)).read_u32();
}

}  // namespace

const SparsePayload& DecodeCache::decode(const net::SharedBytes& body,
                                         std::size_t expected_length,
                                         Arena& arena) {
  if (!table_.empty()) {
    if (const std::uint32_t hit = table_[probe(body.data())]; hit != 0) {
      Slot& slot = slots_[hit - 1];
      if (slot.payload.vector_length != expected_length) {
        // decode_payload_into rejects the header before it writes anything
        // but the (unchanged) vector_length, so the entry stays intact for
        // the receivers that expect this length.
        ++decodes_;
        decode_payload_into(body, slot.payload, arena, expected_length);
      }
      read_.push_back(hit - 1);
      return slot.payload;
    }
  }
  const std::uint32_t id = take_slot(header_count(body));
  Slot& slot = slots_[id];
  ++decodes_;
  try {
    decode_payload_into(body, slot.payload, arena, expected_length);
  } catch (...) {
    free_slot(id);
    throw;
  }
  slot.body = body;
  insert(id);
  read_.push_back(id);
  return slot.payload;
}

void DecodeCache::release_unshared() {
  for (const std::uint32_t id : read_) {
    // A slot read twice by one receiver may already be free.
    if (slots_[id].body.sole_owner()) {
      erase(id);
      free_slot(id);
    }
  }
  read_.clear();
}

void DecodeCache::flush() {
  read_.clear();
  if (live_ == 0) return;
  for (std::uint32_t& entry : table_) {
    if (entry == 0) continue;
    slots_[entry - 1].body = {};
    free_.push_back(entry - 1);
    entry = 0;
  }
  live_ = 0;
  std::sort(free_.begin(), free_.end(), [&](std::uint32_t a, std::uint32_t b) {
    return capacity(a) < capacity(b);
  });
}

std::size_t DecodeCache::home(const std::uint8_t* key) const noexcept {
  // Fibonacci hashing of the storage address. The table only finds entries;
  // no decoded value depends on an address.
  const auto bits =
      static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(key));
  return static_cast<std::size_t>((bits * 0x9E3779B97F4A7C15ULL) >> 32) &
         (table_.size() - 1);
}

std::size_t DecodeCache::probe(const std::uint8_t* key) const noexcept {
  const std::size_t mask = table_.size() - 1;
  std::size_t pos = home(key);
  while (table_[pos] != 0 && slots_[table_[pos] - 1].body.data() != key) {
    pos = (pos + 1) & mask;
  }
  return pos;
}

void DecodeCache::insert(std::uint32_t id) {
  // Keep the load factor at or below 1/2, so probes stay short and the
  // probe loop always meets an empty position.
  if (2 * (live_ + 1) > table_.size()) {
    std::vector<std::uint32_t> old(
        std::max<std::size_t>(16, 2 * table_.size()), 0);
    old.swap(table_);
    for (const std::uint32_t entry : old) {
      if (entry != 0) table_[probe(slots_[entry - 1].body.data())] = entry;
    }
  }
  table_[probe(slots_[id].body.data())] = id + 1;
  ++live_;
}

void DecodeCache::erase(std::uint32_t id) {
  // Linear-probing deletion by backward shift: move every later entry of the
  // run whose home does not lie cyclically in (hole, pos] into the hole.
  const std::size_t mask = table_.size() - 1;
  std::size_t hole = probe(slots_[id].body.data());
  table_[hole] = 0;
  for (std::size_t pos = (hole + 1) & mask; table_[pos] != 0;
       pos = (pos + 1) & mask) {
    const std::size_t h = home(slots_[table_[pos] - 1].body.data());
    const bool stays = hole <= pos ? (hole < h && h <= pos)
                                   : (hole < h || h <= pos);
    if (stays) continue;
    table_[hole] = table_[pos];
    table_[pos] = 0;
    hole = pos;
  }
  --live_;
}

std::uint32_t DecodeCache::take_slot(std::size_t count) {
  if (free_.empty()) {
    slots_.emplace_back();
    return static_cast<std::uint32_t>(slots_.size() - 1);
  }
  // Best fit: the smallest free slot that holds `count` values without
  // growing, else the largest one (which grows).
  auto it = std::lower_bound(
      free_.begin(), free_.end(), count,
      [&](std::uint32_t id, std::size_t c) { return capacity(id) < c; });
  if (it == free_.end()) it = std::prev(it);
  const std::uint32_t id = *it;
  free_.erase(it);
  return id;
}

void DecodeCache::free_slot(std::uint32_t id) {
  slots_[id].body = {};
  free_.insert(std::upper_bound(free_.begin(), free_.end(), capacity(id),
                                [&](std::size_t c, std::uint32_t other) {
                                  return c < capacity(other);
                                }),
               id);
}

}  // namespace jwins::core
