// Wire format for sparse (and dense) model-vector exchange — the single
// serialization point between the algorithms (algo/) and the simulated
// network (net/).
//
// In the JWINS pipeline this is the step between selection and transport:
// the ranker (core/ranker.hpp) and randomized cut-off (core/cutoff.hpp)
// choose which wavelet coefficients to share, encode_payload_into() turns
// that (indices, values) pair into bytes — Elias-gamma gap-coded indices
// (compress/elias.hpp) plus XOR-codec values (compress/float_codec.hpp) —
// and the receiver's decode_payload_into() feeds partial averaging
// (core/averaging.hpp). All algorithms in the reproduction (JWINS, CHOCO,
// random sampling, full-sharing and the ablations) serialize their model
// payloads through this one codec so byte accounting is uniform, exactly as
// the paper applies Fpzip+Elias uniformly across algorithms. The encoding
// switches double as the Figure-9 ablation (raw vs Elias-gamma index
// metadata).
//
// Layout: [index_mode u8][value_mode u8][vector_len u32][count u32]
//         [index section][value section]
// Everything before the value section counts as metadata_bytes.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "compress/bitstream.hpp"
#include "core/arena.hpp"
#include "net/network.hpp"

namespace jwins::net {
class ByteWriter;
}

namespace jwins::core {

enum class IndexEncoding : std::uint8_t {
  kDense = 0,       ///< count == vector_len; indices implicit
  kEliasGamma = 1,  ///< gap array, Elias-gamma coded (JWINS default)
  kRaw = 2,         ///< 4 bytes per index (Figure-9 "no compression" arm)
  kSeed = 3,        ///< 8-byte PRNG seed (random-sampling baseline)
};

enum class ValueEncoding : std::uint8_t {
  kXorCodec = 0,  ///< lossless XOR-predictive codec (Fpzip stand-in)
  kRaw = 1,       ///< 4 bytes per value
};

struct SparsePayload {
  std::uint32_t vector_length = 0;
  std::vector<std::uint32_t> indices;  ///< ascending; empty when dense
  std::vector<float> values;           ///< aligned with indices (or dense)

  bool dense() const noexcept { return indices.empty(); }
};

/// Non-owning view of a payload — what the zero-copy encoder consumes. A
/// sender points this at whatever already holds the data (node members,
/// arena spans) instead of copying indices/values into a SparsePayload
/// first. Converts implicitly from SparsePayload.
struct PayloadView {
  std::uint32_t vector_length = 0;
  std::span<const std::uint32_t> indices;
  std::span<const float> values;

  PayloadView() = default;
  PayloadView(std::uint32_t length, std::span<const std::uint32_t> idx,
              std::span<const float> vals)
      : vector_length(length), indices(idx), values(vals) {}
  PayloadView(const SparsePayload& p)  // NOLINT(google-explicit-*)
      : vector_length(p.vector_length), indices(p.indices), values(p.values) {}

  bool dense() const noexcept { return indices.empty(); }
};

struct PayloadOptions {
  IndexEncoding index_encoding = IndexEncoding::kEliasGamma;
  ValueEncoding value_encoding = ValueEncoding::kXorCodec;
  std::uint64_t seed = 0;  ///< required for IndexEncoding::kSeed
};

/// Serializes `payload` by appending to `writer` (point the writer at a
/// pooled send buffer for an allocation-free hot path). For kDense,
/// `payload.indices` must be empty and values.size() == vector_length; the
/// other modes require indices.size() == values.size() (kSeed accepts empty
/// indices, as the receiver regenerates the index set from (seed, count,
/// vector_length)). `bit_scratch` is cleared and reused for the Elias/XOR
/// sections. Returns the metadata byte count (bytes written before the
/// value section).
std::size_t encode_payload_into(const PayloadView& payload,
                                const PayloadOptions& options,
                                net::ByteWriter& writer,
                                compress::BitWriter& bit_scratch);

/// Parses a payload produced by encode_payload_into. Compressed sections
/// are read as views into `body` (no blob copies) and results land in
/// `out`'s reused buffers; `arena` backs the kSeed membership flags. For
/// kSeed the index set is regenerated, so the result always carries
/// explicit indices unless dense. An unknown index or value encoding byte,
/// and a sparse count of zero or above the header's vector_length, are
/// rejected before either section is decoded, and so is an index set that
/// is not strictly ascending or reaches vector_length.
void decode_payload_into(std::span<const std::uint8_t> body,
                         SparsePayload& out, Arena& arena);

/// Encodes `payload` into a network message whose body is a buffer from
/// `pool`, so its storage is recycled round over round and fan-out to d
/// neighbors shares one refcounted buffer instead of d copies.
net::Message make_message(std::uint32_t sender, std::uint32_t round,
                          const PayloadView& payload,
                          const PayloadOptions& options, net::BufferPool& pool,
                          compress::BitWriter& bit_scratch);

}  // namespace jwins::core
