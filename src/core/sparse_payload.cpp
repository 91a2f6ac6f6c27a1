#include "core/sparse_payload.hpp"

#include <stdexcept>

#include "compress/elias.hpp"
#include "compress/float_codec.hpp"
#include "compress/topk.hpp"
#include "net/serializer.hpp"

namespace jwins::core {

std::size_t encode_payload_into(const PayloadView& payload,
                                const PayloadOptions& options,
                                net::ByteWriter& writer,
                                compress::BitWriter& bit_scratch) {
  const std::size_t start = writer.size();
  writer.write_u8(static_cast<std::uint8_t>(options.index_encoding));
  writer.write_u8(static_cast<std::uint8_t>(options.value_encoding));
  writer.write_u32(payload.vector_length);
  writer.write_u32(static_cast<std::uint32_t>(payload.values.size()));

  switch (options.index_encoding) {
    case IndexEncoding::kDense:
      if (!payload.indices.empty() ||
          payload.values.size() != payload.vector_length) {
        throw std::invalid_argument("encode_payload: malformed dense payload");
      }
      break;
    case IndexEncoding::kEliasGamma: {
      if (payload.indices.size() != payload.values.size()) {
        throw std::invalid_argument("encode_payload: index/value mismatch");
      }
      bit_scratch.clear();
      compress::encode_index_gaps(payload.indices, bit_scratch);
      writer.write_bytes(bit_scratch.bytes());
      break;
    }
    case IndexEncoding::kRaw:
      if (payload.indices.size() != payload.values.size()) {
        throw std::invalid_argument("encode_payload: index/value mismatch");
      }
      writer.write_u32_array(payload.indices);
      break;
    case IndexEncoding::kSeed:
      // The receiver re-derives the indices from the seed; when the caller
      // passes the drawn set along, it must align with the values.
      if (!payload.indices.empty() &&
          payload.indices.size() != payload.values.size()) {
        throw std::invalid_argument("encode_payload: index/value mismatch");
      }
      writer.write_u64(options.seed);
      break;
  }
  const std::size_t metadata_bytes = writer.size() - start;

  switch (options.value_encoding) {
    case ValueEncoding::kXorCodec:
      bit_scratch.clear();
      compress::compress_floats(payload.values, bit_scratch);
      writer.write_bytes(bit_scratch.bytes());
      break;
    case ValueEncoding::kRaw:
      writer.write_f32_array(payload.values);
      break;
  }
  return metadata_bytes;
}

void decode_payload_into(std::span<const std::uint8_t> body,
                         SparsePayload& out, Arena& arena) {
  net::ByteReader reader(body);
  const std::uint8_t index_byte = reader.read_u8();
  const std::uint8_t value_byte = reader.read_u8();
  // An unknown mode byte would fall through both switches and leave empty
  // indices, which read as "dense" downstream.
  if (index_byte > static_cast<std::uint8_t>(IndexEncoding::kSeed)) {
    throw std::runtime_error("decode_payload: unknown index encoding");
  }
  if (value_byte > static_cast<std::uint8_t>(ValueEncoding::kRaw)) {
    throw std::runtime_error("decode_payload: unknown value encoding");
  }
  const auto index_mode = static_cast<IndexEncoding>(index_byte);
  const auto value_mode = static_cast<ValueEncoding>(value_byte);
  out.vector_length = reader.read_u32();
  const std::uint32_t count = reader.read_u32();
  out.indices.clear();
  out.values.clear();
  if (index_mode != IndexEncoding::kDense && count > out.vector_length) {
    throw std::runtime_error("decode_payload: sparse count exceeds length");
  }
  // Zero entries would also decode to empty indices, i.e. "dense"; honest
  // senders share at least one entry.
  if (index_mode != IndexEncoding::kDense && count == 0) {
    throw std::runtime_error("decode_payload: empty sparse payload");
  }

  switch (index_mode) {
    case IndexEncoding::kDense:
      if (count != out.vector_length) {
        throw std::runtime_error("decode_payload: dense count mismatch");
      }
      break;
    case IndexEncoding::kEliasGamma: {
      // View, not copy: the blob stays in the (refcounted) message body.
      const std::span<const std::uint8_t> blob = reader.view_bytes();
      compress::decode_index_gaps_into(blob, count, out.indices);
      // Gaps are >= 1, so the set is strictly ascending and the last index
      // is the largest.
      if (!out.indices.empty() && out.indices.back() >= out.vector_length) {
        throw std::runtime_error("decode_payload: index out of range");
      }
      break;
    }
    case IndexEncoding::kRaw:
      reader.read_u32_array_into(out.indices);
      if (out.indices.size() != count) {
        throw std::runtime_error("decode_payload: raw index count mismatch");
      }
      for (std::size_t i = 0; i < out.indices.size(); ++i) {
        if (i > 0 && out.indices[i] <= out.indices[i - 1]) {
          throw std::runtime_error("decode_payload: raw indices not ascending");
        }
        if (out.indices[i] >= out.vector_length) {
          throw std::runtime_error("decode_payload: index out of range");
        }
      }
      break;
    case IndexEncoding::kSeed: {
      const std::uint64_t seed = reader.read_u64();
      compress::random_indices_into(out.vector_length, count, seed,
                                    out.indices, arena);
      break;
    }
  }

  switch (value_mode) {
    case ValueEncoding::kXorCodec: {
      const std::span<const std::uint8_t> blob = reader.view_bytes();
      compress::decompress_floats_into(blob, count, out.values);
      break;
    }
    case ValueEncoding::kRaw:
      reader.read_f32_array_into(out.values);
      break;
  }
  if (out.values.size() != count) {
    throw std::runtime_error("decode_payload: value count mismatch");
  }
}

net::Message make_message(std::uint32_t sender, std::uint32_t round,
                          const PayloadView& payload,
                          const PayloadOptions& options, net::BufferPool& pool,
                          compress::BitWriter& bit_scratch) {
  net::ByteWriter writer(pool.acquire());
  net::Message msg;
  msg.sender = sender;
  msg.round = round;
  msg.metadata_bytes =
      encode_payload_into(payload, options, writer, bit_scratch);
  msg.body = pool.adopt(std::move(writer).take());
  return msg;
}

}  // namespace jwins::core
