#include "compress/quantize.hpp"

#include <bit>
#include <cmath>
#include <stdexcept>

#include "compress/bitstream.hpp"
#include "net/serializer.hpp"

namespace jwins::compress {

namespace {

unsigned bits_per_level(std::uint32_t levels) noexcept {
  // A level index lies in [0, s]; add one sign bit separately.
  return static_cast<unsigned>(std::bit_width(levels));
}

}  // namespace

template <class Urbg>
void qsgd_quantize_into(std::span<const float> values, std::uint32_t levels,
                        Urbg& rng, QuantizedVector& out) {
  if (levels == 0) throw std::invalid_argument("qsgd_quantize: levels must be >= 1");
  out.levels = levels;
  out.count = static_cast<std::uint32_t>(values.size());
  // The sequential double accumulation is part of the pinned output
  // (vectorizing it would change the summation order).
  double norm_sq = 0.0;
  for (float v : values) norm_sq += static_cast<double>(v) * v;
  out.norm = static_cast<float>(std::sqrt(norm_sq));
  BitWriter writer(std::move(out.packed));  // reuse the packed capacity
  std::uniform_real_distribution<double> u01(0.0, 1.0);
  const unsigned level_bits = bits_per_level(levels);
  if (!(out.norm > 0.0f)) {
    // Degenerate all-zero vector: no scaling and no RNG draws, matching the
    // reference exactly (sign bit then a zero level, fused into one
    // MSB-first write).
    for (float v : values) {
      writer.write_bits(static_cast<std::uint64_t>(v < 0.0f) << level_bits,
                        1 + level_bits);
    }
    out.packed = std::move(writer).finish();
    return;
  }
  // Blocked rounding: the scale/trunc/frac arithmetic (the vectorizable
  // part) runs over contiguous blocks; the RNG draw and bit emission stay
  // sequential so the per-coordinate draw order is exactly the reference's.
  constexpr std::size_t kBlock = 256;
  std::uint32_t lower[kBlock];
  double frac[kBlock];
  const float norm = out.norm;
  const double level_cap = static_cast<double>(levels) + 1.0;
  std::size_t i = 0;
  while (i < values.size()) {
    const std::size_t len = std::min(kBlock, values.size() - i);
    const float* v = values.data() + i;
    for (std::size_t j = 0; j < len; ++j) {
      // Same expression shape as the reference: float |v|/norm, widened to
      // double for the levels product.
      const double scaled =
          std::fabs(v[j]) / norm * static_cast<double>(levels);
      // An infinite coordinate scales to inf / inf = NaN, which has no
      // integer conversion: anything not below levels + 1 (NaN included)
      // takes the top level, still after its one draw.
      const bool in_range = scaled < level_cap;
      const auto lo = static_cast<std::uint32_t>(in_range ? scaled : levels);
      lower[j] = lo;
      frac[j] = in_range ? scaled - lo : 0.0;
    }
    for (std::size_t j = 0; j < len; ++j) {
      std::uint32_t level = lower[j] + (u01(rng) < frac[j] ? 1u : 0u);
      if (level > levels) level = levels;
      // Sign bit then level bits — one MSB-first write, identical layout.
      writer.write_bits(
          (static_cast<std::uint64_t>(v[j] < 0.0f) << level_bits) | level,
          1 + level_bits);
    }
    i += len;
  }
  out.packed = std::move(writer).finish();
}

template void qsgd_quantize_into<std::mt19937_64>(std::span<const float>,
                                                  std::uint32_t,
                                                  std::mt19937_64&,
                                                  QuantizedVector&);
template void qsgd_quantize_into<core::CounterRng>(std::span<const float>,
                                                   std::uint32_t,
                                                   core::CounterRng&,
                                                   QuantizedVector&);

namespace {

void dequantize_packed(float norm, std::uint32_t levels, std::uint32_t count,
                       std::span<const std::uint8_t> packed,
                       std::vector<float>& out) {
  out.assign(count, 0.0f);
  if (count == 0) return;
  BitReader reader(packed);
  const unsigned level_bits = bits_per_level(levels);
  const float scale = norm / static_cast<float>(levels);
  for (std::uint32_t i = 0; i < count; ++i) {
    const bool negative = reader.read_bit();
    const auto level = static_cast<float>(reader.read_bits(level_bits));
    out[i] = (negative ? -1.0f : 1.0f) * scale * level;
  }
}

}  // namespace

void qsgd_dequantize_into(const QuantizedVector& q, std::vector<float>& out) {
  dequantize_packed(q.norm, q.levels, q.count, q.packed, out);
}

void qsgd_dequantize_into(const QuantizedView& q, std::vector<float>& out) {
  dequantize_packed(q.norm, q.levels, q.count, q.packed, out);
}

QuantizedView qsgd_view(std::span<const std::uint8_t> bytes,
                        std::optional<std::size_t> expected_count) {
  net::ByteReader reader(bytes);
  QuantizedView q;
  q.norm = reader.read_f32();
  q.levels = reader.read_u32();
  q.count = reader.read_u32();
  q.packed = reader.view_bytes();
  if (q.levels == 0) throw std::runtime_error("qsgd_view: zero levels");
  if (expected_count && q.count != *expected_count) {
    throw std::runtime_error("qsgd_view: count mismatch");
  }
  // count < 2^32 at 1 + 32 bits each: the products cannot wrap.
  const std::uint64_t bits =
      std::uint64_t{q.count} * (1 + bits_per_level(q.levels));
  if (std::uint64_t{q.packed.size()} * 8 < bits) {
    throw std::runtime_error("qsgd_view: packed section too short");
  }
  return q;
}

void qsgd_serialize_into(const QuantizedVector& q, net::ByteWriter& writer) {
  writer.write_f32(q.norm);
  writer.write_u32(q.levels);
  writer.write_u32(q.count);
  writer.write_bytes(q.packed);
}

}  // namespace jwins::compress
