#include "compress/quantize.hpp"

#include <bit>
#include <cmath>
#include <stdexcept>

#include "compress/bitstream.hpp"
#include "core/kernel_dispatch.hpp"
#include "net/serializer.hpp"

namespace jwins::compress {

namespace {

unsigned bits_per_level(std::uint32_t levels) noexcept {
  // A level index lies in [0, s]; add one sign bit separately.
  return static_cast<unsigned>(std::bit_width(levels));
}

// Shared norm prologue: the sequential double accumulation is part of the
// pinned reference (vectorizing it would change the summation order).
BitWriter quantize_prologue(std::span<const float> values,
                            std::uint32_t levels, QuantizedVector& out) {
  if (levels == 0) throw std::invalid_argument("qsgd_quantize: levels must be >= 1");
  out.levels = levels;
  out.count = static_cast<std::uint32_t>(values.size());
  double norm_sq = 0.0;
  for (float v : values) norm_sq += static_cast<double>(v) * v;
  out.norm = static_cast<float>(std::sqrt(norm_sq));
  return BitWriter(std::move(out.packed));  // reuse the packed capacity
}

template <class Urbg>
void qsgd_quantize_into_scalar_impl(std::span<const float> values,
                                    std::uint32_t levels, Urbg& rng,
                                    QuantizedVector& out) {
  BitWriter writer = quantize_prologue(values, levels, out);
  std::uniform_real_distribution<double> u01(0.0, 1.0);
  const unsigned level_bits = bits_per_level(levels);
  for (float v : values) {
    writer.write_bit(v < 0.0f);
    std::uint32_t level = 0;
    if (out.norm > 0.0f) {
      const double scaled =
          std::fabs(v) / out.norm * static_cast<double>(levels);
      const auto lower = static_cast<std::uint32_t>(scaled);
      const double frac = scaled - lower;
      level = lower + (u01(rng) < frac ? 1u : 0u);  // unbiased rounding
      if (level > levels) level = levels;
    }
    writer.write_bits(level, level_bits);
  }
  out.packed = std::move(writer).finish();
}

template <class Urbg>
void qsgd_quantize_into_fast_impl(std::span<const float> values,
                                  std::uint32_t levels, Urbg& rng,
                                  QuantizedVector& out) {
  BitWriter writer = quantize_prologue(values, levels, out);
  std::uniform_real_distribution<double> u01(0.0, 1.0);
  const unsigned level_bits = bits_per_level(levels);
  if (!(out.norm > 0.0f)) {
    // Degenerate all-zero vector: no scaling and no RNG draws, matching the
    // scalar reference exactly (sign bit then a zero level, fused into one
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
  std::size_t i = 0;
  while (i < values.size()) {
    const std::size_t len = std::min(kBlock, values.size() - i);
    const float* v = values.data() + i;
    for (std::size_t j = 0; j < len; ++j) {
      // Same expression shape as the reference: float |v|/norm, widened to
      // double for the levels product.
      const double scaled =
          std::fabs(v[j]) / norm * static_cast<double>(levels);
      const auto lo = static_cast<std::uint32_t>(scaled);
      lower[j] = lo;
      frac[j] = scaled - lo;
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

}  // namespace

template <class Urbg>
void qsgd_quantize_into(std::span<const float> values, std::uint32_t levels,
                        Urbg& rng, QuantizedVector& out) {
  if (core::KernelDispatch::fast()) {
    qsgd_quantize_into_fast_impl(values, levels, rng, out);
  } else {
    qsgd_quantize_into_scalar_impl(values, levels, rng, out);
  }
}

template <class Urbg>
void qsgd_quantize_into_scalar(std::span<const float> values,
                               std::uint32_t levels, Urbg& rng,
                               QuantizedVector& out) {
  qsgd_quantize_into_scalar_impl(values, levels, rng, out);
}

template <class Urbg>
void qsgd_quantize_into_fast(std::span<const float> values,
                             std::uint32_t levels, Urbg& rng,
                             QuantizedVector& out) {
  qsgd_quantize_into_fast_impl(values, levels, rng, out);
}

template void qsgd_quantize_into_scalar<std::mt19937_64>(std::span<const float>,
                                                         std::uint32_t,
                                                         std::mt19937_64&,
                                                         QuantizedVector&);
template void qsgd_quantize_into_scalar<core::CounterRng>(
    std::span<const float>, std::uint32_t, core::CounterRng&,
    QuantizedVector&);
template void qsgd_quantize_into_fast<std::mt19937_64>(std::span<const float>,
                                                       std::uint32_t,
                                                       std::mt19937_64&,
                                                       QuantizedVector&);
template void qsgd_quantize_into_fast<core::CounterRng>(std::span<const float>,
                                                        std::uint32_t,
                                                        core::CounterRng&,
                                                        QuantizedVector&);

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

QuantizedView qsgd_view(std::span<const std::uint8_t> bytes) {
  net::ByteReader reader(bytes);
  QuantizedView q;
  q.norm = reader.read_f32();
  q.levels = reader.read_u32();
  q.count = reader.read_u32();
  q.packed = reader.view_bytes();
  if (q.levels == 0) throw std::runtime_error("qsgd_view: zero levels");
  return q;
}

std::size_t qsgd_wire_size(const QuantizedVector& q) noexcept {
  // norm + levels + count + length-prefixed packed blob.
  return sizeof(float) + 3 * sizeof(std::uint32_t) + q.packed.size();
}

void qsgd_serialize_into(const QuantizedVector& q, net::ByteWriter& writer) {
  writer.write_f32(q.norm);
  writer.write_u32(q.levels);
  writer.write_u32(q.count);
  writer.write_bytes(q.packed);
}

void qsgd_deserialize_into(std::span<const std::uint8_t> bytes,
                           QuantizedVector& out) {
  net::ByteReader reader(bytes);
  out.norm = reader.read_f32();
  out.levels = reader.read_u32();
  out.count = reader.read_u32();
  const std::span<const std::uint8_t> packed = reader.view_bytes();
  out.packed.assign(packed.begin(), packed.end());
  if (out.levels == 0) throw std::runtime_error("qsgd_deserialize: zero levels");
}

}  // namespace jwins::compress
