// QSGD-style stochastic quantization (Alistarh et al., NIPS 2017).
//
// The paper discusses quantization as the other major compression family
// (§II-B) and CHOCO-SGD is defined for arbitrary compressors; this module
// provides the standard s-level stochastic quantizer so CHOCO can run with
// quantization instead of TopK (an extension experiment — see
// bench_ablation_design).
//
// Encoding of x: ||x||_2 (one float), then per element a sign bit and an
// integer level in [0, s], stochastically rounded so the quantizer is
// unbiased: E[Q(x)] = x. Levels are bit-packed (ceil(log2(s+1)) bits each).
#pragma once

#include <cstdint>
#include <random>
#include <span>
#include <vector>

#include "core/rng.hpp"

namespace jwins::net {
class ByteWriter;
}

namespace jwins::compress {

struct QuantizedVector {
  float norm = 0.0f;          ///< L2 norm of the original vector
  std::uint32_t levels = 1;   ///< quantization levels s
  std::uint32_t count = 0;    ///< number of elements
  std::vector<std::uint8_t> packed;  ///< sign+level bitstream
};

/// Quantizes `values` to s levels with unbiased stochastic rounding into
/// `out`, reusing out.packed's capacity. One uniform draw per element;
/// instantiated for std::mt19937_64 (tests, benches) and the engine's
/// counter-based core::CounterRng streams. Dispatches between the scalar
/// reference and the blocked fast path per core::KernelDispatch (identical
/// RNG draw sequence and packed bytes on both tiers).
template <class Urbg>
void qsgd_quantize_into(std::span<const float> values, std::uint32_t levels,
                        Urbg& rng, QuantizedVector& out);

extern template void qsgd_quantize_into<std::mt19937_64>(
    std::span<const float>, std::uint32_t, std::mt19937_64&, QuantizedVector&);
extern template void qsgd_quantize_into<core::CounterRng>(
    std::span<const float>, std::uint32_t, core::CounterRng&, QuantizedVector&);

/// Pinned golden reference: per-coordinate scale, round and emit.
template <class Urbg>
void qsgd_quantize_into_scalar(std::span<const float> values,
                               std::uint32_t levels, Urbg& rng,
                               QuantizedVector& out);

/// Fast path: scale/trunc/frac batched over contiguous blocks, RNG draw and
/// bit emission kept in reference order.
template <class Urbg>
void qsgd_quantize_into_fast(std::span<const float> values,
                             std::uint32_t levels, Urbg& rng,
                             QuantizedVector& out);

extern template void qsgd_quantize_into_scalar<std::mt19937_64>(
    std::span<const float>, std::uint32_t, std::mt19937_64&, QuantizedVector&);
extern template void qsgd_quantize_into_scalar<core::CounterRng>(
    std::span<const float>, std::uint32_t, core::CounterRng&, QuantizedVector&);
extern template void qsgd_quantize_into_fast<std::mt19937_64>(
    std::span<const float>, std::uint32_t, std::mt19937_64&, QuantizedVector&);
extern template void qsgd_quantize_into_fast<core::CounterRng>(
    std::span<const float>, std::uint32_t, core::CounterRng&, QuantizedVector&);

/// Non-owning view of a serialized quantized vector: the packed bitstream
/// stays in the (refcounted) message body, so decoding is zero-copy.
struct QuantizedView {
  float norm = 0.0f;
  std::uint32_t levels = 1;
  std::uint32_t count = 0;
  std::span<const std::uint8_t> packed;
};

/// Parses the qsgd wire format into a view over `bytes` (no copies).
/// The view is valid as long as `bytes` is.
QuantizedView qsgd_view(std::span<const std::uint8_t> bytes);

/// Reconstructs the (lossy) vector into `out` (resized to count):
/// sign * norm * level / s per element.
void qsgd_dequantize_into(const QuantizedVector& q, std::vector<float>& out);
void qsgd_dequantize_into(const QuantizedView& q, std::vector<float>& out);

/// Serialized wire size in bytes.
std::size_t qsgd_wire_size(const QuantizedVector& q) noexcept;

/// Serialization to/from a byte buffer (format: norm f32, levels u32,
/// count u32, packed bytes). Serialize appends to a caller-owned writer,
/// deserialize reuses `out`'s packed buffer.
void qsgd_serialize_into(const QuantizedVector& q, net::ByteWriter& writer);
void qsgd_deserialize_into(std::span<const std::uint8_t> bytes,
                           QuantizedVector& out);

}  // namespace jwins::compress
