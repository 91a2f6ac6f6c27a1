// QSGD-style stochastic quantization (Alistarh et al., NIPS 2017).
//
// The paper discusses quantization as the other major compression family
// (§II-B) and CHOCO-SGD is defined for arbitrary compressors; this module
// provides the standard s-level stochastic quantizer so CHOCO can run with
// quantization instead of TopK (an extension experiment — see
// scenarios/ablation_choco_compressor.scenario).
//
// Encoding of x: ||x||_2 (one float), then per element a sign bit and an
// integer level in [0, s], stochastically rounded so the quantizer is
// unbiased: E[Q(x)] = x. Levels are bit-packed (ceil(log2(s+1)) bits each).
#pragma once

#include <cstdint>
#include <optional>
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
/// counter-based core::CounterRng streams. The scale/trunc/frac arithmetic
/// runs over contiguous blocks while the draws and the bit emission keep
/// coordinate order, so the packed bytes and the draw sequence match the
/// per-coordinate reference in tests/quantize_reference.hpp.
template <class Urbg>
void qsgd_quantize_into(std::span<const float> values, std::uint32_t levels,
                        Urbg& rng, QuantizedVector& out);

extern template void qsgd_quantize_into<std::mt19937_64>(
    std::span<const float>, std::uint32_t, std::mt19937_64&, QuantizedVector&);
extern template void qsgd_quantize_into<core::CounterRng>(
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
/// The view is valid as long as `bytes` is. Zero levels, a count other than
/// `expected_count` (when given: the receiver's own length, which bounds
/// what dequantizing allocates), and a packed section shorter than
/// count * (1 + bit_width(levels)) bits throw before anything is decoded.
QuantizedView qsgd_view(std::span<const std::uint8_t> bytes,
                        std::optional<std::size_t> expected_count = {});

/// Reconstructs the (lossy) vector into `out` (resized to count):
/// sign * norm * level / s per element.
void qsgd_dequantize_into(const QuantizedVector& q, std::vector<float>& out);
void qsgd_dequantize_into(const QuantizedView& q, std::vector<float>& out);

/// Appends the wire format (norm f32, levels u32, count u32, then the
/// length-prefixed packed bytes) to a caller-owned writer; qsgd_view()
/// parses it back.
void qsgd_serialize_into(const QuantizedVector& q, net::ByteWriter& writer);

}  // namespace jwins::compress
