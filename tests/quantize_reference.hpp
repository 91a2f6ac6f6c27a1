// Reference QSGD quantizer for compress::qsgd_quantize_into: per coordinate
// it scales, rounds with one uniform draw and emits the sign bit and the
// level bits as separate writes. It is slow but obviously right; the
// equivalence tests compare the library's blocked kernel against it byte
// for byte and draw for draw.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <span>
#include <stdexcept>
#include <utility>

#include "compress/bitstream.hpp"
#include "compress/quantize.hpp"

namespace jwins::testref {

/// s-level stochastic quantization of `values` into `out`, drawing from
/// `rng` once per coordinate whenever the norm is non-zero.
template <class Urbg>
void ref_qsgd_quantize(std::span<const float> values, std::uint32_t levels,
                       Urbg& rng, compress::QuantizedVector& out) {
  if (levels == 0) throw std::invalid_argument("qsgd_quantize: levels must be >= 1");
  out.levels = levels;
  out.count = static_cast<std::uint32_t>(values.size());
  double norm_sq = 0.0;
  for (float v : values) norm_sq += static_cast<double>(v) * v;
  out.norm = static_cast<float>(std::sqrt(norm_sq));
  compress::BitWriter writer(std::move(out.packed));
  std::uniform_real_distribution<double> u01(0.0, 1.0);
  const auto level_bits = static_cast<unsigned>(std::bit_width(levels));
  for (float v : values) {
    writer.write_bit(v < 0.0f);
    std::uint32_t level = 0;
    if (out.norm > 0.0f) {
      const double scaled =
          std::fabs(v) / out.norm * static_cast<double>(levels);
      // NaN (an infinite v: inf / inf) or anything not below levels + 1
      // cannot be converted to an integer: it is the top level.
      const bool in_range = scaled < static_cast<double>(levels) + 1.0;
      const auto lower =
          static_cast<std::uint32_t>(in_range ? scaled : levels);
      const double frac = in_range ? scaled - lower : 0.0;
      level = lower + (u01(rng) < frac ? 1u : 0u);  // unbiased rounding
      if (level > levels) level = levels;
    }
    writer.write_bits(level, level_bits);
  }
  out.packed = std::move(writer).finish();
}

}  // namespace jwins::testref
