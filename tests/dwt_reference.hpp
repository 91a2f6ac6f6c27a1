// Reference multi-level transforms for dwt::DwtPlan: the plan's level loop
// over the per-output analyze_level_scalar and the scatter-form
// synthesize_level_scalar, with the level geometry read back from the
// plan's band layout. The single-level references stay in src/dwt because
// the kernels call them for filters longer than the signal. The
// equivalence tests and bench_micro's reference rows use these.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <utility>

#include "dwt/dwt.hpp"

namespace jwins::testref {

/// DwtPlan::forward_into with every level run by analyze_level_scalar.
inline void ref_dwt_forward(const dwt::DwtPlan& plan,
                            std::span<const float> input,
                            std::span<float> coeffs, dwt::DwtWorkspace& ws) {
  const std::size_t nlev = plan.levels();
  const std::size_t max_len =
      nlev == 0 ? input.size() : 2 * plan.band_length(nlev);
  ws.ping.resize(std::max(ws.ping.size(), max_len));
  ws.pong.resize(std::max(ws.pong.size(), max_len));
  float* cur = ws.ping.data();
  float* nxt = ws.pong.data();
  std::copy(input.begin(), input.end(), cur);
  std::size_t len = input.size();
  for (std::size_t l = 0; l < nlev; ++l) {
    // Level l's detail is band nlev - l; its input is zero-padded to twice
    // that band's length.
    const std::size_t band = nlev - l;
    const std::size_t half = plan.band_length(band);
    std::fill(cur + len, cur + 2 * half, 0.0f);
    dwt::analyze_level_scalar(plan.wavelet(),
                              std::span<const float>(cur, 2 * half),
                              std::span<float>(nxt, half),
                              coeffs.subspan(plan.band_offset(band), half));
    std::swap(cur, nxt);
    len = half;
  }
  std::copy(cur, cur + plan.band_length(0), coeffs.begin());
}

/// DwtPlan::inverse_into with every level run by synthesize_level_scalar.
inline void ref_dwt_inverse(const dwt::DwtPlan& plan,
                            std::span<const float> coeffs,
                            std::span<float> output, dwt::DwtWorkspace& ws) {
  const std::size_t nlev = plan.levels();
  const std::size_t max_len =
      nlev == 0 ? coeffs.size() : 2 * plan.band_length(nlev);
  ws.ping.resize(std::max(ws.ping.size(), max_len));
  ws.pong.resize(std::max(ws.pong.size(), max_len));
  float* cur = ws.ping.data();
  float* nxt = ws.pong.data();
  const std::size_t approx_len = plan.band_length(0);
  std::copy(coeffs.begin(),
            coeffs.begin() + static_cast<std::ptrdiff_t>(approx_len), cur);
  for (std::size_t l = nlev; l-- > 0;) {
    const std::size_t band = nlev - l;
    const std::size_t half = plan.band_length(band);
    dwt::synthesize_level_scalar(plan.wavelet(), std::span<const float>(cur, half),
                                 coeffs.subspan(plan.band_offset(band), half),
                                 std::span<float>(nxt, 2 * half));
    std::swap(cur, nxt);
  }
  std::copy(cur, cur + output.size(), output.begin());
}

}  // namespace jwins::testref
