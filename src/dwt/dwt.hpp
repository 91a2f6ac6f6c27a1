// Multi-level 1-D discrete wavelet transform with periodic signal extension.
//
// The transform is orthonormal: with an orthonormal filter bank and periodic
// ("per") extension the analysis matrix is orthogonal for every even signal
// length, which gives (a) perfect reconstruction and (b) Parseval energy
// preservation. Energy preservation is what makes magnitude-TopK on wavelet
// coefficients meaningful for JWINS' parameter ranking (paper §III-A): the
// largest coefficients carry the most model-change energy.
//
// Odd-length levels are zero-padded by one sample; the plan records per-level
// lengths so the inverse restores the exact original length. Coefficients
// are laid out `[a_L, d_L, d_{L-1}, ..., d_1]` (PyWavelets `wavedec` order).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "dwt/wavelet.hpp"

namespace jwins::dwt {

/// Single-level periodized analysis. Input length must be even.
/// Writes `n/2` approximation and `n/2` detail coefficients. Dispatches
/// between the scalar reference and the stride-1 fast path per
/// core::KernelDispatch; the tiers are bit-identical.
void analyze_level(const Wavelet& w, std::span<const float> input,
                   std::span<float> approx, std::span<float> detail);

/// Pinned golden reference (per-output tap loop with wrap handling).
void analyze_level_scalar(const Wavelet& w, std::span<const float> input,
                          std::span<float> approx, std::span<float> detail);

/// Fast path: filter-major stride-1 accumulation over the unwrapped
/// interior, scalar wrap tail. Same doubles, same order as the reference.
void analyze_level_fast(const Wavelet& w, std::span<const float> input,
                        std::span<float> approx, std::span<float> detail);

/// Single-level periodized synthesis: exact inverse of analyze_level.
/// Dispatches like analyze_level.
void synthesize_level(const Wavelet& w, std::span<const float> approx,
                      std::span<const float> detail, std::span<float> output);

/// Pinned golden reference (scatter form).
void synthesize_level_scalar(const Wavelet& w, std::span<const float> approx,
                             std::span<const float> detail,
                             std::span<float> output);

/// Fast path: parity-split gather form with stride-1 filter-major passes;
/// bit-identical to the scatter reference.
void synthesize_level_fast(const Wavelet& w, std::span<const float> approx,
                           std::span<const float> detail,
                           std::span<float> output);

/// Reusable ping-pong buffers for multi-level transforms. A workspace is
/// plan-agnostic: DwtPlan grows it on first use (to the plan's outermost
/// padded length) and never shrinks it, so one workspace per worker serves
/// every plan and steady-state transforms allocate nothing. Not shareable
/// across concurrent calls.
struct DwtWorkspace {
  std::vector<float> ping;
  std::vector<float> pong;
};

/// A reusable multi-level transform plan for a fixed input length.
///
/// JWINS transforms the (flattened) model vector every round, so the plan is
/// built once per model size and reused; it owns the level-length bookkeeping
/// and scratch buffers.
class DwtPlan {
 public:
  /// Plans `levels` decomposition levels over signals of `input_length`.
  /// The effective level count may be lower for short signals (each level
  /// needs at least 2 samples to halve).
  DwtPlan(Wavelet wavelet, std::size_t input_length, std::size_t levels);

  std::size_t input_length() const noexcept { return input_length_; }
  std::size_t levels() const noexcept { return level_in_.size(); }

  /// Total number of coefficients produced by forward_into().
  std::size_t coeff_length() const noexcept { return coeff_length_; }

  const Wavelet& wavelet() const noexcept { return wavelet_; }

  /// Forward transform into a caller-provided buffer of coeff_length();
  /// `input.size()` must equal input_length(). All per-level temporaries
  /// live in `ws` (grown on first use, reused afterwards).
  void forward_into(std::span<const float> input, std::span<float> coeffs,
                    DwtWorkspace& ws) const;

  /// Inverse transform into a caller-provided buffer of input_length();
  /// `coeffs.size()` must equal coeff_length(). Temporaries as forward_into.
  void inverse_into(std::span<const float> coeffs, std::span<float> output,
                    DwtWorkspace& ws) const;

  /// Decomposition level that owns flat coefficient index `i`:
  /// 0 = final approximation band a_L, 1 = d_L, ..., levels() = d_1.
  std::size_t band_of(std::size_t coeff_index) const;

  /// Offset of each band in the flat coefficient vector; band 0 is a_L.
  /// There are levels()+1 bands.
  std::size_t band_offset(std::size_t band) const;
  std::size_t band_length(std::size_t band) const;

 private:
  Wavelet wavelet_;
  std::size_t input_length_;
  std::size_t coeff_length_;
  // Per level (outermost first): pre-pad input length and padded (even) length.
  std::vector<std::size_t> level_in_;
  std::vector<std::size_t> level_padded_;
  // band_offsets_[b] = start of band b in the flat vector, b in [0, levels()].
  std::vector<std::size_t> band_offsets_;
};

}  // namespace jwins::dwt
