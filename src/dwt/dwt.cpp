#include "dwt/dwt.hpp"

#include <stdexcept>
#include <string>
#include <vector>

#include "core/kernel_dispatch.hpp"

namespace jwins::dwt {

namespace {

void validate_analyze(std::size_t n, std::span<float> approx,
                      std::span<float> detail) {
  if (n == 0 || n % 2 != 0) {
    throw std::invalid_argument("analyze_level requires even input length, got " +
                                std::to_string(n));
  }
  if (approx.size() != n / 2 || detail.size() != n / 2) {
    throw std::invalid_argument("analyze_level output spans must have length n/2");
  }
}

void validate_synthesize(std::size_t half, std::span<const float> detail,
                         std::size_t n) {
  if (detail.size() != half || n != 2 * half) {
    throw std::invalid_argument(
        "synthesize_level requires |approx| == |detail| == |output|/2");
  }
}

}  // namespace

void analyze_level_scalar(const Wavelet& w, std::span<const float> input,
                          std::span<float> approx, std::span<float> detail) {
  const std::size_t n = input.size();
  validate_analyze(n, approx, detail);
  const std::size_t half = n / 2;
  const std::size_t taps = w.length();
  for (std::size_t k = 0; k < half; ++k) {
    double a = 0.0, d = 0.0;
    const std::size_t base = 2 * k;
    for (std::size_t m = 0; m < taps; ++m) {
      std::size_t idx = base + m;
      if (idx >= n) idx -= n;          // periodic extension; taps <= n not
      if (idx >= n) idx %= n;          // required: fall back to full modulo
      const float x = input[idx];
      a += static_cast<double>(w.lowpass[m]) * x;
      d += static_cast<double>(w.highpass[m]) * x;
    }
    approx[k] = static_cast<float>(a);
    detail[k] = static_cast<float>(d);
  }
}

void analyze_level_fast(const Wavelet& w, std::span<const float> input,
                        std::span<float> approx, std::span<float> detail) {
  const std::size_t n = input.size();
  validate_analyze(n, approx, detail);
  const std::size_t taps = w.length();
  if (taps == 0 || taps > n) {
    // Multi-wrap filters keep the (rare) scalar indexing.
    analyze_level_scalar(w, input, approx, detail);
    return;
  }
  const std::size_t half = n / 2;
  // Outputs k < k_safe read input[2k .. 2k+taps-1] without wrapping.
  std::size_t k_safe = (n - taps) / 2 + 1;
  if (k_safe > half) k_safe = half;
  // Filter-major accumulation: per output k the terms still add in tap
  // order m = 0..taps-1 (one tap per pass), so every double accumulator
  // sees the exact operation sequence of the scalar reference while each
  // pass is a stride-1 (output) / stride-2 (input) loop the compiler can
  // vectorize.
  thread_local std::vector<double> acc_a, acc_d;
  acc_a.assign(k_safe, 0.0);
  acc_d.assign(k_safe, 0.0);
  double* __restrict pa = acc_a.data();
  double* __restrict pd = acc_d.data();
  for (std::size_t m = 0; m < taps; ++m) {
    const double h = static_cast<double>(w.lowpass[m]);
    const double g = static_cast<double>(w.highpass[m]);
    const float* in = input.data() + m;
    for (std::size_t k = 0; k < k_safe; ++k) {
      const double x = static_cast<double>(in[2 * k]);
      pa[k] += h * x;
      pd[k] += g * x;
    }
  }
  for (std::size_t k = 0; k < k_safe; ++k) {
    approx[k] = static_cast<float>(pa[k]);
    detail[k] = static_cast<float>(pd[k]);
  }
  // Wrapped tail: same per-output loop as the scalar reference.
  for (std::size_t k = k_safe; k < half; ++k) {
    double a = 0.0, d = 0.0;
    const std::size_t base = 2 * k;
    for (std::size_t m = 0; m < taps; ++m) {
      std::size_t idx = base + m;
      if (idx >= n) idx -= n;
      const float x = input[idx];
      a += static_cast<double>(w.lowpass[m]) * x;
      d += static_cast<double>(w.highpass[m]) * x;
    }
    approx[k] = static_cast<float>(a);
    detail[k] = static_cast<float>(d);
  }
}

void analyze_level(const Wavelet& w, std::span<const float> input,
                   std::span<float> approx, std::span<float> detail) {
  if (core::KernelDispatch::fast()) {
    analyze_level_fast(w, input, approx, detail);
  } else {
    analyze_level_scalar(w, input, approx, detail);
  }
}

void synthesize_level_scalar(const Wavelet& w, std::span<const float> approx,
                             std::span<const float> detail,
                             std::span<float> output) {
  const std::size_t half = approx.size();
  const std::size_t n = output.size();
  validate_synthesize(half, detail, n);
  const std::size_t taps = w.length();
  for (float& v : output) v = 0.0f;
  // Transpose of the analysis operator: output[2k+m] += h[m]*a[k] + g[m]*d[k].
  for (std::size_t k = 0; k < half; ++k) {
    const float a = approx[k];
    const float d = detail[k];
    const std::size_t base = 2 * k;
    for (std::size_t m = 0; m < taps; ++m) {
      std::size_t idx = base + m;
      while (idx >= n) idx -= n;
      output[idx] += w.lowpass[m] * a + w.highpass[m] * d;
    }
  }
}

void synthesize_level_fast(const Wavelet& w, std::span<const float> approx,
                           std::span<const float> detail,
                           std::span<float> output) {
  const std::size_t half = approx.size();
  const std::size_t n = output.size();
  validate_synthesize(half, detail, n);
  const std::size_t taps = w.length();
  if (taps == 0 || taps > n) {
    synthesize_level_scalar(w, approx, detail, output);
    return;
  }
  // Gather form of the scatter reference. Per output j the reference adds
  // one contribution per source k in ascending-k order, each shaped
  // lp[m]*a[k] + hp[m]*d[k]; the fast path reproduces exactly that term
  // sequence. Outputs j >= taps-1 take only unwrapped contributors, split
  // by parity into stride-1 filter-major passes; outputs j < taps-1 mix
  // wrapped and unwrapped contributors and stay scalar.
  const std::size_t boundary = std::min(n, taps - 1);
  const float* __restrict pa = approx.data();
  const float* __restrict pd = detail.data();
  thread_local std::vector<float> acc;
  for (std::size_t p = 0; p < 2; ++p) {
    // Taps of parity p: m = 2t+p, t in [0, tcount). Interior outputs
    // j = 2u+p with j >= boundary, i.e. u in [u0, half).
    const std::size_t tcount = (taps - p + 1) / 2;
    const std::size_t u0 = (taps - p) / 2;
    if (u0 >= half) {
      // Parity has no interior outputs (tiny n); handled by boundary loop.
      continue;
    }
    const std::size_t count = half - u0;
    acc.assign(count, 0.0f);
    float* __restrict s = acc.data();
    if (tcount == 0) {
      // No taps of this parity: interior outputs are exactly the zero fill.
    } else {
      // t descending == source k ascending, matching the reference order.
      for (std::size_t t = tcount; t-- > 0;) {
        const std::size_t m = 2 * t + p;
        const float lo = w.lowpass[m];
        const float hi = w.highpass[m];
        const float* ka = pa + (u0 - t);
        const float* kd = pd + (u0 - t);
        for (std::size_t u = 0; u < count; ++u) {
          s[u] += lo * ka[u] + hi * kd[u];
        }
      }
    }
    for (std::size_t u = 0; u < count; ++u) {
      output[2 * (u0 + u) + p] = s[u];
    }
  }
  // Boundary outputs j < taps-1: unwrapped contributors (m <= j, ascending
  // k from 0) then wrapped ones (m > j, k = (j - m + n)/2, still ascending
  // k as m descends).
  for (std::size_t j = 0; j < boundary; ++j) {
    float v = 0.0f;
    for (std::ptrdiff_t m = static_cast<std::ptrdiff_t>(j); m >= 0; m -= 2) {
      const std::size_t k = (j - static_cast<std::size_t>(m)) / 2;
      v += w.lowpass[m] * pa[k] + w.highpass[m] * pd[k];
    }
    std::ptrdiff_t m_wrap = static_cast<std::ptrdiff_t>(taps) - 1;
    if ((static_cast<std::size_t>(m_wrap) % 2) != (j % 2)) --m_wrap;
    for (std::ptrdiff_t m = m_wrap; m > static_cast<std::ptrdiff_t>(j);
         m -= 2) {
      const std::size_t k = (j + n - static_cast<std::size_t>(m)) / 2;
      v += w.lowpass[m] * pa[k] + w.highpass[m] * pd[k];
    }
    output[j] = v;
  }
  // The two parity lanes start at outputs taps-1 and taps (one each), so
  // together with the boundary loop they cover [0, n) exactly once.
}

void synthesize_level(const Wavelet& w, std::span<const float> approx,
                      std::span<const float> detail, std::span<float> output) {
  if (core::KernelDispatch::fast()) {
    synthesize_level_fast(w, approx, detail, output);
  } else {
    synthesize_level_scalar(w, approx, detail, output);
  }
}

DwtPlan::DwtPlan(Wavelet wavelet, std::size_t input_length, std::size_t levels)
    : wavelet_(std::move(wavelet)), input_length_(input_length) {
  if (input_length == 0) {
    throw std::invalid_argument("DwtPlan requires a non-empty signal");
  }
  std::size_t len = input_length;
  for (std::size_t l = 0; l < levels && len >= 2; ++l) {
    const std::size_t padded = len + (len % 2);
    level_in_.push_back(len);
    level_padded_.push_back(padded);
    len = padded / 2;
  }
  // Flat layout: [a_L, d_L, d_{L-1}, ..., d_1]. Band 0 is a_L (length = final
  // approx length), band b>=1 is d_{L-b+1}.
  const std::size_t nlev = level_in_.size();
  band_offsets_.resize(nlev + 2);
  band_offsets_[0] = 0;
  const std::size_t approx_len = nlev == 0 ? input_length : level_padded_.back() / 2;
  band_offsets_[1] = approx_len;
  std::size_t off = approx_len;
  for (std::size_t b = 1; b <= nlev; ++b) {
    // band b holds d at level (nlev - b + 1), whose length equals the padded
    // input of that level divided by 2.
    const std::size_t lev = nlev - b;  // index into level_padded_
    off += level_padded_[lev] / 2;
    band_offsets_[b + 1] = off;
  }
  coeff_length_ = off;
}

void DwtPlan::forward_into(std::span<const float> input,
                           std::span<float> coeffs, DwtWorkspace& ws) const {
  if (input.size() != input_length_) {
    throw std::invalid_argument("DwtPlan::forward: input length mismatch");
  }
  if (coeffs.size() != coeff_length_) {
    throw std::invalid_argument("DwtPlan::forward: coeff buffer length mismatch");
  }
  const std::size_t nlev = level_in_.size();
  if (nlev == 0) {
    for (std::size_t i = 0; i < input.size(); ++i) coeffs[i] = input[i];
    return;
  }
  // Grow-only ping-pong buffers: allocation happens on the first call per
  // workspace, steady-state calls are heap-free.
  const std::size_t max_len = level_padded_.front();
  if (ws.ping.size() < max_len) ws.ping.resize(max_len);
  if (ws.pong.size() < max_len) ws.pong.resize(max_len);
  float* cur = ws.ping.data();
  float* nxt = ws.pong.data();
  std::copy(input.begin(), input.end(), cur);
  for (std::size_t l = 0; l < nlev; ++l) {
    const std::size_t padded = level_padded_[l];
    for (std::size_t i = level_in_[l]; i < padded; ++i) cur[i] = 0.0f;
    const std::size_t half = padded / 2;
    // Detail of level l+1 lives in band (nlev - l), written in place; the
    // approximation becomes the next level's input.
    const std::size_t band = nlev - l;
    analyze_level(wavelet_, std::span<const float>(cur, padded),
                  std::span<float>(nxt, half),
                  coeffs.subspan(band_offsets_[band], half));
    std::swap(cur, nxt);
  }
  const std::size_t approx_len = band_offsets_[1];
  for (std::size_t i = 0; i < approx_len; ++i) coeffs[i] = cur[i];
}

void DwtPlan::inverse_into(std::span<const float> coeffs,
                           std::span<float> output, DwtWorkspace& ws) const {
  if (coeffs.size() != coeff_length_) {
    throw std::invalid_argument("DwtPlan::inverse: coeff length mismatch");
  }
  if (output.size() != input_length_) {
    throw std::invalid_argument("DwtPlan::inverse: output length mismatch");
  }
  const std::size_t nlev = level_in_.size();
  if (nlev == 0) {
    for (std::size_t i = 0; i < coeffs.size(); ++i) output[i] = coeffs[i];
    return;
  }
  const std::size_t max_len = level_padded_.front();
  if (ws.ping.size() < max_len) ws.ping.resize(max_len);
  if (ws.pong.size() < max_len) ws.pong.resize(max_len);
  float* cur = ws.ping.data();
  float* nxt = ws.pong.data();
  const std::size_t approx_len = band_offsets_[1];
  std::copy(coeffs.begin(),
            coeffs.begin() + static_cast<std::ptrdiff_t>(approx_len), cur);
  for (std::size_t l = nlev; l-- > 0;) {
    const std::size_t band = nlev - l;
    const std::size_t boff = band_offsets_[band];
    const std::size_t padded = level_padded_[l];
    const std::size_t half = padded / 2;
    // synthesize zeroes its output span first; the next level reads only
    // level_in_[l] samples, which drops the zero pad implicitly.
    synthesize_level(wavelet_, std::span<const float>(cur, half),
                     coeffs.subspan(boff, half), std::span<float>(nxt, padded));
    std::swap(cur, nxt);
  }
  for (std::size_t i = 0; i < input_length_; ++i) output[i] = cur[i];
}

std::size_t DwtPlan::band_of(std::size_t coeff_index) const {
  if (coeff_index >= coeff_length_) {
    throw std::out_of_range("band_of: coefficient index out of range");
  }
  // band_offsets_ has levels()+2 entries and is sorted; linear scan is fine
  // (at most ~5 bands for the 4-level JWINS configuration).
  std::size_t band = 0;
  while (band + 1 < band_offsets_.size() && coeff_index >= band_offsets_[band + 1]) {
    ++band;
  }
  return band;
}

std::size_t DwtPlan::band_offset(std::size_t band) const {
  if (band + 1 >= band_offsets_.size()) {
    throw std::out_of_range("band_offset: band out of range");
  }
  return band_offsets_[band];
}

std::size_t DwtPlan::band_length(std::size_t band) const {
  if (band + 1 >= band_offsets_.size()) {
    throw std::out_of_range("band_length: band out of range");
  }
  return band_offsets_[band + 1] - band_offsets_[band];
}

}  // namespace jwins::dwt
