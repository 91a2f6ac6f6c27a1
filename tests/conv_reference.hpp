// Direct 7-deep reference loops for nn::Conv2d. They visit every output
// element's terms in the contract order (forward: double bias, then ic, kr,
// kc; weight and bias gradients: float over b, r, c; input gradient: float
// over oc, r, c) and test the padding bounds tap by tap, so they are slow
// but obviously right. The equivalence tests memcmp the library's
// restructured kernels against them.
#pragma once

#include <cstddef>
#include <vector>

namespace jwins::testref {

/// Square-kernel convolution geometry over [B, C, H, W] tensors.
struct ConvShape {
  std::size_t batch, in_ch, out_ch, ih, iw, kernel, stride, pad;

  std::size_t oh() const { return (ih + 2 * pad - kernel) / stride + 1; }
  std::size_t ow() const { return (iw + 2 * pad - kernel) / stride + 1; }
};

/// y[b, oc, r, c] = bias[oc] + sum over (ic, kr, kc) of x * w, in double.
inline std::vector<float> ref_conv_forward(const ConvShape& s,
                                           const float* x, const float* w,
                                           const float* bias) {
  const std::size_t oh = s.oh(), ow = s.ow();
  std::vector<float> y(s.batch * s.out_ch * oh * ow);
  for (std::size_t b = 0; b < s.batch; ++b) {
    for (std::size_t oc = 0; oc < s.out_ch; ++oc) {
      for (std::size_t r = 0; r < oh; ++r) {
        for (std::size_t c = 0; c < ow; ++c) {
          double acc = bias[oc];
          for (std::size_t ic = 0; ic < s.in_ch; ++ic) {
            for (std::size_t kr = 0; kr < s.kernel; ++kr) {
              const std::ptrdiff_t in_r =
                  static_cast<std::ptrdiff_t>(r * s.stride + kr) -
                  static_cast<std::ptrdiff_t>(s.pad);
              if (in_r < 0 || in_r >= static_cast<std::ptrdiff_t>(s.ih)) continue;
              for (std::size_t kc = 0; kc < s.kernel; ++kc) {
                const std::ptrdiff_t in_c =
                    static_cast<std::ptrdiff_t>(c * s.stride + kc) -
                    static_cast<std::ptrdiff_t>(s.pad);
                if (in_c < 0 || in_c >= static_cast<std::ptrdiff_t>(s.iw)) continue;
                const float xv = x[((b * s.in_ch + ic) * s.ih +
                                    static_cast<std::size_t>(in_r)) * s.iw +
                                   static_cast<std::size_t>(in_c)];
                const float wv =
                    w[((oc * s.in_ch + ic) * s.kernel + kr) * s.kernel + kc];
                acc += static_cast<double>(xv) * wv;
              }
            }
          }
          y[((b * s.out_ch + oc) * oh + r) * ow + c] = static_cast<float>(acc);
        }
      }
    }
  }
  return y;
}

/// Accumulates the weight and bias gradients into gw and gb and returns the
/// input gradient. A zero gradient entry contributes nothing.
inline std::vector<float> ref_conv_backward(const ConvShape& s,
                                            const float* x, const float* w,
                                            const float* gy, float* gw,
                                            float* gb) {
  const std::size_t oh = s.oh(), ow = s.ow();
  std::vector<float> gx(s.batch * s.in_ch * s.ih * s.iw);
  for (std::size_t b = 0; b < s.batch; ++b) {
    for (std::size_t oc = 0; oc < s.out_ch; ++oc) {
      for (std::size_t r = 0; r < oh; ++r) {
        for (std::size_t c = 0; c < ow; ++c) {
          const float g = gy[((b * s.out_ch + oc) * oh + r) * ow + c];
          if (g == 0.0f) continue;
          gb[oc] += g;
          for (std::size_t ic = 0; ic < s.in_ch; ++ic) {
            for (std::size_t kr = 0; kr < s.kernel; ++kr) {
              const std::ptrdiff_t in_r =
                  static_cast<std::ptrdiff_t>(r * s.stride + kr) -
                  static_cast<std::ptrdiff_t>(s.pad);
              if (in_r < 0 || in_r >= static_cast<std::ptrdiff_t>(s.ih)) continue;
              for (std::size_t kc = 0; kc < s.kernel; ++kc) {
                const std::ptrdiff_t in_c =
                    static_cast<std::ptrdiff_t>(c * s.stride + kc) -
                    static_cast<std::ptrdiff_t>(s.pad);
                if (in_c < 0 || in_c >= static_cast<std::ptrdiff_t>(s.iw)) continue;
                const std::size_t xi = ((b * s.in_ch + ic) * s.ih +
                                        static_cast<std::size_t>(in_r)) * s.iw +
                                       static_cast<std::size_t>(in_c);
                const std::size_t wi =
                    ((oc * s.in_ch + ic) * s.kernel + kr) * s.kernel + kc;
                gw[wi] += g * x[xi];
                gx[xi] += g * w[wi];
              }
            }
          }
        }
      }
    }
  }
  return gx;
}

}  // namespace jwins::testref
