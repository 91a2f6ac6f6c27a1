#include "nn/conv.hpp"

#include <algorithm>
#include <cmath>
#include <experimental/simd>
#include <limits>
#include <stdexcept>
#include <vector>

namespace jwins::nn {

namespace {

std::size_t conv_out_size(std::size_t in, std::size_t kernel, std::size_t stride,
                          std::size_t pad) {
  if (in + 2 * pad < kernel) {
    throw std::invalid_argument("convolution kernel larger than padded input");
  }
  return (in + 2 * pad - kernel) / stride + 1;
}

// Conv2d kernels --------------------------------------------------------------
// Every output element adds the same terms, in the same order and precision,
// as the direct 7-deep loops (kept as tests/conv_reference.hpp). What the
// kernels change is which elements are computed side by side: a fixed-width
// std::experimental::simd holds one accumulator per lane, and lanes never
// add into each other. Padding bounds are resolved per pixel, outside the
// lane loops.

namespace stdx = std::experimental;

// Output channels per block in the forward and weight-gradient kernels, and
// batch items per block in the input-gradient kernel. A partial last block
// runs its unused lanes on zero weights or zero gradients and drops them.
constexpr std::size_t kChannelLanes = 8;
constexpr std::size_t kBatchLanes = 16;

using ChannelsF64 = stdx::fixed_size_simd<double, kChannelLanes>;
using ChannelsF32 = stdx::fixed_size_simd<float, kChannelLanes>;
using BatchF32 = stdx::fixed_size_simd<float, kBatchLanes>;

std::size_t round_up(std::size_t n, std::size_t lanes) {
  return (n + lanes - 1) / lanes * lanes;
}

// Per-call copies in lane-blocked layouts, shared by all Conv2d layers on a
// thread: a resident model holds none of them.
struct ConvScratch {
  std::vector<double> weights;      // forward: [blk][ic][kr][kc][lane]
  std::vector<float> weight_grads;  // one grad_weight block, [ic][kr][kc][lane]
  std::vector<float> batch_grads;   // grad_output as [oc][r][c][b]
};

ConvScratch& scratch() {
  thread_local ConvScratch s;
  return s;
}

// One Conv2d call's geometry over [B, C, H, W] tensors.
struct ConvShape {
  std::size_t batch, in_ch, out_ch, ih, iw, oh, ow, kernel, stride, pad;
  std::size_t taps() const { return in_ch * kernel * kernel; }
};

ConvShape conv_shape(const Tensor& input, std::size_t out_ch, std::size_t kernel,
                     std::size_t stride, std::size_t pad) {
  const std::size_t ih = input.dim(2), iw = input.dim(3);
  return {input.dim(0), input.dim(1), out_ch, ih, iw,
          conv_out_size(ih, kernel, stride, pad),
          conv_out_size(iw, kernel, stride, pad), kernel, stride, pad};
}

// Kernel offsets [lo, hi) whose input coordinate out * stride + k - pad lies
// inside [0, in): the taps of output coordinate `out` that are not padding.
struct TapRange {
  std::size_t lo, hi;
};

TapRange tap_range(std::size_t out, std::size_t in, std::size_t kernel,
                   std::size_t stride, std::size_t pad) {
  const std::size_t origin = out * stride;  // input coordinate + pad of k = 0
  const std::size_t lo = origin < pad ? pad - origin : 0;
  const std::size_t hi =
      origin < in + pad ? std::min(kernel, in + pad - origin) : 0;
  return {lo, std::max(lo, hi)};
}

// The output coordinates that read input coordinate `in`, in increasing
// order: out = first_out + i reads it through kernel offset
// first_k - i * stride, for i in [0, count).
struct Reach {
  std::size_t first_out, count, first_k;
};

Reach reach(std::size_t in, std::size_t outs, std::size_t kernel,
            std::size_t stride, std::size_t pad) {
  // out reads `in` when 0 <= in + pad - out * stride < kernel.
  const std::size_t t = in + pad;
  const std::size_t first =
      t + 1 > kernel ? (t + 1 - kernel + stride - 1) / stride : 0;
  const std::size_t last_plus_one = std::min(t / stride + 1, outs);
  if (last_plus_one <= first) return {0, 0, 0};
  return {first, last_plus_one - first, t - first * stride};
}

// y = conv(x, w) + bias, kChannelLanes output channels of one pixel at a
// time: each lane starts at its bias and adds the (ic, kr, kc) taps in
// order, in double.
void conv_forward(const ConvShape& s, const float* x, const float* w,
                  const float* bias, float* y) {
  const std::size_t taps = s.taps();
  const std::size_t blocks = round_up(s.out_ch, kChannelLanes) / kChannelLanes;
  std::vector<double>& wt = scratch().weights;
  wt.resize(blocks * taps * kChannelLanes);
  for (std::size_t blk = 0; blk < blocks; ++blk) {
    for (std::size_t t = 0; t < taps; ++t) {
      for (std::size_t l = 0; l < kChannelLanes; ++l) {
        const std::size_t oc = blk * kChannelLanes + l;
        wt[(blk * taps + t) * kChannelLanes + l] =
            oc < s.out_ch ? w[oc * taps + t] : 0.0;
      }
    }
  }
  for (std::size_t b = 0; b < s.batch; ++b) {
    for (std::size_t r = 0; r < s.oh; ++r) {
      const TapRange rows = tap_range(r, s.ih, s.kernel, s.stride, s.pad);
      for (std::size_t c = 0; c < s.ow; ++c) {
        const TapRange cols = tap_range(c, s.iw, s.kernel, s.stride, s.pad);
        for (std::size_t blk = 0; blk < blocks; ++blk) {
          const std::size_t oc0 = blk * kChannelLanes;
          const std::size_t lanes = std::min(kChannelLanes, s.out_ch - oc0);
          ChannelsF64 acc([&](std::size_t l) {
            return l < lanes ? static_cast<double>(bias[oc0 + l]) : 0.0;
          });
          for (std::size_t ic = 0; ic < s.in_ch; ++ic) {
            for (std::size_t kr = rows.lo; kr < rows.hi; ++kr) {
              const std::size_t in_r = r * s.stride + kr - s.pad;
              const float* xrow = x + ((b * s.in_ch + ic) * s.ih + in_r) * s.iw;
              const std::size_t tap0 = (ic * s.kernel + kr) * s.kernel;
              const double* wrow = wt.data() + (blk * taps + tap0) * kChannelLanes;
              for (std::size_t kc = cols.lo; kc < cols.hi; ++kc) {
                const ChannelsF64 wl(wrow + kc * kChannelLanes, stdx::element_aligned);
                acc += static_cast<double>(xrow[c * s.stride + kc - s.pad]) * wl;
              }
            }
          }
          for (std::size_t l = 0; l < lanes; ++l) {
            y[((b * s.out_ch + oc0 + l) * s.oh + r) * s.ow + c] =
                static_cast<float>(acc[l]);
          }
        }
      }
    }
  }
}

// gw += the weight gradient and gb += the bias gradient, kChannelLanes
// output channels at a time. Output pixels go in (b, r, c) order and each
// one updates every tap's accumulators, so every element adds its terms in
// (b, r, c) order, in float. A zero gradient's term becomes -0.0f, and adding
// -0.0f leaves any float unchanged (-0 + -0 = -0, +0 + -0 = +0): the term is
// skipped exactly. (The -0.0f is the blend's base, not its assigned value:
// libstdc++ turns `where(k, v) = 0.0f` into a +0.0f fill for either zero.)
void conv_weight_grad(const ConvShape& s, const float* x, const float* gy,
                      float* gw, float* gb) {
  const std::size_t taps = s.taps();
  const std::size_t plane = s.oh * s.ow;
  std::vector<float>& acc_w = scratch().weight_grads;  // [ic][kr][kc][lane]
  acc_w.resize(taps * kChannelLanes);
  for (std::size_t oc0 = 0; oc0 < s.out_ch; oc0 += kChannelLanes) {
    const std::size_t lanes = std::min(kChannelLanes, s.out_ch - oc0);
    for (std::size_t t = 0; t < taps; ++t) {
      for (std::size_t l = 0; l < kChannelLanes; ++l) {
        acc_w[t * kChannelLanes + l] = l < lanes ? gw[(oc0 + l) * taps + t] : 0.0f;
      }
    }
    ChannelsF32 acc_b([&](std::size_t l) { return l < lanes ? gb[oc0 + l] : 0.0f; });
    for (std::size_t b = 0; b < s.batch; ++b) {
      const float* gyb = gy + (b * s.out_ch + oc0) * plane;
      for (std::size_t r = 0; r < s.oh; ++r) {
        const TapRange rows = tap_range(r, s.ih, s.kernel, s.stride, s.pad);
        for (std::size_t c = 0; c < s.ow; ++c) {
          const TapRange cols = tap_range(c, s.iw, s.kernel, s.stride, s.pad);
          const ChannelsF32 g([&](std::size_t l) {
            return l < lanes ? gyb[l * plane + r * s.ow + c] : 0.0f;
          });
          const auto nonzero = g != 0.0f;
          ChannelsF32 bias_term = -0.0f;
          where(nonzero, bias_term) = g;
          acc_b += bias_term;
          for (std::size_t ic = 0; ic < s.in_ch; ++ic) {
            for (std::size_t kr = rows.lo; kr < rows.hi; ++kr) {
              const std::size_t in_r = r * s.stride + kr - s.pad;
              const float* xrow = x + ((b * s.in_ch + ic) * s.ih + in_r) * s.iw;
              const std::size_t tap0 = (ic * s.kernel + kr) * s.kernel;
              float* arow = acc_w.data() + tap0 * kChannelLanes;
              for (std::size_t kc = cols.lo; kc < cols.hi; ++kc) {
                float* al = arow + kc * kChannelLanes;
                ChannelsF32 term = -0.0f;
                where(nonzero, term) = g * xrow[c * s.stride + kc - s.pad];
                term = ChannelsF32(al, stdx::element_aligned) + term;
                term.copy_to(al, stdx::element_aligned);
              }
            }
          }
        }
      }
    }
    for (std::size_t l = 0; l < lanes; ++l) {
      gb[oc0 + l] = acc_b[l];
      for (std::size_t t = 0; t < taps; ++t) {
        gw[(oc0 + l) * taps + t] = acc_w[t * kChannelLanes + l];
      }
    }
  }
}

// gx = the input gradient: a transposed convolution gathered per input pixel
// with kBatchLanes batch items side by side, which share every tap and
// weight. Each element starts at +0.0f and adds its terms in (oc, r, c)
// order, in float. A zero gradient's term needs no mask while the weight is
// finite: it is then +-0.0f, and an accumulator that starts at +0.0f never
// becomes -0.0f under round-to-nearest, so adding +-0.0f to it changes
// nothing, exactly as skipping the term does.
void conv_input_grad(const ConvShape& s, const float* w, const float* gy,
                     float* gx) {
  const std::size_t plane = s.oh * s.ow;
  const std::size_t bpad = round_up(s.batch, kBatchLanes);
  std::vector<float>& gt = scratch().batch_grads;
  gt.resize(s.out_ch * plane * bpad);
  for (std::size_t oc = 0; oc < s.out_ch; ++oc) {
    for (std::size_t px = 0; px < plane; ++px) {
      for (std::size_t b = 0; b < bpad; ++b) {
        gt[(oc * plane + px) * bpad + b] =
            b < s.batch ? gy[(b * s.out_ch + oc) * plane + px] : 0.0f;
      }
    }
  }
  const std::size_t kk = s.kernel * s.kernel;
  for (std::size_t ir = 0; ir < s.ih; ++ir) {
    const Reach rows = reach(ir, s.oh, s.kernel, s.stride, s.pad);
    for (std::size_t icol = 0; icol < s.iw; ++icol) {
      const Reach cols = reach(icol, s.ow, s.kernel, s.stride, s.pad);
      for (std::size_t ic = 0; ic < s.in_ch; ++ic) {
        for (std::size_t b0 = 0; b0 < s.batch; b0 += kBatchLanes) {
          BatchF32 acc = 0.0f;
          for (std::size_t oc = 0; oc < s.out_ch; ++oc) {
            const float* wk = w + (oc * s.in_ch + ic) * kk;
            const float* gplane = gt.data() + oc * plane * bpad + b0;
            for (std::size_t i = 0; i < rows.count; ++i) {
              const std::size_t r = rows.first_out + i;
              const float* wrow = wk + (rows.first_k - i * s.stride) * s.kernel;
              for (std::size_t j = 0; j < cols.count; ++j) {
                const std::size_t c = cols.first_out + j;
                const float wv = wrow[cols.first_k - j * s.stride];
                const float* gp = gplane + (r * s.ow + c) * bpad;
                const BatchF32 g(gp, stdx::element_aligned);
                BatchF32 term = g * wv;
                // 0 * inf is NaN: skip the term for real.
                if (!std::isfinite(wv)) where(g == 0.0f, term) = 0.0f;
                acc += term;
              }
            }
          }
          for (std::size_t l = 0; l < std::min(kBatchLanes, s.batch - b0); ++l) {
            gx[(((b0 + l) * s.in_ch + ic) * s.ih + ir) * s.iw + icol] = acc[l];
          }
        }
      }
    }
  }
}

}  // namespace

Conv2d::Conv2d(std::size_t in_channels, std::size_t out_channels,
               std::size_t kernel, std::size_t stride, std::size_t padding,
               std::mt19937& rng)
    : in_ch_(in_channels),
      out_ch_(out_channels),
      kernel_(kernel),
      stride_(stride),
      pad_(padding),
      weight_({out_channels, in_channels, kernel, kernel}),
      bias_({out_channels}),
      grad_weight_({out_channels, in_channels, kernel, kernel}),
      grad_bias_({out_channels}) {
  if (kernel == 0 || stride == 0) {
    throw std::invalid_argument("Conv2d: kernel and stride must be positive");
  }
  const float fan_in = static_cast<float>(in_channels * kernel * kernel);
  const float bound = 1.0f / std::sqrt(fan_in);
  weight_ = Tensor::uniform(weight_.shape(), -bound, bound, rng);
  bias_ = Tensor::uniform({out_channels}, -bound, bound, rng);
}

Tensor Conv2d::forward(const Tensor& input) {
  if (input.rank() != 4 || input.dim(1) != in_ch_) {
    throw std::invalid_argument("Conv2d: expected [B, " + std::to_string(in_ch_) +
                                ", H, W], got " + tensor::to_string(input.shape()));
  }
  cached_input_ = input;
  const ConvShape s = conv_shape(input, out_ch_, kernel_, stride_, pad_);
  Tensor out({s.batch, out_ch_, s.oh, s.ow});
  conv_forward(s, input.raw(), weight_.raw(), bias_.raw(), out.raw());
  return out;
}

Tensor Conv2d::backward(const Tensor& grad_output) {
  accumulate_grads(grad_output);
  const ConvShape s =
      conv_shape(cached_input_, out_ch_, kernel_, stride_, pad_);
  Tensor grad_input(cached_input_.shape());
  conv_input_grad(s, weight_.raw(), grad_output.raw(), grad_input.raw());
  return grad_input;
}

void Conv2d::accumulate_grads(const Tensor& grad_output) {
  if (cached_input_.rank() != 4) {
    throw std::invalid_argument("Conv2d::backward: called before forward");
  }
  const ConvShape s =
      conv_shape(cached_input_, out_ch_, kernel_, stride_, pad_);
  if (grad_output.rank() != 4 || grad_output.dim(0) != s.batch ||
      grad_output.dim(1) != out_ch_ || grad_output.dim(2) != s.oh ||
      grad_output.dim(3) != s.ow) {
    throw std::invalid_argument(
        "Conv2d::backward: expected grad " +
        tensor::to_string({s.batch, out_ch_, s.oh, s.ow}) + ", got " +
        tensor::to_string(grad_output.shape()));
  }
  conv_weight_grad(s, cached_input_.raw(), grad_output.raw(), grad_weight_.raw(),
                   grad_bias_.raw());
}

MaxPool2d::MaxPool2d(std::size_t kernel, std::size_t stride)
    : kernel_(kernel), stride_(stride) {
  if (kernel == 0 || stride == 0) {
    throw std::invalid_argument("MaxPool2d: kernel and stride must be positive");
  }
}

Tensor MaxPool2d::forward(const Tensor& input) {
  if (input.rank() != 4) {
    throw std::invalid_argument("MaxPool2d: expected [B, C, H, W]");
  }
  cached_in_shape_ = input.shape();
  const std::size_t batch = input.dim(0), ch = input.dim(1), ih = input.dim(2),
                    iw = input.dim(3);
  const std::size_t oh = conv_out_size(ih, kernel_, stride_, 0);
  const std::size_t ow = conv_out_size(iw, kernel_, stride_, 0);
  Tensor out({batch, ch, oh, ow});
  argmax_.assign(out.size(), 0);
  const float* x = input.raw();
  float* y = out.raw();
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t cch = 0; cch < ch; ++cch) {
      for (std::size_t r = 0; r < oh; ++r) {
        for (std::size_t c = 0; c < ow; ++c) {
          float best = -std::numeric_limits<float>::infinity();
          std::size_t best_idx = 0;
          for (std::size_t kr = 0; kr < kernel_; ++kr) {
            const std::size_t in_r = r * stride_ + kr;
            if (in_r >= ih) continue;
            for (std::size_t kc = 0; kc < kernel_; ++kc) {
              const std::size_t in_c = c * stride_ + kc;
              if (in_c >= iw) continue;
              const std::size_t xi = ((b * ch + cch) * ih + in_r) * iw + in_c;
              if (x[xi] > best) {
                best = x[xi];
                best_idx = xi;
              }
            }
          }
          const std::size_t yi = ((b * ch + cch) * oh + r) * ow + c;
          y[yi] = best;
          argmax_[yi] = best_idx;
        }
      }
    }
  }
  return out;
}

Tensor MaxPool2d::backward(const Tensor& grad_output) {
  if (grad_output.size() != argmax_.size()) {
    throw std::invalid_argument("MaxPool2d::backward: grad shape mismatch");
  }
  Tensor grad_input(cached_in_shape_);
  float* gx = grad_input.raw();
  const float* gy = grad_output.raw();
  for (std::size_t i = 0; i < argmax_.size(); ++i) gx[argmax_[i]] += gy[i];
  return grad_input;
}

GroupNorm::GroupNorm(std::size_t groups, std::size_t channels, float eps)
    : groups_(groups),
      channels_(channels),
      eps_(eps),
      gamma_({channels}, 1.0f),
      beta_({channels}),
      grad_gamma_({channels}),
      grad_beta_({channels}) {
  if (groups == 0 || channels % groups != 0) {
    throw std::invalid_argument("GroupNorm: channels must be divisible by groups");
  }
}

Tensor GroupNorm::forward(const Tensor& input) {
  if (input.rank() != 4 || input.dim(1) != channels_) {
    throw std::invalid_argument("GroupNorm: expected [B, " +
                                std::to_string(channels_) + ", H, W]");
  }
  cached_in_shape_ = input.shape();
  const std::size_t batch = input.dim(0), h = input.dim(2), w = input.dim(3);
  const std::size_t ch_per_group = channels_ / groups_;
  const std::size_t group_size = ch_per_group * h * w;
  Tensor xhat(input.shape());
  cached_inv_std_.assign(batch * groups_, 0.0f);
  const float* x = input.raw();
  float* xh = xhat.raw();
  Tensor out(input.shape());
  float* y = out.raw();
  const float* gamma = gamma_.raw();
  const float* beta = beta_.raw();
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t g = 0; g < groups_; ++g) {
      const std::size_t base = (b * channels_ + g * ch_per_group) * h * w;
      double mean = 0.0;
      for (std::size_t i = 0; i < group_size; ++i) mean += x[base + i];
      mean /= static_cast<double>(group_size);
      double var = 0.0;
      for (std::size_t i = 0; i < group_size; ++i) {
        const double d = x[base + i] - mean;
        var += d * d;
      }
      var /= static_cast<double>(group_size);
      const float inv_std = 1.0f / std::sqrt(static_cast<float>(var) + eps_);
      cached_inv_std_[b * groups_ + g] = inv_std;
      for (std::size_t i = 0; i < group_size; ++i) {
        xh[base + i] = (x[base + i] - static_cast<float>(mean)) * inv_std;
      }
      for (std::size_t cc = 0; cc < ch_per_group; ++cc) {
        const std::size_t ch = g * ch_per_group + cc;
        const std::size_t coff = (b * channels_ + ch) * h * w;
        const float gm = gamma[ch], bt = beta[ch];
        for (std::size_t i = 0; i < h * w; ++i) {
          y[coff + i] = gm * xh[coff + i] + bt;
        }
      }
    }
  }
  cached_xhat_ = std::move(xhat);
  return out;
}

Tensor GroupNorm::backward(const Tensor& grad_output) {
  const std::size_t batch = cached_in_shape_[0], h = cached_in_shape_[2],
                    w = cached_in_shape_[3];
  const std::size_t ch_per_group = channels_ / groups_;
  const std::size_t group_size = ch_per_group * h * w;
  Tensor grad_input(cached_in_shape_);
  const float* gy = grad_output.raw();
  const float* xh = cached_xhat_.raw();
  float* gx = grad_input.raw();
  const float* gamma = gamma_.raw();
  float* grad_gamma = grad_gamma_.raw();
  float* grad_beta = grad_beta_.raw();
  // Per-channel affine gradients.
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t ch = 0; ch < channels_; ++ch) {
      const std::size_t coff = (b * channels_ + ch) * h * w;
      float sum_g = grad_gamma[ch], sum_b = grad_beta[ch];
      for (std::size_t i = 0; i < h * w; ++i) {
        sum_g += gy[coff + i] * xh[coff + i];
        sum_b += gy[coff + i];
      }
      grad_gamma[ch] = sum_g;
      grad_beta[ch] = sum_b;
    }
  }
  // Input gradient. With dxhat = gy * gamma(channel):
  // dx = inv_std * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)).
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t g = 0; g < groups_; ++g) {
      const float inv_std = cached_inv_std_[b * groups_ + g];
      double sum_dxhat = 0.0, sum_dxhat_xhat = 0.0;
      for (std::size_t cc = 0; cc < ch_per_group; ++cc) {
        const std::size_t ch = g * ch_per_group + cc;
        const std::size_t coff = (b * channels_ + ch) * h * w;
        const double gm = gamma[ch];
        for (std::size_t i = 0; i < h * w; ++i) {
          const double dxhat = gy[coff + i] * gm;
          sum_dxhat += dxhat;
          sum_dxhat_xhat += dxhat * xh[coff + i];
        }
      }
      const double m = static_cast<double>(group_size);
      const double mean_dxhat = sum_dxhat / m;
      const double mean_dxhat_xhat = sum_dxhat_xhat / m;
      for (std::size_t cc = 0; cc < ch_per_group; ++cc) {
        const std::size_t ch = g * ch_per_group + cc;
        const std::size_t coff = (b * channels_ + ch) * h * w;
        const double gm = gamma[ch];
        for (std::size_t i = 0; i < h * w; ++i) {
          const double dxhat = gy[coff + i] * gm;
          gx[coff + i] = static_cast<float>(
              inv_std * (dxhat - mean_dxhat - xh[coff + i] * mean_dxhat_xhat));
        }
      }
    }
  }
  return grad_input;
}

}  // namespace jwins::nn
