#include "dwt/wavelet.hpp"

#include <stdexcept>

namespace jwins::dwt {

Wavelet make_wavelet(std::string name, std::vector<float> scaling_filter) {
  if (scaling_filter.size() < 2 || scaling_filter.size() % 2 != 0) {
    throw std::invalid_argument("wavelet scaling filter must have even length >= 2");
  }
  Wavelet w;
  w.name = std::move(name);
  w.lowpass = std::move(scaling_filter);
  const std::size_t len = w.lowpass.size();
  w.highpass.resize(len);
  for (std::size_t n = 0; n < len; ++n) {
    const float sign = (n % 2 == 0) ? 1.0f : -1.0f;
    w.highpass[n] = sign * w.lowpass[len - 1 - n];
  }
  return w;
}

Wavelet haar() {
  return make_wavelet("haar", {0.70710678118654752f, 0.70710678118654752f});
}

Wavelet db2() {
  return make_wavelet(
      "db2", {0.48296291314453416f, 0.83651630373780790f,
              0.22414386804185735f, -0.12940952255126037f});
}

Wavelet sym2() {
  Wavelet w = db2();
  w.name = "sym2";
  return w;
}

Wavelet db4() {
  return make_wavelet(
      "db4",
      {0.23037781330885523f, 0.71484657055254153f, 0.63088076792959036f,
       -0.02798376941698385f, -0.18703481171888114f, 0.03084138183598697f,
       0.03288301166698295f, -0.01059740178499728f});
}

Wavelet wavelet_by_name(const std::string& name) {
  if (name == "haar") return haar();
  if (name == "db2") return db2();
  if (name == "sym2") return sym2();
  if (name == "db4") return db4();
  throw std::invalid_argument("unknown wavelet: " + name);
}

}  // namespace jwins::dwt
