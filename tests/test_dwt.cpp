#include "dwt/dwt.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <random>

#include "dwt/wavelet.hpp"

namespace jwins::dwt {
namespace {

double energy(std::span<const float> v) {
  double e = 0.0;
  for (float x : v) e += static_cast<double>(x) * x;
  return e;
}

std::vector<float> random_signal(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::normal_distribution<float> dist(0.0f, 1.0f);
  std::vector<float> out(n);
  for (float& v : out) v = dist(rng);
  return out;
}

TEST(Wavelet, FiltersHaveUnitNormAndSqrt2Sum) {
  for (const char* name : {"haar", "db2", "sym2", "db4"}) {
    const Wavelet w = wavelet_by_name(name);
    double sum = 0.0, norm = 0.0, hsum = 0.0;
    for (float v : w.lowpass) {
      sum += v;
      norm += static_cast<double>(v) * v;
    }
    for (float v : w.highpass) hsum += v;
    EXPECT_NEAR(sum, std::sqrt(2.0), 1e-5) << name;
    EXPECT_NEAR(norm, 1.0, 1e-5) << name;
    EXPECT_NEAR(hsum, 0.0, 1e-5) << name;  // wavelet filter kills constants
  }
}

TEST(Wavelet, Sym2EqualsDb2) {
  const Wavelet a = db2();
  const Wavelet b = sym2();
  ASSERT_EQ(a.lowpass.size(), b.lowpass.size());
  for (std::size_t i = 0; i < a.lowpass.size(); ++i) {
    EXPECT_FLOAT_EQ(a.lowpass[i], b.lowpass[i]);
  }
}

TEST(Wavelet, QuadratureMirrorRelation) {
  const Wavelet w = db2();
  const std::size_t L = w.length();
  for (std::size_t n = 0; n < L; ++n) {
    const float sign = (n % 2 == 0) ? 1.0f : -1.0f;
    EXPECT_FLOAT_EQ(w.highpass[n], sign * w.lowpass[L - 1 - n]);
  }
}

TEST(Wavelet, UnknownNameThrows) {
  EXPECT_THROW(wavelet_by_name("db17"), std::invalid_argument);
}

TEST(AnalyzeLevel, HaarKnownValues) {
  // Haar: a[k] = (x[2k]+x[2k+1])/sqrt(2), d[k] = (x[2k]-x[2k+1])/sqrt(2).
  const Wavelet w = haar();
  const std::vector<float> x{1, 3, 2, 2};
  std::vector<float> a(2), d(2);
  analyze_level(w, x, a, d);
  const float s = std::sqrt(2.0f);
  EXPECT_NEAR(a[0], 4.0f / s, 1e-5f);
  EXPECT_NEAR(a[1], 4.0f / s, 1e-5f);
  EXPECT_NEAR(d[0], -2.0f / s, 1e-5f);
  EXPECT_NEAR(d[1], 0.0f, 1e-5f);
}

TEST(AnalyzeLevel, ConstantSignalHasZeroDetail) {
  for (const char* name : {"haar", "db2", "db4"}) {
    const Wavelet w = wavelet_by_name(name);
    const std::vector<float> x(16, 5.0f);
    std::vector<float> a(8), d(8);
    analyze_level(w, x, a, d);
    for (float v : d) EXPECT_NEAR(v, 0.0f, 1e-5f) << name;
    // Approximation of a constant is sqrt(2)*constant.
    for (float v : a) EXPECT_NEAR(v, 5.0f * std::sqrt(2.0f), 1e-5f) << name;
  }
}

TEST(AnalyzeLevel, OddLengthThrows) {
  const Wavelet w = haar();
  const std::vector<float> x(5, 1.0f);
  std::vector<float> a(2), d(2);
  EXPECT_THROW(analyze_level(w, x, a, d), std::invalid_argument);
}

TEST(SynthesizeLevel, InvertsAnalyze) {
  const Wavelet w = db2();
  const std::vector<float> x = random_signal(32, 11);
  std::vector<float> a(16), d(16), back(32);
  analyze_level(w, x, a, d);
  synthesize_level(w, a, d, back);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_NEAR(back[i], x[i], 1e-4f);
}

struct PlanCase {
  const char* wavelet;
  std::size_t length;
  std::size_t levels;
};

// Without this, gtest prints the raw bytes of the case, including the
// wavelet-name pointer, so the discovered test names change with every
// address-space layout.
void PrintTo(const PlanCase& c, std::ostream* os) {
  *os << c.wavelet << '/' << c.length << '/' << c.levels;
}

class DwtPlanParam : public ::testing::TestWithParam<PlanCase> {};

TEST_P(DwtPlanParam, PerfectReconstruction) {
  const auto [name, length, levels] = GetParam();
  const DwtPlan plan(wavelet_by_name(name), length, levels);
  const std::vector<float> x = random_signal(length, 13);
  DwtWorkspace ws;
  std::vector<float> coeffs(plan.coeff_length()), back(length);
  plan.forward_into(x, coeffs, ws);
  plan.inverse_into(coeffs, back, ws);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(back[i], x[i], 2e-4f) << "i=" << i;
  }
}

TEST_P(DwtPlanParam, EnergyPreservedForEvenPowerLengths) {
  const auto [name, length, levels] = GetParam();
  // Parseval holds exactly when no zero-padding happens (even at each level).
  std::size_t len = length;
  bool clean = true;
  for (std::size_t l = 0; l < levels && len >= 2; ++l) {
    if (len % 2 != 0) clean = false;
    len = (len + len % 2) / 2;
  }
  if (!clean) GTEST_SKIP() << "padding breaks exact Parseval";
  const DwtPlan plan(wavelet_by_name(name), length, levels);
  const std::vector<float> x = random_signal(length, 17);
  DwtWorkspace ws;
  std::vector<float> coeffs(plan.coeff_length());
  plan.forward_into(x, coeffs, ws);
  EXPECT_NEAR(energy(coeffs) / energy(x), 1.0, 1e-3);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, DwtPlanParam,
    ::testing::Values(PlanCase{"haar", 16, 2}, PlanCase{"haar", 64, 4},
                      PlanCase{"db2", 16, 2}, PlanCase{"db2", 64, 4},
                      PlanCase{"db2", 100, 4}, PlanCase{"db2", 101, 4},
                      PlanCase{"db2", 1000, 4}, PlanCase{"sym2", 4096, 4},
                      PlanCase{"db4", 64, 3}, PlanCase{"db4", 250, 4},
                      PlanCase{"db2", 7, 4}, PlanCase{"db2", 2, 1},
                      PlanCase{"db2", 37, 2}, PlanCase{"haar", 1024, 8}));

TEST(DwtPlan, LevelsClampedForShortSignals) {
  const DwtPlan plan(db2(), 4, 10);
  // 4 -> 2 -> 1: only two levels are achievable.
  EXPECT_EQ(plan.levels(), 2u);
}

TEST(DwtPlan, CoeffLengthMatchesBands) {
  const DwtPlan plan(db2(), 64, 4);
  // 64 -> 32 -> 16 -> 8 -> 4: bands a4(4), d4(4), d3(8), d2(16), d1(32).
  EXPECT_EQ(plan.levels(), 4u);
  EXPECT_EQ(plan.coeff_length(), 64u);
  EXPECT_EQ(plan.band_length(0), 4u);
  EXPECT_EQ(plan.band_length(1), 4u);
  EXPECT_EQ(plan.band_length(2), 8u);
  EXPECT_EQ(plan.band_length(3), 16u);
  EXPECT_EQ(plan.band_length(4), 32u);
  EXPECT_EQ(plan.band_offset(0), 0u);
  EXPECT_EQ(plan.band_offset(4), 32u);
}

TEST(DwtPlan, BandOfMapsOffsets) {
  const DwtPlan plan(db2(), 64, 4);
  EXPECT_EQ(plan.band_of(0), 0u);
  EXPECT_EQ(plan.band_of(3), 0u);
  EXPECT_EQ(plan.band_of(4), 1u);
  EXPECT_EQ(plan.band_of(31), 3u);
  EXPECT_EQ(plan.band_of(32), 4u);
  EXPECT_EQ(plan.band_of(63), 4u);
  EXPECT_THROW(plan.band_of(64), std::out_of_range);
}

TEST(DwtPlan, ConstantSignalConcentratesInApproximation) {
  const DwtPlan plan(db2(), 64, 4);
  const std::vector<float> x(64, 1.0f);
  DwtWorkspace ws;
  std::vector<float> coeffs(plan.coeff_length());
  plan.forward_into(x, coeffs, ws);
  // All detail bands ~0; energy lives in band 0.
  double detail_energy = 0.0;
  for (std::size_t i = plan.band_offset(1); i < coeffs.size(); ++i) {
    detail_energy += static_cast<double>(coeffs[i]) * coeffs[i];
  }
  EXPECT_NEAR(detail_energy, 0.0, 1e-6);
  EXPECT_NEAR(energy(coeffs), energy(x), 1e-3);
}

TEST(DwtPlan, SmoothSignalCompacts) {
  // Energy compaction: for a smooth signal, the largest 25% of wavelet
  // coefficients should hold nearly all energy — this is exactly why JWINS
  // ranks in the wavelet domain.
  const std::size_t n = 256;
  std::vector<float> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = std::sin(2.0f * 3.14159265f * static_cast<float>(i) / 64.0f);
  }
  const DwtPlan plan(db2(), n, 4);
  DwtWorkspace ws;
  std::vector<float> coeffs(plan.coeff_length());
  plan.forward_into(x, coeffs, ws);
  std::vector<float> mags(coeffs.size());
  for (std::size_t i = 0; i < coeffs.size(); ++i) mags[i] = std::fabs(coeffs[i]);
  std::sort(mags.rbegin(), mags.rend());
  double top = 0.0, total = 0.0;
  for (std::size_t i = 0; i < mags.size(); ++i) {
    const double e = static_cast<double>(mags[i]) * mags[i];
    total += e;
    if (i < mags.size() / 4) top += e;
  }
  EXPECT_GT(top / total, 0.98);
}

TEST(DwtPlan, ForwardIntoValidatesSizes) {
  const DwtPlan plan(db2(), 64, 4);
  DwtWorkspace ws;
  std::vector<float> x(63), coeffs(plan.coeff_length());
  EXPECT_THROW(plan.forward_into(x, coeffs, ws), std::invalid_argument);
  x.resize(64);
  coeffs.resize(plan.coeff_length() - 1);
  EXPECT_THROW(plan.forward_into(x, coeffs, ws), std::invalid_argument);
}

TEST(DwtPlan, EmptySignalThrows) {
  EXPECT_THROW(DwtPlan(db2(), 0, 4), std::invalid_argument);
}

TEST(DwtPlan, LinearityOfTransform) {
  // JWINS relies on T(a) - T(b) == T(a - b) for the eq.(3)/(4) bookkeeping.
  const std::size_t n = 100;
  const auto a = random_signal(n, 1);
  const auto b = random_signal(n, 2);
  const DwtPlan plan(db2(), n, 4);
  DwtWorkspace ws;
  std::vector<float> ta(plan.coeff_length()), tb(plan.coeff_length()),
      tdiff(plan.coeff_length());
  plan.forward_into(a, ta, ws);
  plan.forward_into(b, tb, ws);
  std::vector<float> diff(n);
  for (std::size_t i = 0; i < n; ++i) diff[i] = a[i] - b[i];
  plan.forward_into(diff, tdiff, ws);
  for (std::size_t i = 0; i < tdiff.size(); ++i) {
    EXPECT_NEAR(tdiff[i], ta[i] - tb[i], 1e-4f);
  }
}

}  // namespace
}  // namespace jwins::dwt
