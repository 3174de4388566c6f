// Accuracy tests for util/fastmath: the deterministic polynomials must stay
// within a few ulp of libm over the simulator's domain (specials included),
// and the OLS slope must recover a linear series.
#include "util/fastmath.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace rave::fastmath {
namespace {

constexpr size_t kRandomCount = 10000;
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

/// Random positive values log-uniform across the full normal range plus a
/// slice of the denormals.
std::vector<double> RandomPositive(uint64_t seed, size_t count) {
  Rng rng(seed);
  std::vector<double> v;
  v.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    if (i % 97 == 0) {
      // Random denormal.
      v.push_back(std::bit_cast<double>(
          static_cast<uint64_t>(rng.Next() & 0xFFFFFFFFFFFFFull)));
    } else {
      v.push_back(std::exp2(rng.NextDouble() * 2040.0 - 1020.0));
    }
  }
  return v;
}

/// Random exponents spanning the interesting exp2 range (incl. overflow
/// and underflow tails).
std::vector<double> RandomExponents(uint64_t seed, size_t count) {
  Rng rng(seed);
  std::vector<double> v;
  v.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    v.push_back(rng.NextDouble() * 2400.0 - 1200.0);
  }
  return v;
}

double UlpDiff(double a, double b) {
  if (a == b) return 0.0;
  const double ulp = std::ldexp(1.0, std::ilogb(b) - 52);
  return std::fabs(a - b) / ulp;
}

TEST(FastMath, Exp2MatchesLibmWithinUlp) {
  auto inputs = RandomExponents(0x5EED0001, kRandomCount);
  for (double x : inputs) {
    const double got = Exp2(x);
    const double want = std::exp2(x);
    if (want == 0.0 || std::isinf(want) ||
        std::fpclassify(want) == FP_SUBNORMAL) {
      // Underflow/overflow/subnormal: same class is enough (that path
      // rounds via ldexp, identically everywhere).
      EXPECT_EQ(std::fpclassify(got), std::fpclassify(want)) << "x=" << x;
    } else {
      EXPECT_LE(UlpDiff(got, want), 4.0) << "x=" << x;
    }
  }
}

TEST(FastMath, Log2MatchesLibmWithinUlp) {
  auto inputs = RandomPositive(0x5EED0002, kRandomCount);
  for (double x : inputs) {
    const double got = Log2(x);
    const double want = std::log2(x);
    if (want == 0.0) {
      EXPECT_EQ(got, want) << "x=" << x;
    } else {
      // log2 near 1 loses absolute precision in any non-fused scheme;
      // bound the absolute error by ulp(e)+poly error there.
      EXPECT_LE(std::fabs(got - want),
                std::max(4.0 * std::fabs(want) * 1e-16, 1e-15))
          << "x=" << x;
    }
  }
}

TEST(FastMath, ExpAndPowMatchLibm) {
  Rng rng(0x5EED0003);
  for (size_t i = 0; i < kRandomCount; ++i) {
    const double x = rng.NextDouble() * 1400.0 - 700.0;
    const double ew = std::exp(x);
    const double eg = Exp(x);
    if (ew == 0.0 || std::isinf(ew) || std::fpclassify(ew) == FP_SUBNORMAL) {
      EXPECT_EQ(std::fpclassify(eg), std::fpclassify(ew)) << "x=" << x;
    } else {
      // The single multiply in the x*log2e reduction (plus the rounded
      // log2e constant itself) costs absolute argument error proportional
      // to |x|, hence ~1.5*|x| ulp of relative result error. Tight for the
      // simulator's O(1) exponents (covered below), linear at the extremes.
      EXPECT_LE(UlpDiff(eg, ew), 8.0 + 1.5 * std::fabs(x)) << "x=" << x;
    }

    const double small = rng.NextDouble() * 8.0 - 4.0;  // lognormal-noise range
    EXPECT_LE(UlpDiff(Exp(small), std::exp(small)), 8.0) << "x=" << small;

    // Simulator-domain pow: bases spanning qscale/complexity/ratio ranges,
    // exponents like gamma, 1/gamma, ssim_beta, qcomp.
    const double base = std::exp2(rng.NextDouble() * 60.0 - 30.0);
    const double exponent = rng.NextDouble() * 6.0 - 3.0;
    const double pw = std::pow(base, exponent);
    const double pg = Pow(base, exponent);
    // Same error model: ~1 ulp of log2(base) amplified by the exponent and
    // the magnitude of t = exponent*log2(base).
    const double t = std::fabs(exponent * std::log2(base));
    EXPECT_LE(UlpDiff(pg, pw), 16.0 + 1.5 * t)
        << "base=" << base << " exp=" << exponent;
  }
}

TEST(FastMath, PowSpecialCases) {
  EXPECT_EQ(Pow(2.0, 0.0), 1.0);
  EXPECT_EQ(Pow(0.0, 0.0), 1.0);
  EXPECT_EQ(Pow(kNan, 0.0), 1.0);
  EXPECT_EQ(Pow(1.0, kNan), 1.0);
  EXPECT_EQ(Pow(1.0, kInf), 1.0);
  EXPECT_EQ(Pow(0.0, 2.0), 0.0);
  EXPECT_EQ(Pow(0.0, -2.0), kInf);
  EXPECT_EQ(Pow(kInf, 2.0), kInf);
  EXPECT_EQ(Pow(kInf, -2.0), 0.0);
  EXPECT_EQ(Pow(2.0, kInf), kInf);
  EXPECT_EQ(Pow(2.0, -kInf), 0.0);
  EXPECT_EQ(Pow(0.5, kInf), 0.0);
  EXPECT_TRUE(std::isnan(Pow(-2.0, 0.5)));
  EXPECT_TRUE(std::isnan(Pow(kNan, 1.0)));
  EXPECT_TRUE(std::isnan(Pow(2.0, kNan)));
}

TEST(FastMath, FitSlopeMatchesDirectRegression) {
  // A perfectly linear series recovers its slope almost exactly.
  std::vector<double> x;
  std::vector<double> y;
  for (int i = 0; i < 20; ++i) {
    x.push_back(5.0 * i);
    y.push_back(3.25 * x.back() + 7.0);
  }
  EXPECT_NEAR(FitSlope(x.data(), y.data(), x.size()), 3.25, 1e-12);
  // Degenerate x (zero variance) yields 0.
  std::fill(x.begin(), x.end(), 2.0);
  EXPECT_EQ(FitSlope(x.data(), y.data(), x.size()), 0.0);
}

}  // namespace
}  // namespace rave::fastmath
