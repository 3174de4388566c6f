// Deterministic math kernels: exp2/log2/exp/pow as fixed polynomials, and
// the ordinary-least-squares slope the trendline estimator fits.
//
// libm is not used for these because its last-ulp results differ between
// implementations and versions; the simulator's output bytes (and the
// result-cache keys built on them) must be the same on every host. These
// kernels run one fixed IEEE-754 operation sequence instead. Every function
// is out-of-line in fastmath.cpp, which is compiled with -ffp-contract=off,
// so no caller's optimization or contraction flags can fuse a mul/add pair
// into an fma and change a bit.
//
// Accuracy: within a few ulp of correctly rounded across the simulator's
// domain (util_fastmath_test bounds the error against libm). Pow(x, y)
// returns NaN for x < 0; the simulator has no negative bases.
//
// The kernels assume the default FP environment (round-to-nearest-even,
// no denormal flushing); nothing in the simulator changes it.
#pragma once

#include <cstddef>

namespace rave::fastmath {

/// 2^x.
double Exp2(double x);
/// log2(x).
double Log2(double x);
/// e^x.
double Exp(double x);
/// x^y (NaN for negative bases; exactly 1 when y == 0 or x == 1).
double Pow(double x, double y);

/// Ordinary-least-squares slope of y over x[0..n): two passes (sums, then
/// mean-centered products), plain mul/add. 0.0 when the denominator is
/// degenerate.
double FitSlope(const double* x, const double* y, size_t n);

}  // namespace rave::fastmath
