// Explicit-width SIMD primitives for the batched propagation kernels.
//
// Built on GCC/Clang vector extensions (no intrinsics headers, no
// external dependency): a 4-lane double vector plus the handful of
// elementwise operations SGP4 needs — select, sqrt, abs, min/max, a
// round-to-nearest-integer, and an argument-reduced sincos. On targets
// without wide registers the compiler lowers the 4-lane ops to pairs of
// narrower ones; hot leaf functions in the .cpp files additionally carry
// SINET_SIMD_TARGET_CLONES so the loader picks an AVX2/AVX-512 build of
// the same source when the host supports it.
//
// Accuracy: vsincos uses a 2-term Cody-Waite pi/2 reduction and the
// fdlibm kernel polynomials, giving ~1 ulp on the reduced argument and
// absolute error < 1e-12 rad for |x| < 1e5 — the angles SGP4 feeds it
// within 60 days of the epoch stay below ~6e3 rad. Every scan runs these
// helpers: the ephemeris table fill, the coarse visibility test and
// window refinement. Outputs keep the scalar code's bits because a lane
// value decides a comparison only under the lane certificate
// (orbit/sgp4_batch.h); every other comparison, and every returned
// value, comes from the scalar code. tests/test_refine.cpp and
// tests/test_ephemeris.cpp check those bits against scalar oracles.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstring>

// Function-multiversioning attribute for the SIMD leaf kernels: compile
// AVX2 / AVX-512 variants next to the baseline and dispatch at load time
// via ifunc. Only meaningful for out-of-line definitions on x86-64 ELF;
// expands to nothing elsewhere so the baseline build is the only one.
// ThreadSanitizer builds keep the baseline only: the loader runs ifunc
// resolvers before the TSan runtime is initialized, and such a binary
// crashes before main. SINET_SIMD_HAS_AVX_CLONES is defined when the
// clones are built.
#if defined(__x86_64__) && defined(__ELF__) && defined(__GNUC__) && \
    !defined(__clang__) && !defined(__SANITIZE_THREAD__)
#define SINET_SIMD_TARGET_CLONES \
  __attribute__((target_clones("default", "avx2", "arch=x86-64-v4")))
#define SINET_SIMD_HAS_AVX_CLONES 1
#else
#define SINET_SIMD_TARGET_CLONES
#endif

// Every helper below takes or returns vectors by value, so it must never
// become an out-of-line call from a multiversioned kernel: an AVX clone
// passes a 256-bit vector in a ymm register, while the baseline
// out-of-line copy of the same helper expects it in memory (and a vector
// return as a hidden pointer that shifts every argument by one
// register). Optimizers inline these anyway, but sanitizer builds may
// not, and then the two sides disagree about where the arguments are.
// Forcing inlining gives each clone its own copy.
#define SINET_SIMD_INLINE inline __attribute__((always_inline))

namespace sinet::orbit::simd {

/// Lanes per vector. 4 doubles = one 256-bit register where available.
inline constexpr std::size_t kLanes = 4;

// The explicit aligned(32) is load-bearing: without it, baseline x86-64
// TUs give these types 16-byte alignment while AVX-enabled target_clones
// variants assume (and use vmovapd on) 32. A Vd stored in a struct that
// crosses that boundary by reference — e.g. TopocentricFrameSoA built in
// a baseline TU, read by the v4 clone of fused_visibility — would then
// fault on the aligned load. Pinning the alignment makes every TU agree.
typedef double Vd
    __attribute__((vector_size(kLanes * sizeof(double)), aligned(32)));
typedef std::int64_t Vi
    __attribute__((vector_size(kLanes * sizeof(std::int64_t)), aligned(32)));

[[nodiscard]] SINET_SIMD_INLINE Vd broadcast(double x) noexcept {
  return Vd{x, x, x, x};
}

/// Lanewise select: mask lanes are all-ones (from a vector comparison)
/// or all-zeros; result takes `a` where set, `b` where clear.
[[nodiscard]] SINET_SIMD_INLINE Vd select(Vi mask, Vd a, Vd b) noexcept {
  Vi ai, bi;
  std::memcpy(&ai, &a, sizeof ai);
  std::memcpy(&bi, &b, sizeof bi);
  const Vi ri = (ai & mask) | (bi & ~mask);
  Vd r;
  std::memcpy(&r, &ri, sizeof r);
  return r;
}

[[nodiscard]] SINET_SIMD_INLINE bool any(Vi mask) noexcept {
  return (mask[0] | mask[1] | mask[2] | mask[3]) != 0;
}

[[nodiscard]] SINET_SIMD_INLINE bool all(Vi mask) noexcept {
  return (mask[0] & mask[1] & mask[2] & mask[3]) != 0;
}

[[nodiscard]] SINET_SIMD_INLINE Vd vabs(Vd x) noexcept {
  return select(x < broadcast(0.0), -x, x);
}

[[nodiscard]] SINET_SIMD_INLINE Vd vmin(Vd a, Vd b) noexcept {
  return select(a < b, a, b);
}

[[nodiscard]] SINET_SIMD_INLINE Vd vmax(Vd a, Vd b) noexcept {
  return select(a > b, a, b);
}

[[nodiscard]] SINET_SIMD_INLINE Vd vclamp(Vd x, double lo, double hi) noexcept {
  return vmin(vmax(x, broadcast(lo)), broadcast(hi));
}

/// Lanewise sqrt. A plain loop: with -fno-math-errno the compiler turns
/// it into the vector sqrt instruction; NaN for negative lanes, which the
/// batch kernels turn into per-lane error status.
[[nodiscard]] SINET_SIMD_INLINE Vd vsqrt(Vd x) noexcept {
  Vd r;
  for (std::size_t i = 0; i < kLanes; ++i) r[i] = std::sqrt(x[i]);
  return r;
}

/// Round to nearest integer (ties to even), returned as a double vector,
/// via the 2^52 + 2^51 shifter trick. Exact for |x| < 2^51 — far beyond
/// any reduction quotient the propagator produces.
[[nodiscard]] SINET_SIMD_INLINE Vd vround(Vd x) noexcept {
  const Vd shifter = broadcast(6755399441055744.0);  // 2^52 + 2^51
  const Vd biased = x + shifter;
  return biased - shifter;
}

/// Truncate the rounded quotient to its low 2 bits (sin/cos quadrant).
[[nodiscard]] SINET_SIMD_INLINE Vi quadrant(Vd n) noexcept {
  Vi q;
  for (std::size_t i = 0; i < kLanes; ++i)
    q[i] = static_cast<std::int64_t>(n[i]) & 3;
  return q;
}

namespace detail {
// fdlibm __kernel_sin / __kernel_cos minimax coefficients, |r| <= pi/4.
inline constexpr double kS1 = -1.66666666666666324348e-01;
inline constexpr double kS2 = 8.33333333332248946124e-03;
inline constexpr double kS3 = -1.98412698298579493134e-04;
inline constexpr double kS4 = 2.75573137070700676789e-06;
inline constexpr double kS5 = -2.50507602534068634195e-08;
inline constexpr double kS6 = 1.58969099521155010221e-10;
inline constexpr double kC1 = 4.16666666666666019037e-02;
inline constexpr double kC2 = -1.38888888888741095749e-03;
inline constexpr double kC3 = 2.48015872894767294178e-05;
inline constexpr double kC4 = -2.75573143513906633035e-07;
inline constexpr double kC5 = 2.08757232129817482790e-09;
inline constexpr double kC6 = -1.13596475577881948265e-11;
// Cody-Waite split of pi/2 (33 high bits + tail): n * kPio2Hi is exact
// for |n| < 2^20, so the reduction r = (x - n*hi) - n*lo loses almost
// nothing to rounding at SGP4's argument magnitudes.
inline constexpr double kPio2Hi = 1.57079632673412561417e+00;
inline constexpr double kPio2Lo = 6.07710050650619224932e-11;
inline constexpr double kTwoOverPi = 6.36619772367581382433e-01;
// Same idea for 2*pi (used by the lanewise angle wrap).
inline constexpr double kTwoPiHi = 6.28318530717958623200e+00;
inline constexpr double kTwoPiLo = 2.44929359829470641435e-16;

[[nodiscard]] SINET_SIMD_INLINE Vd sin_kernel(Vd r) noexcept {
  const Vd z = r * r;
  const Vd p =
      broadcast(kS1) +
      z * (broadcast(kS2) +
           z * (broadcast(kS3) +
                z * (broadcast(kS4) +
                     z * (broadcast(kS5) + z * broadcast(kS6)))));
  return r + r * z * p;
}

[[nodiscard]] SINET_SIMD_INLINE Vd cos_kernel(Vd r) noexcept {
  const Vd z = r * r;
  const Vd p =
      broadcast(kC1) +
      z * (broadcast(kC2) +
           z * (broadcast(kC3) +
                z * (broadcast(kC4) +
                     z * (broadcast(kC5) + z * broadcast(kC6)))));
  return broadcast(1.0) - z * broadcast(0.5) + z * z * p;
}
}  // namespace detail

/// Lanewise sin and cos of the same argument. One reduction, two kernel
/// polynomials, quadrant selection by the reduced quotient's low bits.
SINET_SIMD_INLINE void vsincos(Vd x, Vd* sin_out, Vd* cos_out) noexcept {
  using namespace detail;
  const Vd n = vround(x * broadcast(kTwoOverPi));
  const Vd r = (x - n * broadcast(kPio2Hi)) - n * broadcast(kPio2Lo);
  const Vd s = sin_kernel(r);
  const Vd c = cos_kernel(r);
  const Vi q = quadrant(n);
  const Vi odd = (q & 1) != 0;       // quadrant 1 or 3: swap sin/cos
  const Vi sneg = (q & 2) != 0;      // quadrant 2 or 3: sin flips
  const Vi cneg = ((q + 1) & 2) != 0;  // quadrant 1 or 2: cos flips
  const Vd s_swapped = select(odd, c, s);
  const Vd c_swapped = select(odd, s, c);
  *sin_out = select(sneg, -s_swapped, s_swapped);
  *cos_out = select(cneg, -c_swapped, c_swapped);
}

/// Lanewise wrap to [-pi, pi] (a 2*pi-shifted representative of the
/// scalar wrap_two_pi result — identical modulo 2*pi, which is all the
/// Kepler iteration consumes).
[[nodiscard]] SINET_SIMD_INLINE Vd vwrap_pi(Vd x) noexcept {
  using namespace detail;
  const Vd n = vround(x * broadcast(1.0 / kTwoPiHi));
  return (x - n * broadcast(kTwoPiHi)) - n * broadcast(kTwoPiLo);
}

}  // namespace sinet::orbit::simd
