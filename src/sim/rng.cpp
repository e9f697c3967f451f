#include "sim/rng.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace sinet::sim {

namespace {

// Inverse of the standard normal CDF: Wichura's algorithm AS241,
// routine PPND16 (Applied Statistics 37, 1988). Absolute error below
// ~1e-15 over (0, 1); an explicit rational approximation, so the draw
// sequence does not depend on which standard library implements
// std::normal_distribution.
double inverse_normal_cdf(double p) {
  const double q = p - 0.5;
  if (std::abs(q) <= 0.425) {
    const double r = 0.180625 - q * q;
    return q *
           (((((((2.5090809287301226727e3 * r + 3.3430575583588128105e4) * r +
                 6.7265770927008700853e4) * r + 4.5921953931549871457e4) * r +
               1.3731693765509461125e4) * r + 1.9715909503065514427e3) * r +
             1.3314166789178437745e2) * r + 3.3871328727963666080e0) /
           (((((((5.2264952788528545610e3 * r + 2.8729085735721942674e4) * r +
                 3.9307895800092710610e4) * r + 2.1213794301586595867e4) * r +
               5.3941960214247511077e3) * r + 6.8718700749205790830e2) * r +
             4.2313330701600911252e1) * r + 1.0);
  }
  double r = q < 0.0 ? p : 1.0 - p;
  r = std::sqrt(-std::log(r));
  double v;
  if (r <= 5.0) {
    r -= 1.6;
    v = (((((((7.74545014278341407640e-4 * r + 2.27238449892691845833e-2) *
                  r + 2.41780725177450611770e-1) * r +
             1.27045825245236838258e0) * r + 3.64784832476320460504e0) * r +
           5.76949722146069140550e0) * r + 4.63033784615654529590e0) * r +
         1.42343711074968357734e0) /
        (((((((1.05075007164441684324e-9 * r + 5.47593808499534494600e-4) *
                  r + 1.51986665636164571966e-2) * r +
             1.48103976427480074590e-1) * r + 6.89767334985100004550e-1) *
           r + 1.67638483018380384940e0) * r + 2.05319162663775882187e0) *
             r + 1.0);
  } else {
    r -= 5.0;
    v = (((((((2.01033439929228813265e-7 * r + 2.71155556874348757815e-5) *
                  r + 1.24266094738807843860e-3) * r +
             2.65321895265761230930e-2) * r + 2.96560571828504891230e-1) *
              r + 1.78482653991729133580e0) * r + 5.46378491116411436990e0) *
             r + 6.65790464350110377720e0) /
        (((((((2.04426310338993978564e-15 * r + 1.42151175831644588870e-7) *
                  r + 1.84631831751005468180e-5) * r +
             7.86869131145613259100e-4) * r + 1.48753612908506148525e-2) *
           r + 1.36929880922735805310e-1) * r + 5.99832206555887937690e-1) *
             r + 1.0);
  }
  return q < 0.0 ? -v : v;
}

}  // namespace

Mt19937_64::Mt19937_64(std::uint64_t seed) {
  state_[0] = seed;
  for (std::size_t i = 1; i < kWords; ++i)
    state_[i] = 6364136223846793005ull *
                    (state_[i - 1] ^ (state_[i - 1] >> 62)) + i;
}

void Mt19937_64::refill() {
  // libstdc++ writes the twist as `(y & 1) ? kA : 0`, a select GCC does
  // not vectorize for 64-bit lanes below SSE4.1; the mask form is the same
  // value and needs only and/sub, so both loops vectorize at the baseline
  // x86-64 ISA. Neither loop reads a word it writes in the same pass.
  constexpr std::size_t kShift = 156;
  constexpr std::uint64_t kA = 0xB5026F5AA96619E9ull;
  constexpr std::uint64_t kUpper = ~std::uint64_t{0} << 31;
  const auto twist = [](std::uint64_t hi, std::uint64_t lo) {
    const std::uint64_t y = (hi & kUpper) | (lo & ~kUpper);
    return (y >> 1) ^ (kA & (0 - (y & 1)));
  };
  for (std::size_t k = 0; k < kWords - kShift; ++k)
    state_[k] = state_[k + kShift] ^ twist(state_[k], state_[k + 1]);
  for (std::size_t k = kWords - kShift; k < kWords - 1; ++k)
    state_[k] =
        state_[k - (kWords - kShift)] ^ twist(state_[k], state_[k + 1]);
  state_[kWords - 1] =
      state_[kShift - 1] ^ twist(state_[kWords - 1], state_[0]);
  next_ = 0;
}

double Rng::uniform() {
  // 53-bit mantissa from the top bits of one fully-specified raw draw.
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  if (!(hi >= lo) || !std::isfinite(lo) || !std::isfinite(hi))
    throw std::invalid_argument("Rng::uniform: need finite lo <= hi");
  return lo + (hi - lo) * uniform();
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  if (hi < lo) throw std::invalid_argument("Rng::uniform_int: hi < lo");
  const std::uint64_t span = static_cast<std::uint64_t>(hi) -
                             static_cast<std::uint64_t>(lo) + 1;
  if (span == 0) return static_cast<std::int64_t>(next_u64());  // full range
  // Unbiased rejection: discard draws below 2^64 mod span so every
  // residue is equally likely.
  const std::uint64_t threshold = (0 - span) % span;
  std::uint64_t raw;
  do {
    raw = next_u64();
  } while (raw < threshold);
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) +
                                   raw % span);
}

double Rng::normal() {
  // Inverse-transform sampling; reject u == 0 (probability 2^-53) so the
  // inverse CDF stays finite.
  double u;
  do {
    u = uniform();
  } while (u <= 0.0);
  return inverse_normal_cdf(u);
}

double Rng::normal(double mean, double stddev) {
  return mean + stddev * normal();
}

double Rng::exponential(double mean) {
  if (!(mean > 0.0))
    throw std::invalid_argument("Rng::exponential: mean not > 0");
  return -mean * std::log1p(-uniform());
}

bool Rng::chance(double p) {
  const double clamped = std::clamp(p, 0.0, 1.0);
  return uniform() < clamped;
}

RicianParams rician_params(double k_factor_db) {
  // Rician with mean power E[r^2] = 1: deterministic LoS component of
  // power K/(K+1) plus scattered complex Gaussian of power 1/(K+1).
  const double k = std::pow(10.0, k_factor_db / 10.0);
  return {std::sqrt(k / (k + 1.0)), std::sqrt(1.0 / (2.0 * (k + 1.0)))};
}

double Rng::rician_amplitude(const RicianParams& p) {
  const double x = p.los + p.sigma * normal();
  const double y = p.sigma * normal();
  return std::sqrt(x * x + y * y);
}

std::uint64_t derive_seed(std::uint64_t root, std::string_view component) {
  // FNV-1a over the component name, mixed with the root seed, then a
  // splitmix64 finalizer for avalanche.
  std::uint64_t h = 14695981039346656037ull ^ root;
  for (const char c : component) {
    h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    h *= 1099511628211ull;
  }
  h += 0x9E3779B97F4A7C15ull;
  h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ull;
  h = (h ^ (h >> 27)) * 0x94D049BB133111EBull;
  return h ^ (h >> 31);
}

std::uint64_t derive_stream(std::uint64_t base, std::uint64_t counter) {
  // Advance `base` along the splitmix64 golden-ratio orbit by counter+1
  // steps (closed form), then run the standard finalizer. The +1 keeps
  // derive_stream(base, 0) != base itself even before mixing.
  std::uint64_t z = base + 0x9E3779B97F4A7C15ull * (counter + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace sinet::sim
