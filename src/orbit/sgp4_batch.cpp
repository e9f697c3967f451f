#include "orbit/sgp4_batch.h"

#include <cmath>
#include <stdexcept>

#include "orbit/sgp4_constants.h"
#include "orbit/simd.h"

namespace sinet::orbit {

namespace {

using simd::broadcast;
using simd::kLanes;
using simd::select;
using simd::Vd;
using simd::Vi;

static_assert(Sgp4Batch::kLaneWidth == simd::kLanes,
              "Sgp4Batch lane width must match the SIMD vector width");

// Lanes within this distance of a condition where scalar Sgp4::at()
// throws are flagged kError too, so a kOk lane certifies that the scalar
// call does not throw. The tested quantities (eccentricity, the
// semi-latus rectum and the radius in earth radii) are O(1); the lanes
// reproduce them to ~1e-14 (trig kernels ~1e-16, the Kepler solution to
// 1e-12 rad), so 1e-9 keeps a wide margin and flags nothing a healthy
// orbit reaches.
constexpr double kStatusGuard = 1e-9;

// sin/cos of a small correction angle (the short-period periodics are
// < ~1e-3 rad), 5th/4th-order Maclaurin: absolute error < 1e-22 there.
SINET_SIMD_INLINE void small_angle_sincos(Vd d, Vd* s, Vd* c) noexcept {
  const Vd d2 = d * d;
  *s = d * (broadcast(1.0) -
            d2 * broadcast(1.0 / 6.0) * (broadcast(1.0) - d2 * broadcast(0.05)));
  *c = broadcast(1.0) -
       d2 * broadcast(0.5) * (broadcast(1.0) - d2 * broadcast(1.0 / 12.0));
}

struct GroupResult {
  Vd x, y, z, dist;
  Vi ok;  // all-ones lanes are physical
};

// The whole near-earth SGP4 evaluation for one lane group, vectorized:
// lane l propagates to jd[l] and rotates by the GMST whose cosine and
// sine are cos_g[l] / sin_g[l]. `c` mirrors Sgp4::at() (orbit/sgp4.cpp)
// term by term — keep the two in sync when touching either. Always
// inlined into the multiversioned entry points below, so every clone
// gets its own copy and no vector crosses a call boundary.
SINET_SIMD_INLINE GroupResult sgp4_lanes(const detail::Sgp4Lanes& c, Vd jd,
                                         Vd cos_g, Vd sin_g) {
  const Vd one = broadcast(1.0);

  const Vd ts = (jd - c.epoch_jd) * broadcast(kMinutesPerDay);
  const Vd ns = c.nonsimple;

  // --- Secular gravity and atmospheric drag ---
  const Vd xmdf = c.m0 + c.xmdot * ts;
  const Vd omgadf = c.argp0 + c.omgdot * ts;
  const Vd xnoddf = c.raan0 + c.xnodot * ts;
  const Vd tsq = ts * ts;
  const Vd xnode = xnoddf + c.xnodcf * tsq;
  Vd tempa = one - c.c1 * ts;
  Vd tempe = c.bstar * c.c4 * ts;
  Vd templ = c.t2cof * tsq;

  // Lane-masked `simple_` handling: the low-perigee truncation zeroes
  // the corrections through `ns` instead of branching, so both element
  // flavors ride in one group.
  Vd sin_xmdf, cos_xmdf;
  simd::vsincos(xmdf, &sin_xmdf, &cos_xmdf);
  const Vd etacos = one + c.eta * cos_xmdf;
  const Vd delm = c.xmcof * (etacos * etacos * etacos - c.delmo);
  const Vd corr = ns * (c.omgcof * ts + delm);
  const Vd xmp = xmdf + corr;
  const Vd omega = omgadf - corr;
  const Vd tcube = tsq * ts;
  const Vd tfour = ts * tcube;
  tempa = tempa - ns * (c.d2 * tsq + c.d3 * tcube + c.d4 * tfour);
  Vd sin_xmp, cos_xmp;
  simd::vsincos(xmp, &sin_xmp, &cos_xmp);
  tempe = tempe + ns * c.bstar * c.c5 * (sin_xmp - c.sinmo);
  templ = templ + ns * (c.t3cof * tcube + c.t4cof * tfour +
                        c.t5cof * tfour * ts);

  const Vd a = c.aodp * tempa * tempa;
  const Vd e = c.e0 - tempe;
  Vi ok = (e < broadcast(1.0 - kStatusGuard)) &
          (e >= broadcast(-0.001 + kStatusGuard)) & (a > broadcast(0.0));
  const Vd e_clamped = simd::vmax(e, broadcast(1e-6));
  const Vd xl = xmp + omega + xnode + c.xnodp * templ;

  // --- Long period periodics ---
  Vd sin_omega, cos_omega;
  simd::vsincos(omega, &sin_omega, &cos_omega);
  const Vd axn = e_clamped * cos_omega;
  const Vd beta2 = one - e_clamped * e_clamped;
  const Vd temp_lp = one / (a * beta2);
  const Vd xll = temp_lp * c.xlcof * axn;
  const Vd aynl = temp_lp * c.aycof;
  const Vd xlt = xl + xll;
  const Vd ayn = e_clamped * sin_omega + aynl;

  // --- Kepler's equation, all lanes to convergence ---
  // capu is a 2*pi-shifted representative of the scalar wrap_two_pi
  // value; the converged anomaly differs by the same multiple, which
  // cancels in the trig below.
  const Vd capu = simd::vwrap_pi(xlt - xnode);
  Vd epw = capu;
  Vi converged = Vi{0, 0, 0, 0};
  for (int i = 0; i < 10; ++i) {
    Vd sinepw, cosepw;
    simd::vsincos(epw, &sinepw, &cosepw);
    const Vd t5 = axn * cosepw;
    const Vd t6 = ayn * sinepw;
    const Vd next =
        (capu - ayn * cosepw + axn * sinepw - epw) / (one - t5 - t6) + epw;
    const Vi newly = simd::vabs(next - epw) <= broadcast(1e-12);
    epw = select(converged, epw, next);
    converged |= newly;
    if (simd::all(converged)) break;
  }
  Vd sinepw, cosepw;
  simd::vsincos(epw, &sinepw, &cosepw);
  const Vd t3 = axn * sinepw;
  const Vd t4 = ayn * cosepw;
  const Vd t5 = axn * cosepw;
  const Vd t6 = ayn * sinepw;

  // --- Short period preliminary quantities ---
  const Vd ecose = t5 + t6;
  const Vd esine = t3 - t4;
  const Vd elsq = axn * axn + ayn * ayn;
  const Vd pl = a * (one - elsq);
  ok &= pl >= broadcast(kStatusGuard);
  const Vd r = a * (one - ecose);
  const Vd invr = one / r;
  const Vd temp_sp = a * invr;
  const Vd betal = simd::vsqrt(one - elsq);
  const Vd t3inv = one / (one + betal);
  const Vd cosu = temp_sp * (cosepw - axn + ayn * esine * t3inv);
  const Vd sinu = temp_sp * (sinepw - ayn - axn * esine * t3inv);
  // Instead of u = atan2(sinu, cosu) then sin/cos(u - duk), normalize
  // (sinu, cosu) — they are cos/sin of a true angle up to rounding — and
  // rotate by the small short-period correction angle directly.
  const Vd inv_rho = one / simd::vsqrt(sinu * sinu + cosu * cosu);
  const Vd su = sinu * inv_rho;
  const Vd cu = cosu * inv_rho;
  const Vd sin2u = (sinu + sinu) * cosu;
  const Vd cos2u = (cosu + cosu) * cosu - one;
  const Vd invpl = one / pl;
  const Vd tk1 = broadcast(sgp4c::kCk2) * invpl;
  const Vd tk2 = tk1 * invpl;

  // --- Short period periodics ---
  const Vd rk =
      r * (one - broadcast(1.5) * tk2 * betal * c.x3thm1) +
      broadcast(0.5) * tk1 * c.x1mth2 * cos2u;
  ok &= rk >= broadcast(1.0 + kStatusGuard);

  const Vd duk = broadcast(0.25) * tk2 * c.x7thm1 * sin2u;
  Vd sin_duk, cos_duk;
  small_angle_sincos(duk, &sin_duk, &cos_duk);
  const Vd sinuk = su * cos_duk - cu * sin_duk;
  const Vd cosuk = cu * cos_duk + su * sin_duk;

  const Vd dnod = broadcast(1.5) * tk2 * c.cosio * sin2u;
  Vd sin_dnod, cos_dnod;
  small_angle_sincos(dnod, &sin_dnod, &cos_dnod);
  Vd sinnok, cosnok;
  {
    Vd snod, cnod;
    simd::vsincos(xnode, &snod, &cnod);
    sinnok = snod * cos_dnod + cnod * sin_dnod;
    cosnok = cnod * cos_dnod - snod * sin_dnod;
  }

  const Vd dinc =
      broadcast(1.5) * tk2 * c.cosio * c.sinio * cos2u;
  Vd sin_dinc, cos_dinc;
  small_angle_sincos(dinc, &sin_dinc, &cos_dinc);
  const Vd sinik = c.sinio * cos_dinc + c.cosio * sin_dinc;
  const Vd cosik = c.cosio * cos_dinc - c.sinio * sin_dinc;

  // --- Orientation vector and final ECEF state ---
  const Vd xmx = -sinnok * cosik;
  const Vd xmy = cosnok * cosik;
  const Vd scale = rk * broadcast(sgp4c::kXkmper);
  const Vd px = (xmx * sinuk + cosnok * cosuk) * scale;
  const Vd py = (xmy * sinuk + sinnok * cosuk) * scale;
  const Vd pz = sinik * sinuk * scale;

  // Batched TEME->ECEF.
  GroupResult out;
  out.x = cos_g * px + sin_g * py;
  out.y = cos_g * py - sin_g * px;
  out.z = pz;
  out.dist = simd::vsqrt(out.x * out.x + out.y * out.y + out.z * out.z);
  ok &= out.dist == out.dist;  // NaN screen for anything the above missed
  out.ok = ok;
  return out;
}

// Every lane at one time, rotated by the caller's GMST: the table path.
// std::cos/std::sin of the shared angle keep its bits independent of
// the lane trig kernels.
SINET_SIMD_TARGET_CLONES
GroupResult propagate_at(const detail::Sgp4Lanes& c, JulianDate jd,
                         double gmst) {
  return sgp4_lanes(c, broadcast(jd), broadcast(std::cos(gmst)),
                    broadcast(std::sin(gmst)));
}

// A time per lane, each rotated by its own GMST (gmst_rad's IAU-82
// polynomial, reduced modulo a day before the angle conversion as
// gmst_rad's fmod does, then the lane sincos).
SINET_SIMD_TARGET_CLONES
GroupResult propagate_at_lanes(const detail::Sgp4Lanes& c,
                               const JulianDate* jd) {
  const Vd t = Vd{jd[0], jd[1], jd[2], jd[3]};
  const Vd tut1 = (t - broadcast(kJdJ2000)) / broadcast(36525.0);
  const Vd gmst_s =
      broadcast(67310.54841) +
      broadcast(876600.0 * 3600.0 + 8640184.812866) * tut1 +
      broadcast(0.093104) * tut1 * tut1 -
      broadcast(6.2e-6) * tut1 * tut1 * tut1;
  const Vd day_s =
      gmst_s - simd::vround(gmst_s / broadcast(kSecondsPerDay)) *
                   broadcast(kSecondsPerDay);
  Vd sin_g, cos_g;
  simd::vsincos(day_s * broadcast(kTwoPi) / broadcast(kSecondsPerDay), &sin_g,
                &cos_g);
  return sgp4_lanes(c, t, cos_g, sin_g);
}

// Lane `lane` of `g` takes the constants of `c`.
void set_lane(detail::Sgp4Lanes& g, std::size_t lane,
              const Sgp4Coefficients& c) noexcept {
  g.epoch_jd[lane] = c.epoch_jd;
  g.argp0[lane] = c.argp0;
  g.m0[lane] = c.m0;
  g.raan0[lane] = c.raan0;
  g.e0[lane] = c.e0;
  g.bstar[lane] = c.bstar;
  g.aodp[lane] = c.aodp;
  g.xnodp[lane] = c.xnodp;
  g.cosio[lane] = c.cosio;
  g.sinio[lane] = c.sinio;
  g.x3thm1[lane] = c.x3thm1;
  g.x1mth2[lane] = c.x1mth2;
  g.x7thm1[lane] = c.x7thm1;
  g.eta[lane] = c.eta;
  g.c1[lane] = c.c1;
  g.c4[lane] = c.c4;
  g.c5[lane] = c.c5;
  g.d2[lane] = c.d2;
  g.d3[lane] = c.d3;
  g.d4[lane] = c.d4;
  g.xmdot[lane] = c.xmdot;
  g.omgdot[lane] = c.omgdot;
  g.xnodot[lane] = c.xnodot;
  g.xnodcf[lane] = c.xnodcf;
  g.omgcof[lane] = c.omgcof;
  g.xmcof[lane] = c.xmcof;
  g.t2cof[lane] = c.t2cof;
  g.t3cof[lane] = c.t3cof;
  g.t4cof[lane] = c.t4cof;
  g.t5cof[lane] = c.t5cof;
  g.xlcof[lane] = c.xlcof;
  g.aycof[lane] = c.aycof;
  g.delmo[lane] = c.delmo;
  g.sinmo[lane] = c.sinmo;
  g.nonsimple[lane] = c.simple ? 0.0 : 1.0;
}

}  // namespace

Sgp4Batch::Sgp4Batch(const std::vector<const Sgp4*>& satellites) {
  if (satellites.empty())
    throw std::invalid_argument("Sgp4Batch: empty satellite set");
  for (const Sgp4* s : satellites)
    if (s == nullptr)
      throw std::invalid_argument("Sgp4Batch: null propagator");

  n_ = satellites.size();
  groups_.resize((n_ + kLaneWidth - 1) / kLaneWidth);
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    for (std::size_t l = 0; l < kLaneWidth; ++l) {
      // Pad lanes replicate the group's first member so their arithmetic
      // stays finite; their status is never reported.
      const std::size_t i = g * kLaneWidth + l;
      const std::size_t src = i < n_ ? i : g * kLaneWidth;
      set_lane(groups_[g], l, satellites[src]->coefficients());
    }
  }
}

bool Sgp4Batch::propagate_group_ecef(std::size_t group, JulianDate jd,
                                     double gmst, double* x_km, double* y_km,
                                     double* z_km, double* dist_km,
                                     LaneStatus* status) const {
  const GroupResult res = propagate_at(groups_[group], jd, gmst);

  const std::size_t members = group_members(group);
  bool all_ok = true;
  for (std::size_t l = 0; l < members; ++l) {
    x_km[l] = res.x[l];
    y_km[l] = res.y[l];
    z_km[l] = res.z[l];
    dist_km[l] = res.dist[l];
    if (res.ok[l] != 0) {
      status[l] = LaneStatus::kOk;
    } else {
      status[l] = LaneStatus::kError;
      all_ok = false;
    }
  }
  return all_ok;
}

Sgp4TimeBatch::Sgp4TimeBatch(const Sgp4& prop) noexcept {
  const Sgp4Coefficients c = prop.coefficients();
  for (std::size_t l = 0; l < kLaneWidth; ++l) set_lane(lanes_, l, c);
}

void Sgp4TimeBatch::propagate_ecef(const JulianDate* jd, double* x_km,
                                   double* y_km, double* z_km,
                                   LaneStatus* status) const {
  const GroupResult res = propagate_at_lanes(lanes_, jd);
  for (std::size_t l = 0; l < kLaneWidth; ++l) {
    x_km[l] = res.x[l];
    y_km[l] = res.y[l];
    z_km[l] = res.z[l];
    status[l] = res.ok[l] != 0 ? LaneStatus::kOk : LaneStatus::kError;
  }
}

}  // namespace sinet::orbit
