// The decode of a link whose fade feeds nothing but its own outcome, kept
// verbatim as the engines made it before the fade certificate: the whole
// fade (three Rng::normal draws, a sqrt and a log10), added to the mean
// state as draw_link_state adds it, then ErrorModel::receive. The oracle
// of ErrorModel::draw_unless_lost (tests/test_phy.cpp).
#pragma once

#include <algorithm>
#include <cmath>

#include "phy/error_model.h"
#include "phy/link_budget.h"
#include "sim/rng.h"

namespace sinet::phy::test {

struct OracleDecode {
  LinkState state;  ///< the faded state the decode saw
  double fade_db = 0.0;  ///< the fade added to the mean state
  bool received = false;
};

inline OracleDecode oracle_decode(const ErrorModel& model,
                                  const PreparedLink& link,
                                  const PreparedReception& rx,
                                  sim::Rng& rng) {
  const double shadowing = rng.normal(0.0, link.fade.shadowing_sigma_db);
  const double x =
      link.fade.rician.los + link.fade.rician.sigma * rng.normal();
  const double y = link.fade.rician.sigma * rng.normal();
  const double amp = std::sqrt(x * x + y * y);
  const double small_scale_db = 20.0 * std::log10(std::max(amp, 1e-6));
  const double fade_db = shadowing + small_scale_db;
  LinkState st = link.mean;
  st.rssi_dbm += fade_db;
  st.snr_db += fade_db;
  return {st, fade_db, model.receive(st.snr_db, rx, rng)};
}

}  // namespace sinet::phy::test
