// NB-IoT (NTN) DtS model tests.
#include <gtest/gtest.h>

#include "channel/noise.h"
#include "phy/nbiot.h"

namespace {

using namespace sinet::phy;

TEST(NbIot, TransmissionTimeScalesWithRepetitions) {
  NbIotParams p;
  p.repetitions = 1;
  const double t1 = nbiot_transmission_time_s(p, 20);
  p.repetitions = 8;
  const double t8 = nbiot_transmission_time_s(p, 20);
  // Signalling overhead is constant; the data part scales 8x.
  const double data1 = t1 - p.signalling_overhead_s;
  const double data8 = t8 - p.signalling_overhead_s;
  EXPECT_NEAR(data8 / data1, 8.0, 1e-9);
}

TEST(NbIot, TwentyByteAirtimeIsSubSecondAtOneRep) {
  NbIotParams p;
  // (20+9)*8 bits at 20 kbps = 11.6 ms + 0.6 s signalling.
  EXPECT_NEAR(nbiot_transmission_time_s(p, 20), 0.6116, 1e-3);
}

TEST(NbIot, InvalidInputsThrow) {
  NbIotParams p;
  EXPECT_THROW(nbiot_transmission_time_s(p, 0), std::invalid_argument);
  EXPECT_THROW(nbiot_transmission_time_s(p, 2000), std::invalid_argument);
  p.repetitions = 0;
  EXPECT_THROW(nbiot_transmission_time_s(p, 20), std::invalid_argument);
  p.repetitions = 256;
  EXPECT_THROW(nbiot_transmission_time_s(p, 20), std::invalid_argument);
  EXPECT_THROW(nbiot_required_snr_db(0), std::invalid_argument);
}

TEST(NbIot, RequiredSnrDropsWithRepetitions) {
  EXPECT_DOUBLE_EQ(nbiot_required_snr_db(1), 5.0);
  EXPECT_DOUBLE_EQ(nbiot_required_snr_db(2), 2.5);
  EXPECT_DOUBLE_EQ(nbiot_required_snr_db(128), 5.0 - 2.5 * 7.0);
  double prev = 10.0;
  for (int r = 1; r <= 128; r *= 2) {
    const double snr = nbiot_required_snr_db(r);
    EXPECT_LT(snr, prev);
    prev = snr;
  }
}

TEST(NbIot, MaxCouplingLossNearDesignTarget) {
  // NB-IoT's design target is 164 dB MCL at max repetitions. MCL = EIRP -
  // noise floor (thermal + 3 dB NF over the subcarrier) + the allowed
  // negative SNR: 23 dBm - (-174 + 10log10(15k) + 3) + 12.5 = ~164.7 dB.
  const NbIotParams p;
  const auto mcl_db = [&](int repetitions) {
    return p.tx_power_dbm -
           sinet::channel::noise_floor_dbm(p.subcarrier_hz, 3.0, 0.0) -
           nbiot_required_snr_db(repetitions);
  };
  EXPECT_NEAR(mcl_db(128), 164.0, 2.0);
  // One repetition: 17.5 dB less.
  EXPECT_NEAR(mcl_db(1), 164.0 - 17.5, 2.5);
}

TEST(NbIot, ChooseRepetitionsMatchesThresholds) {
  EXPECT_EQ(nbiot_choose_repetitions(6.0), 1);
  EXPECT_EQ(nbiot_choose_repetitions(5.0), 1);
  EXPECT_EQ(nbiot_choose_repetitions(4.9), 2);
  EXPECT_EQ(nbiot_choose_repetitions(0.0), 4);
  EXPECT_EQ(nbiot_choose_repetitions(-12.5), 128);
  EXPECT_EQ(nbiot_choose_repetitions(-13.0), 0);  // cannot close
}

TEST(NbIot, TxEnergyScalesWithAirtime) {
  NbIotParams p;
  p.repetitions = 4;
  const double e = nbiot_tx_energy_mj(p, 20);
  EXPECT_NEAR(e, 716.0 * nbiot_transmission_time_s(p, 20), 1e-9);
  EXPECT_THROW(nbiot_tx_energy_mj(p, 20, 0.0), std::invalid_argument);
}

}  // namespace
