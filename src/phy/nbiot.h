// NB-IoT (NTN) physical-layer model for Direct-to-Satellite links.
//
// The paper names NB-IoT as the other terrestrial IoT technology reaching
// LEO altitudes (Sec 1, citing 3GPP NTN work). This model captures the
// pieces that matter for a DtS comparison against LoRa: single-tone
// NPUSCH airtime with repetitions, the repetition-combining SNR gain,
// maximum coupling loss, and per-report transmit energy.
#pragma once

namespace sinet::phy {

struct NbIotParams {
  double subcarrier_hz = 15e3;  ///< single-tone NPUSCH (3.75 kHz optional)
  int repetitions = 1;          ///< 1..128, powers of two
  double tx_power_dbm = 23.0;   ///< UE power class 3
  /// Base spectral efficiency of single-tone NPUSCH before repetitions:
  /// ~20 kbps at 15 kHz (QPSK, typical MCS for NTN link budgets).
  double base_rate_bps = 20e3;
  /// Uplink control/signalling overhead per report (NPRACH + grants), s.
  double signalling_overhead_s = 0.6;
};

/// Transmit airtime (s) for `payload_bytes` of application data,
/// including repetitions and signalling. Throws std::invalid_argument
/// for invalid payload/repetitions.
[[nodiscard]] double nbiot_transmission_time_s(const NbIotParams& p,
                                               int payload_bytes);

/// Minimum working SNR (dB) at the given repetition level. The single
/// transmission reference is ~ +5 dB (QPSK NPUSCH at the modeled rate);
/// each doubling of repetitions buys ~2.5 dB of combining gain.
[[nodiscard]] double nbiot_required_snr_db(int repetitions);

/// Transmit energy (mJ) for one report at `tx_power_mw` electronics draw
/// (PA + baseband) — used for the LoRa-vs-NB-IoT energy comparison.
[[nodiscard]] double nbiot_tx_energy_mj(const NbIotParams& p,
                                        int payload_bytes,
                                        double tx_draw_mw = 716.0);

/// Smallest repetition level (power of two, <= 128) that closes a link
/// with the given SNR; returns 0 if even 128 repetitions cannot.
[[nodiscard]] int nbiot_choose_repetitions(double snr_db);

}  // namespace sinet::phy
