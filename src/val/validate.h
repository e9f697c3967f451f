// Cross-simulator validation harness (ROADMAP item 5).
//
// run_validation() executes one named scenario:
//
//   1. predicts the scenario constellation's contact windows over the
//      reference site with the scan engine in both propagation modes —
//      kReference (bit-identical to the per-pair scalar scan that
//      tests/pass_scan_oracle.h keeps, which ctest checks) and the
//      SoA/SIMD kFast — and scores the fast arm's contact-duration
//      distribution against the reference arm's with K-S / Wasserstein
//      distances (stats/divergence.h);
//   2. scores the measured geometry against the closed-form
//      stochastic-geometry baselines (val/baseline.h): contact-duration
//      law, daily presence hours;
//   3. runs the DtS network and scores delivery rate against the
//      analytic ARQ/congestion model and the mean wait-for-pass against
//      the renewal formula over the merged node windows.
//
// The result is a neutral `sinet.validation.v1` report (val/schema.h).
// gate() then checks every committed threshold of
// tests/data/validation_baselines.json against the report's scores —
// pure C++, no helper script — and CI fails on any divergence
// regression. Threshold derivations: docs/VALIDATION.md.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "val/schema.h"

namespace sinet::obs {
class MetricsRegistry;
}  // namespace sinet::obs

namespace sinet::val {

/// One validation scenario. The catalog (validation_scenario) defines
/// "reference" (CI gate: 3-day scan + 2-day DtS run), "quick"
/// (unit-test scale: 1-day scan + the same 2-day DtS run) and "scale"
/// (population scale: 1M-node / 1k-satellite aggregate-mode DtS day).
struct ValidationScenario {
  std::string name;
  std::string constellation = "Tianqi";
  std::string site_code = "HK";
  double scan_days = 3.0;
  double mask_deg = 0.0;
  double coarse_step_s = 30.0;
  double dts_days = 2.0;
  std::uint64_t seed = 42;
  std::size_t analytic_cdf_points = 512;

  /// Population-scale overrides. When dts_nodes > 0 the orbit-scan arms
  /// are skipped and the DtS arm runs net::scale_fleet_config(dts_nodes,
  /// dts_sats, dts_sites) in aggregate mode, scoring the streaming
  /// DtsAggregates (eligible PDR, mean wait) against the same analytic
  /// ARQ/congestion and renewal baselines the paper scenarios use.
  std::size_t dts_nodes = 0;
  std::size_t dts_sats = 0;
  std::size_t dts_sites = 0;
  /// Renewal-wait baseline site subsample (scale path only): every
  /// stride-th fleet site contributes its merged-window renewal wait.
  /// Sites sit on an equal-area spiral and nodes are spread round-robin,
  /// so a uniform stride is an unbiased site sample; 1 scans every site.
  std::size_t renewal_site_stride = 16;
};

/// Look up a scenario by name ("reference", "quick", "scale"). Throws
/// std::invalid_argument for unknown names.
[[nodiscard]] ValidationScenario validation_scenario(
    const std::string& name);

struct ValidationOptions {
  /// Pass-prediction fan-out (orbit::predict_passes_grid semantics: 0 =
  /// all hardware threads, 1 = serial). The DES run itself is always
  /// serial.
  unsigned threads = 0;
  /// Optional run-metrics sink; null disables instrumentation.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Run the scenario and assemble the report. Deterministic for a fixed
/// (scenario, ambient propagation mode): no wall clock, fixed seeds.
[[nodiscard]] ValidationReport run_validation(
    const ValidationScenario& scenario, const ValidationOptions& opts = {});

/// Schema tag of the committed baseline-threshold file.
inline constexpr const char* kBaselineSchema =
    "sinet.validation_baselines.v1";

/// One gate threshold: the named score must exist and satisfy
/// value <= max (NaN fails).
struct ScoreThreshold {
  std::string score;
  double max = 0.0;
};

/// Per-scenario threshold sets, parsed from
/// tests/data/validation_baselines.json.
struct BaselineSet {
  struct Scenario {
    std::string name;
    std::vector<ScoreThreshold> thresholds;
  };
  std::vector<Scenario> scenarios;

  [[nodiscard]] const Scenario* find_scenario(const std::string& name) const;
};

[[nodiscard]] BaselineSet parse_baselines_json(const std::string& json);
/// Throws std::runtime_error on I/O or parse failure.
[[nodiscard]] BaselineSet read_baselines_file(const std::string& path);

/// Outcome of one threshold check.
struct GateCheck {
  std::string score;
  double value = 0.0;  ///< NaN when the score is missing from the report
  double max = 0.0;
  bool ok = false;
};

struct GateResult {
  bool passed = false;
  std::vector<GateCheck> checks;
};

/// Check `report` against the thresholds committed for its scenario.
/// Fails (passed = false) when the baselines have no entry for the
/// scenario, a thresholded score is missing, is NaN, or exceeds its max.
[[nodiscard]] GateResult gate(const ValidationReport& report,
                              const BaselineSet& baselines);

}  // namespace sinet::val
