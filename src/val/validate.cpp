#include "val/validate.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/active_experiment.h"
#include "core/scenario.h"
#include "net/dts_network.h"
#include "obs/json.h"
#include "orbit/constellation.h"
#include "orbit/ephemeris.h"
#include "orbit/passes.h"
#include "orbit/time.h"
#include "stats/divergence.h"
#include "val/baseline.h"

namespace sinet::val {

namespace {

/// Flatten per-pair windows into duration samples.
stats::EmpiricalCdf duration_cdf(
    const std::vector<std::vector<orbit::ContactWindow>>& per_pair) {
  stats::EmpiricalCdf cdf;
  for (const auto& windows : per_pair)
    for (const orbit::ContactWindow& w : windows) cdf.add(w.duration_s());
  return cdf;
}

std::vector<double> cdf_samples(const stats::EmpiricalCdf& cdf) {
  const auto view = cdf.sorted_samples();
  return {view.begin(), view.end()};
}

std::size_t window_count(
    const std::vector<std::vector<orbit::ContactWindow>>& per_pair) {
  std::size_t n = 0;
  for (const auto& windows : per_pair) n += windows.size();
  return n;
}

/// Shell view of a constellation spec for the analytic baselines.
std::vector<ShellSpec> shells_of(const orbit::ConstellationSpec& spec) {
  std::vector<ShellSpec> shells;
  shells.reserve(spec.groups.size());
  for (const orbit::OrbitalGroup& g : spec.groups)
    shells.push_back({g.count,
                      0.5 * (g.altitude_low_km + g.altitude_high_km),
                      g.inclination_deg});
  return shells;
}

void add_mode_scores(ValidationReport& report,
                     const stats::EmpiricalCdf& reference,
                     std::size_t reference_count,
                     const stats::EmpiricalCdf& candidate,
                     std::size_t candidate_count) {
  const std::string prefix = "windows.fast_vs_reference.";
  report.scores.push_back(
      {prefix + "ks", stats::ks_distance(reference, candidate)});
  report.scores.push_back(
      {prefix + "wasserstein_s",
       stats::wasserstein_distance(reference, candidate)});
  const double ref_n = static_cast<double>(reference_count);
  report.scores.push_back(
      {prefix + "count_rel_err",
       ref_n == 0.0 ? std::numeric_limits<double>::quiet_NaN()
                    : std::abs(static_cast<double>(candidate_count) - ref_n) /
                          ref_n});
}

/// Population-scale DtS arm: no orbit-scan arms (the window kernels are
/// validated by "reference"/"quick"; at 1k satellites x 256 sites a
/// second full scan would dominate the run for no new signal), just the
/// aggregate-mode fleet run scored against the analytic baselines.
ValidationReport run_scale_validation(const ValidationScenario& sc,
                                      const ValidationOptions& opts) {
  ValidationReport report;
  report.scenario = sc.name;
  report.propagation_mode =
      orbit::propagation_mode_name(orbit::propagation_mode());
  const orbit::JulianDate start = core::campaign_epoch_jd();
  report.start_jd = start;
  report.duration_days = sc.dts_days;

  net::DtsNetworkConfig cfg = net::scale_fleet_config(
      sc.dts_nodes, sc.dts_sats, sc.dts_sites, start, sc.dts_days);
  cfg.seed = sc.seed;
  cfg.pass_threads = opts.threads;
  // Simulation threads too: aggregates are thread-count-invariant, so
  // the committed divergence gates hold for any worker count.
  cfg.sim_threads = opts.threads;
  cfg.metrics = opts.metrics;
  const net::DtsNetworkResult dts = net::run_dts_network(cfg);
  const net::DtsAggregates& agg = dts.agg;

  // Analytic ARQ/congestion delivery baseline. Scheduled (CosMAC-style)
  // access multiplies the engine's background loss field by
  // scheduled_background_factor, so the model sees the same per-attempt
  // losses the simulated uplinks did.
  const double background_factor =
      cfg.uplink_access == net::UplinkAccess::kScheduled
          ? cfg.scheduled_background_factor
          : 1.0;
  UplinkDeliveryModel delivery_model;
  delivery_model.nominal_loss =
      cfg.congestion.nominal_load_mean * background_factor;
  delivery_model.congested_probability =
      cfg.congestion.congested_probability;
  delivery_model.congested_loss =
      std::min(cfg.congestion.congested_loss * background_factor, 1.0);
  delivery_model.max_retransmissions =
      cfg.fleet.prototype.max_retransmissions;
  delivery_model.delivery_loss = cfg.delivery_loss_probability;
  const double analytic_delivery = expected_delivery_rate(delivery_model);
  const double measured_pdr = agg.eligible_delivered_fraction();
  report.scores.push_back({"dts.delivery.abs_err",
                           std::abs(measured_pdr - analytic_delivery)});

  // Renewal wait baseline, node-weighted across a deterministic site
  // subsample (round-robin deployment makes per-site populations equal
  // to within one node, so the unweighted site mean is the node mean).
  orbit::PassPredictionOptions pass_opts;
  pass_opts.min_elevation_deg = cfg.visibility_mask_deg;
  pass_opts.coarse_step_s = cfg.pass_scan_step_s;
  const std::vector<orbit::Tle> tles =
      orbit::generate_tles(cfg.constellation, cfg.start_jd);
  const std::size_t stride = std::max<std::size_t>(sc.renewal_site_stride, 1);
  std::vector<orbit::GridObserver> observers;
  for (std::size_t i = 0; i < cfg.fleet.sites.size(); i += stride)
    observers.push_back(orbit::GridObserver{cfg.fleet.sites[i]});
  const auto site_windows = orbit::predict_passes_grid_cached(
      tles, observers, cfg.start_jd, cfg.start_jd + sc.dts_days, pass_opts,
      opts.threads, &orbit::ContactWindowCache::global(), opts.metrics);
  const double span_s = sc.dts_days * orbit::kSecondsPerDay;
  double renewal_sum_s = 0.0;
  for (std::size_t o = 0; o < observers.size(); ++o) {
    std::vector<orbit::ContactWindow> merged;
    for (std::size_t s = 0; s < tles.size(); ++s)
      merged.insert(merged.end(), site_windows[s][o].begin(),
                    site_windows[s][o].end());
    merged = orbit::merge_windows(std::move(merged));
    std::vector<std::pair<double, double>> spans_s;
    spans_s.reserve(merged.size());
    for (const orbit::ContactWindow& w : merged)
      spans_s.emplace_back((w.aos_jd - cfg.start_jd) * orbit::kSecondsPerDay,
                           (w.los_jd - cfg.start_jd) * orbit::kSecondsPerDay);
    renewal_sum_s += expected_wait_s(spans_s, 0.0, span_s);
  }
  const double renewal_wait_s =
      observers.empty() ? std::numeric_limits<double>::quiet_NaN()
                        : renewal_sum_s / static_cast<double>(observers.size());
  const double measured_wait_s = agg.mean_wait_s();
  // Same bound as the paper scenarios: geometric renewal lower-bounds
  // the DES wait (the DES additionally needs a decoded beacon).
  report.scores.push_back(
      {"dts.wait.renewal_bound_ratio",
       measured_wait_s > 0.0
           ? renewal_wait_s / measured_wait_s
           : std::numeric_limits<double>::quiet_NaN()});

  report.scalars.push_back({"dts.reliability.measured", measured_pdr});
  report.scalars.push_back({"dts.reliability.analytic", analytic_delivery});
  report.scalars.push_back(
      {"dts.reports.generated",
       static_cast<double>(agg.reports_generated)});
  report.scalars.push_back(
      {"dts.reports.eligible",
       static_cast<double>(agg.eligible_generated)});
  report.scalars.push_back(
      {"dts.reports.delivered",
       static_cast<double>(agg.reports_delivered)});
  report.scalars.push_back(
      {"dts.local_buffer_drops",
       static_cast<double>(agg.local_buffer_drops)});
  report.scalars.push_back(
      {"dts.packets_abandoned",
       static_cast<double>(agg.packets_abandoned)});
  report.scalars.push_back({"dts.wait_s.measured_mean", measured_wait_s});
  report.scalars.push_back({"dts.wait_s.renewal", renewal_wait_s});
  report.scalars.push_back({"dts.latency_s.mean", agg.mean_end_to_end_s()});
  return report;
}

}  // namespace

ValidationScenario validation_scenario(const std::string& name) {
  ValidationScenario sc;
  sc.name = name;
  if (name == "reference") {
    sc.scan_days = 3.0;
    sc.dts_days = 2.0;
    return sc;
  }
  if (name == "quick") {
    // The DtS arm runs the reference's two days: half a day leaves ~37
    // eligible reports (one is worth 0.027 of reliability), too few for
    // the 0.04 delivery bound to tell a bug from a reseed.
    sc.scan_days = 1.0;
    sc.dts_days = 2.0;
    return sc;
  }
  if (name == "scale") {
    sc.dts_days = 1.0;
    sc.dts_nodes = 1'000'000;
    sc.dts_sats = 1'000;
    sc.dts_sites = 256;
    return sc;
  }
  throw std::invalid_argument(
      "unknown validation scenario '" + name +
      "' (expected \"reference\", \"quick\" or \"scale\")");
}

ValidationReport run_validation(const ValidationScenario& sc,
                                const ValidationOptions& opts) {
  if (!(sc.scan_days > 0.0) || !(sc.dts_days > 0.0))
    throw std::invalid_argument(
        "run_validation: scenario spans must be positive");
  if (sc.dts_nodes > 0) return run_scale_validation(sc, opts);

  ValidationReport report;
  report.scenario = sc.name;
  report.propagation_mode =
      orbit::propagation_mode_name(orbit::propagation_mode());

  const orbit::ConstellationSpec spec =
      orbit::paper_constellation(sc.constellation);
  const core::MeasurementSite site = core::paper_site(sc.site_code);
  const orbit::JulianDate start = core::campaign_epoch_jd();
  const orbit::JulianDate end = start + sc.scan_days;
  report.start_jd = start;
  report.duration_days = sc.scan_days;

  const std::vector<orbit::Tle> tles = orbit::generate_tles(spec, start);
  std::vector<std::unique_ptr<orbit::Sgp4>> props;
  std::vector<const orbit::Sgp4*> sats;
  props.reserve(tles.size());
  for (const orbit::Tle& tle : tles) {
    props.push_back(std::make_unique<orbit::Sgp4>(tle));
    sats.push_back(props.back().get());
  }

  orbit::PassPredictionOptions pass_opts;
  pass_opts.min_elevation_deg = sc.mask_deg;
  pass_opts.coarse_step_s = sc.coarse_step_s;

  // --- The two scan arms: kReference (bit-identical to the per-pair
  // scalar scan, which ctest checks on these scenarios' pairs) and kFast.
  const std::vector<orbit::GridObserver> observers{{site.location}};
  std::vector<orbit::PairTask> pairs;
  pairs.reserve(sats.size());
  for (std::size_t s = 0; s < sats.size(); ++s) pairs.push_back({s, 0});
  const auto scan = [&](orbit::PropagationMode mode) {
    orbit::EphemerisScanOptions scan_opts;
    scan_opts.mode = mode;
    return orbit::scan_pass_pairs(sats, observers, pairs, start, end,
                                  pass_opts, scan_opts, opts.threads,
                                  opts.metrics);
  };
  const auto reference = scan(orbit::PropagationMode::kReference);
  const auto fast = scan(orbit::PropagationMode::kFast);

  // Canonical window export: the reference arm (the contract the fast
  // arm is scored against).
  for (std::size_t s = 0; s < tles.size(); ++s) {
    const std::string sat_name = tles[s].name.empty()
                                     ? std::to_string(tles[s].catalog_number)
                                     : tles[s].name;
    for (const orbit::ContactWindow& w : reference[s])
      report.windows.push_back({sat_name, site.code, w.aos_jd, w.los_jd,
                                w.tca_jd, w.max_elevation_deg});
  }

  const stats::EmpiricalCdf reference_durations = duration_cdf(reference);
  const stats::EmpiricalCdf fast_durations = duration_cdf(fast);
  if (reference_durations.empty())
    throw std::runtime_error(
        "run_validation: reference scan produced no contact windows");

  report.distributions.push_back(
      {"contact_duration_s.reference", cdf_samples(reference_durations)});
  report.distributions.push_back(
      {"contact_duration_s.fast", cdf_samples(fast_durations)});

  add_mode_scores(report, reference_durations, window_count(reference),
                  fast_durations, window_count(fast));

  // --- Analytic geometry baselines ------------------------------------
  const std::vector<ShellSpec> shells = shells_of(spec);
  const stats::EmpiricalCdf analytic_durations = analytic_pass_duration_cdf(
      shells, sc.mask_deg, sc.analytic_cdf_points);
  report.distributions.push_back(
      {"contact_duration_s.analytic", cdf_samples(analytic_durations)});

  const double analytic_mean_duration_s =
      std::accumulate(analytic_durations.sorted_samples().begin(),
                      analytic_durations.sorted_samples().end(), 0.0) /
      static_cast<double>(analytic_durations.size());
  report.scores.push_back(
      {"contact_duration.reference_vs_analytic.ks",
       stats::ks_distance(reference_durations, analytic_durations)});
  report.scores.push_back(
      {"contact_duration.reference_vs_analytic.wasserstein_rel",
       stats::wasserstein_distance(reference_durations, analytic_durations) /
           analytic_mean_duration_s});

  std::vector<orbit::ContactWindow> all_reference;
  for (const auto& windows : reference)
    all_reference.insert(all_reference.end(), windows.begin(), windows.end());
  const double presence_hours =
      orbit::daily_visible_seconds(all_reference, start, end) / 3600.0;
  const double analytic_presence_hours =
      expected_daily_presence_hours(shells, sc.mask_deg);
  report.scores.push_back(
      {"availability.daily_hours.rel_err",
       std::abs(presence_hours - analytic_presence_hours) /
           analytic_presence_hours});

  const std::vector<double> gaps = orbit::contact_gaps_s(all_reference);
  report.distributions.push_back({"contact_gap_s.reference", gaps});

  report.scalars.push_back({"windows.reference.count",
                            static_cast<double>(window_count(reference))});
  report.scalars.push_back(
      {"windows.fast.count", static_cast<double>(window_count(fast))});
  report.scalars.push_back({"availability.daily_hours.measured",
                            presence_hours});
  report.scalars.push_back({"availability.daily_hours.analytic",
                            analytic_presence_hours});
  report.scalars.push_back(
      {"contact_duration_s.analytic_mean", analytic_mean_duration_s});

  // --- DtS network vs the analytic uplink model ------------------------
  net::DtsNetworkConfig cfg =
      net::tianqi_agriculture_config(start, sc.dts_days);
  cfg.seed = sc.seed;
  cfg.pass_threads = opts.threads;
  cfg.metrics = opts.metrics;
  const net::DtsNetworkResult dts = net::run_dts_network(cfg);
  const double run_end_unix =
      orbit::julian_to_unix(start) + sc.dts_days * orbit::kSecondsPerDay;

  for (const trace::UplinkRecord& u : dts.uplinks)
    report.link_records.push_back(
        {u.node, u.generated_unix_s, u.first_tx_unix_s, u.server_rx_unix_s,
         static_cast<std::uint64_t>(std::max(u.dts_attempts, 0)),
         u.delivered});

  stats::EmpiricalCdf latency, waits, attempts;
  std::map<std::string, std::pair<std::size_t, std::size_t>> per_node;
  for (const trace::UplinkRecord& u : dts.uplinks) {
    auto& [delivered, generated] = per_node[u.node];
    ++generated;
    if (u.delivered) ++delivered;
    if (u.end_to_end_s() >= 0.0) latency.add(u.end_to_end_s());
    if (u.wait_for_pass_s() >= 0.0) waits.add(u.wait_for_pass_s());
    if (u.dts_attempts > 0)
      attempts.add(static_cast<double>(u.dts_attempts));
  }
  report.distributions.push_back({"dts.latency_s", cdf_samples(latency)});
  report.distributions.push_back({"dts.wait_s", cdf_samples(waits)});
  report.distributions.push_back({"dts.attempts", cdf_samples(attempts)});
  {
    NamedDistribution pdr{"dts.pdr_per_node", {}};
    for (const auto& [node, counts] : per_node)
      pdr.samples.push_back(static_cast<double>(counts.first) /
                            static_cast<double>(counts.second));
    report.distributions.push_back(std::move(pdr));
  }

  const core::ReliabilitySummary reliability =
      core::summarize_reliability(dts.uplinks, run_end_unix);
  UplinkDeliveryModel delivery_model;
  delivery_model.nominal_loss = cfg.congestion.nominal_load_mean;
  delivery_model.congested_probability =
      cfg.congestion.congested_probability;
  delivery_model.congested_loss = cfg.congestion.congested_loss;
  delivery_model.max_retransmissions =
      cfg.nodes.front().max_retransmissions;
  delivery_model.delivery_loss = cfg.delivery_loss_probability;
  const double analytic_delivery = expected_delivery_rate(delivery_model);
  report.scores.push_back(
      {"dts.delivery.abs_err",
       std::abs(reliability.reliability - analytic_delivery)});

  // Renewal wait baseline: merged node-visible windows over the DtS span.
  orbit::PassPredictionOptions dts_pass_opts;
  dts_pass_opts.min_elevation_deg = cfg.visibility_mask_deg;
  dts_pass_opts.coarse_step_s = cfg.pass_scan_step_s;
  const std::vector<orbit::Tle> dts_tles =
      orbit::generate_tles(cfg.constellation, cfg.start_jd);
  const auto node_windows = orbit::predict_passes_grid_cached(
      dts_tles, {orbit::GridObserver{cfg.nodes.front().location}},
      cfg.start_jd, cfg.start_jd + sc.dts_days, dts_pass_opts, opts.threads,
      &orbit::ContactWindowCache::global(), opts.metrics);
  std::vector<orbit::ContactWindow> node_all;
  for (const auto& windows : node_windows)
    node_all.insert(node_all.end(), windows[0].begin(), windows[0].end());
  node_all = orbit::merge_windows(std::move(node_all));
  std::vector<std::pair<double, double>> node_spans_s;
  node_spans_s.reserve(node_all.size());
  for (const orbit::ContactWindow& w : node_all)
    node_spans_s.emplace_back(
        (w.aos_jd - cfg.start_jd) * orbit::kSecondsPerDay,
        (w.los_jd - cfg.start_jd) * orbit::kSecondsPerDay);
  const double renewal_wait_s = expected_wait_s(
      node_spans_s, 0.0, sc.dts_days * orbit::kSecondsPerDay);
  const double measured_wait_s =
      waits.empty() ? std::numeric_limits<double>::quiet_NaN()
                    : std::accumulate(waits.sorted_samples().begin(),
                                      waits.sorted_samples().end(), 0.0) /
                          static_cast<double>(waits.size());
  // The renewal formula over *geometric* windows lower-bounds the real
  // wait: the DES additionally requires a decoded beacon (link closure),
  // so its first_tx can only be later. The gated score is the bound
  // ratio — above 1 would mean nodes transmitted outside visibility.
  report.scores.push_back(
      {"dts.wait.renewal_bound_ratio",
       measured_wait_s > 0.0
           ? renewal_wait_s / measured_wait_s
           : std::numeric_limits<double>::quiet_NaN()});

  report.scalars.push_back({"dts.reliability.measured",
                            reliability.reliability});
  report.scalars.push_back({"dts.reliability.analytic", analytic_delivery});
  report.scalars.push_back(
      {"dts.reports.generated",
       static_cast<double>(reliability.generated)});
  report.scalars.push_back(
      {"dts.reports.eligible", static_cast<double>(reliability.eligible)});
  report.scalars.push_back({"dts.wait_s.measured_mean", measured_wait_s});
  report.scalars.push_back({"dts.wait_s.renewal", renewal_wait_s});
  if (!latency.empty()) {
    report.scalars.push_back(
        {"dts.latency_s.median", latency.median()});
  }
  return report;
}

const BaselineSet::Scenario* BaselineSet::find_scenario(
    const std::string& name) const {
  for (const Scenario& sc : scenarios)
    if (sc.name == name) return &sc;
  return nullptr;
}

BaselineSet parse_baselines_json(const std::string& json) {
  obs::JsonCursor cur(json);
  BaselineSet out;
  bool schema_ok = false;
  obs::parse_json_object(cur, [&](const std::string& key) {
    if (key == "schema") {
      if (cur.parse_string() != kBaselineSchema)
        cur.fail("unsupported schema");
      schema_ok = true;
    } else if (key == "scenarios") {
      obs::parse_json_array(cur, [&] {
        BaselineSet::Scenario sc;
        obs::parse_json_object(cur, [&](const std::string& k) {
          if (k == "name") {
            sc.name = cur.parse_string();
          } else if (k == "thresholds") {
            obs::parse_json_array(cur, [&] {
              ScoreThreshold t;
              obs::parse_json_object(cur, [&](const std::string& f) {
                if (f == "score") t.score = cur.parse_string();
                else if (f == "max") t.max = cur.parse_double();
                else cur.fail("unknown threshold field '" + f + "'");
              });
              sc.thresholds.push_back(std::move(t));
            });
          } else {
            cur.fail("unknown scenario field '" + k + "'");
          }
        });
        out.scenarios.push_back(std::move(sc));
      });
    } else {
      cur.fail("unknown top-level key '" + key + "'");
    }
  });
  if (!schema_ok)
    throw std::runtime_error("baseline parse error: missing schema tag");
  return out;
}

BaselineSet read_baselines_file(const std::string& path) {
  std::ifstream in(path);
  if (!in)
    throw std::runtime_error("cannot open validation baselines " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_baselines_json(buf.str());
}

GateResult gate(const ValidationReport& report,
                const BaselineSet& baselines) {
  GateResult result;
  const BaselineSet::Scenario* sc =
      baselines.find_scenario(report.scenario);
  if (sc == nullptr) {
    result.passed = false;
    return result;
  }
  result.passed = true;
  result.checks.reserve(sc->thresholds.size());
  for (const ScoreThreshold& t : sc->thresholds) {
    GateCheck check;
    check.score = t.score;
    check.max = t.max;
    check.value = report.score_or_nan(t.score);
    // A missing score parses as NaN and NaN <= max is false, so both
    // regressions and schema drift fail the gate.
    check.ok = check.value <= t.max;
    if (!check.ok) result.passed = false;
    result.checks.push_back(std::move(check));
  }
  return result;
}

}  // namespace sinet::val
