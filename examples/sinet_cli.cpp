// sinet — command-line front end to the framework.
//
//   sinet passes <lat> <lon> [constellation] [hours]   upcoming contacts
//   sinet availability <lat>                           daily hours/fleet
//   sinet campaign <site-code|all> <days> <out.csv>    passive campaign
//   sinet active <days>                                Tianqi farm run
//   sinet cost <sensors> <gateways>                    cost comparison
//   sinet tle <file.tle> <lat> <lon>                   passes from a real
//                                                      TLE catalog file
//   sinet sweep <spec.json> <report.json>              Monte-Carlo sweep
//                                                      (docs/SWEEPS.md)
//   sinet validate <scenario> <out.json>               cross-simulator
//                                                      validation report
//                                                      (docs/VALIDATION.md)
//   sinet dts --nodes N --sats K [...]                 population-scale
//                                                      DtS fleet run
//                                                      (machine-greppable
//                                                      key=value output)
//   sinet serve [--port P] [...]                       resident pass-
//                                                      prediction service
//                                                      (docs/SERVICE.md)
//   sinet loadgen --port P [...]                       closed-loop load
//                                                      generator against
//                                                      a live serve
//
// Thin argument handling on purpose: each subcommand is three or four
// calls into the public API, mirroring what downstream users would write.
//
// Signals: SIGINT/SIGTERM are blocked in every thread and consumed by a
// dedicated sigwait() watcher. Long-running subcommands therefore never
// lose a --metrics report to Ctrl-C: `serve` drains gracefully (exit 0,
// report written on the normal path), everything else flushes the
// registry with an `interrupted` info key and exits 128+signo.
#include <pthread.h>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <climits>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "args.h"
#include "core/active_experiment.h"
#include "core/availability.h"
#include "core/contact_analysis.h"
#include "core/passive_campaign.h"
#include "core/report.h"
#include "cost/cost_model.h"
#include "exp/sweep_runner.h"
#include "net/dts_network.h"
#include "obs/metrics.h"
#include "obs/run_report.h"
#include "orbit/passes.h"
#include "orbit/tle_catalog.h"
#include "svc/loadgen.h"
#include "svc/server.h"
#include "svc/service.h"
#include "trace/csv.h"
#include "val/validate.h"

using namespace sinet;
using namespace sinet::core;

namespace {

// Run-metrics sink for the current invocation; null unless --metrics was
// given. Subcommands thread it into the driver configs.
obs::MetricsRegistry* g_metrics = nullptr;

// State the signal watcher needs to flush a report from outside main's
// stack frame. Set before subcommand dispatch, then published through
// g_report_ready: the watcher thread already runs while main() writes
// these, and only the release/acquire pair orders the writes before its
// reads.
std::string g_metrics_path;
std::string g_command;
std::atomic<bool> g_report_ready{false};

// Live server, when `serve` is running: the first SIGINT/SIGTERM turns
// into a graceful drain instead of an exit. A stopper holds the mutex for
// its whole request_stop() call, and cmd_serve clears the pointer under
// it before the server is destroyed, so no stopper can outlive it.
std::mutex g_server_mutex;
svc::Server* g_server = nullptr;  // guarded by g_server_mutex

void set_live_server(svc::Server* server) {
  std::lock_guard<std::mutex> lock(g_server_mutex);
  g_server = server;
}

/// Ask the live server to drain, once; false when none is running.
bool stop_live_server() {
  std::lock_guard<std::mutex> lock(g_server_mutex);
  if (g_server == nullptr) return false;
  g_server->request_stop();
  g_server = nullptr;
  return true;
}

const char* signal_name(int sig) {
  return sig == SIGINT ? "SIGINT" : sig == SIGTERM ? "SIGTERM" : "signal";
}

/// Write the --metrics report (no-op without --metrics). `interrupted`
/// names the signal when the run did not finish on its own.
void write_metrics_report(const char* interrupted) {
  if (!g_report_ready.load(std::memory_order_acquire) || g_metrics == nullptr)
    return;
  g_metrics->set_info("tool", "sinet_cli");
  g_metrics->set_info("command", g_command);
  if (interrupted != nullptr) g_metrics->set_info("interrupted", interrupted);
  if (obs::write_json_file(g_metrics_path, g_metrics->snapshot()))
    std::printf("metrics written to %s\n", g_metrics_path.c_str());
  else
    std::fprintf(stderr, "cannot write metrics to %s\n",
                 g_metrics_path.c_str());
}

/// Runs in a detached thread with SIGINT/SIGTERM blocked everywhere
/// else, so sigwait() here is the only consumer. Ordinary thread
/// context, not a signal handler — locks and stdio are fine.
void signal_watcher(sigset_t set) {
  for (;;) {
    int sig = 0;
    if (sigwait(&set, &sig) != 0) return;
    // serve: begin graceful drain; main() writes the report after
    // wait() returns. A second signal falls through to the exit path.
    if (stop_live_server()) continue;
    write_metrics_report(signal_name(sig));
    std::fflush(nullptr);
    std::_Exit(128 + sig);
  }
}

// A numeric argument that did not parse throws UsageError; main() prints
// the message and the usage text and exits 2 — never runs an experiment
// on garbage (see args.h).
using examples::parse_double_arg;
using examples::UsageError;

int parse_int_arg(const char* text, const char* what) {
  errno = 0;
  char* end = nullptr;
  const long value = std::strtol(text, &end, 10);
  while (end != nullptr && std::isspace(static_cast<unsigned char>(*end)))
    ++end;
  if (end == text || end == nullptr || *end != '\0' || errno == ERANGE ||
      value < INT_MIN || value > INT_MAX)
    throw UsageError(std::string(what) + ": expected an integer, got '" +
                     text + "'");
  return static_cast<int>(value);
}

// A count (threads, workers, requests, ...). Cast to unsigned or size_t,
// a negative value would ask for billions of threads, or turn a queue
// bound into no bound at all.
int parse_count_arg(const char* text, const char* what) {
  const int value = parse_int_arg(text, what);
  if (value < 0)
    throw UsageError(std::string(what) +
                     ": expected a non-negative integer, got '" + text + "'");
  return value;
}

int usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  sinet [--metrics <out.json>] <subcommand> ...\n"
      "  sinet passes <lat> <lon> [constellation=Tianqi] [hours=24]\n"
      "  sinet availability <lat>\n"
      "  sinet campaign <site-code|all> <days> <out.csv>\n"
      "  sinet active <days>\n"
      "  sinet cost <sensors> <gateways>\n"
      "  sinet tle <file.tle> <lat> <lon>\n"
      "  sinet sweep <spec.json> <report.json> [--threads N]\n"
      "              [--max-points N] [--fresh]\n"
      "  sinet validate <scenario> <out.json> [--baselines <file>]\n"
      "                 [--threads N]\n"
      "  sinet dts --nodes N --sats K [--sites M=256] [--days D=1]\n"
      "            [--seed S=42] [--access aloha|scheduled]\n"
      "            [--interval SECONDS] [--threads N=all]\n"
      "  sinet serve [--port P=ephemeral] [--constellation NAME=all]\n"
      "              [--horizon-hours H=24] [--retention-hours H=0.25]\n"
      "              [--step SECONDS=30] [--min-elevation DEG=10]\n"
      "              [--cache-entries N] [--cache-mb MB]\n"
      "              [--epoch-unix S] [--time-scale X] [--workers N=2]\n"
      "              [--queue-capacity N=256] [--advance-period S=1]\n"
      "              [--max-seconds S=until-signal]\n"
      "  sinet loadgen --port P [--host H=127.0.0.1] [--requests N=1000]\n"
      "                [--connections N=4] [--observers N=10000]\n"
      "                [--zipf S=1.1] [--seed S=42] [--timeout S=30]\n"
      "\n"
      "  --metrics <out.json>  write a structured run report (thread-pool,\n"
      "                        pass-cache, DtS and campaign counters)\n"
      "                        after the subcommand finishes\n"
      "\n"
      "  sweep runs the Monte-Carlo campaign described by <spec.json>\n"
      "  (see docs/SWEEPS.md), checkpointing each completed point to\n"
      "  <report.json>.manifest; re-running the same command resumes an\n"
      "  interrupted sweep. --max-points stops after N new points,\n"
      "  --fresh discards an existing manifest.\n"
      "\n"
      "  validate runs the cross-simulator scenario ('reference' or\n"
      "  'quick'), writes a sinet.validation.v1 report to <out.json> and,\n"
      "  with --baselines, gates the divergence scores against the\n"
      "  committed thresholds (exit 1 on regression; docs/VALIDATION.md).\n"
      "\n"
      "  dts runs a population-scale direct-to-satellite fleet (synthetic\n"
      "  Tianqi-like shell, equal-area node spiral) and prints\n"
      "  machine-greppable key=value result lines; above 4096 nodes the\n"
      "  run keeps streaming aggregates only, so memory stays bounded at\n"
      "  millions of nodes (docs/PERFORMANCE.md).\n"
      "\n"
      "  serve answers newline-delimited JSON pass-prediction queries\n"
      "  (next_pass, passes_in_range, visibility_now, stats) from a warm\n"
      "  rolling ephemeris horizon; SIGINT/SIGTERM drain gracefully and\n"
      "  still write the --metrics report. loadgen replays a Zipf\n"
      "  observer-popularity mix against a running serve and prints\n"
      "  client-side RTT quantiles (docs/SERVICE.md).\n");
  return 2;
}

void print_passes(const std::vector<orbit::Tle>& catalog,
                  const orbit::Geodetic& where, double hours) {
  const orbit::JulianDate start = campaign_epoch_jd();
  Table t({"Satellite", "AOS (UTC)", "duration (min)", "max elev"});
  std::size_t count = 0;
  const auto all_windows = orbit::predict_passes_grid_cached(
      catalog, {orbit::GridObserver{where}}, start, start + hours / 24.0, {},
      0, &orbit::ContactWindowCache::global(), g_metrics);
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    const orbit::Tle& tle = catalog[i];
    for (const auto& w : all_windows[i][0]) {
      const orbit::CivilTime aos = orbit::civil_from_julian(w.aos_jd);
      char when[32];
      std::snprintf(when, sizeof(when), "%02d-%02d %02d:%02d", aos.month,
                    aos.day, aos.hour, aos.minute);
      t.add_row({tle.name.empty() ? std::to_string(tle.catalog_number)
                                  : tle.name,
                 when, fmt(w.duration_s() / 60.0, 1),
                 fmt(w.max_elevation_deg, 0) + " deg"});
      ++count;
    }
  }
  std::printf("%s%zu passes in the next %.0f h\n", t.render().c_str(),
              count, hours);
}

int cmd_passes(int argc, char** argv) {
  if (argc < 4) return usage();
  const orbit::Geodetic where{parse_double_arg(argv[2], "latitude"),
                              parse_double_arg(argv[3], "longitude"), 0.0};
  const std::string name = argc > 4 ? argv[4] : "Tianqi";
  const double hours =
      argc > 5 ? parse_double_arg(argv[5], "hours") : 24.0;
  const auto spec = orbit::paper_constellation(name);
  print_passes(orbit::generate_tles(spec, campaign_epoch_jd()), where,
               hours);
  return 0;
}

int cmd_availability(int argc, char** argv) {
  if (argc < 3) return usage();
  MeasurementSite site;
  site.code = "CLI";
  site.city = "cli";
  site.location = {parse_double_arg(argv[2], "latitude"), 114.0, 0.0};
  AvailabilityOptions opts;
  opts.duration_days = 2.0;
  opts.metrics = g_metrics;
  Table t({"Constellation", "# sats", "daily presence (h)"});
  for (const auto& spec : orbit::paper_constellations())
    t.add_row({spec.name, std::to_string(spec.total_satellites()),
               fmt(daily_presence_hours(spec, site, campaign_epoch_jd(),
                                        opts),
                   1)});
  std::printf("%s", t.render().c_str());
  return 0;
}

int cmd_campaign(int argc, char** argv) {
  if (argc < 5) return usage();
  PassiveCampaignConfig cfg =
      default_campaign(parse_double_arg(argv[3], "days"));
  cfg.metrics = g_metrics;
  if (std::strcmp(argv[2], "all") != 0) cfg.sites = {paper_site(argv[2])};
  const PassiveCampaignResult res = run_passive_campaign(cfg);
  std::ofstream out(argv[4]);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", argv[4]);
    return 1;
  }
  trace::write_beacon_csv(out, res.traces.records());
  std::printf("campaign complete: %zu traces -> %s\n", res.traces.size(),
              argv[4]);
  for (const auto& [site, counts] : res.windows_requested_observed)
    std::printf("  %s: observed %zu of %zu windows\n", site.c_str(),
                counts.second, counts.first);
  return 0;
}

int cmd_active(int argc, char** argv) {
  if (argc < 3) return usage();
  ActiveExperimentKnobs knobs;
  knobs.duration_days = parse_double_arg(argv[2], "days");
  knobs.metrics = g_metrics;
  const ActiveComparison cmp = run_active_comparison(knobs);
  const auto rel =
      summarize_reliability(cmp.satellite.uplinks, cmp.run_end_unix_s);
  const auto lat = summarize_latency(cmp.satellite);
  std::printf(
      "satellite: reliability %s, mean latency %.1f min\n"
      "terrestrial: reliability %s, mean latency %.2f min\n",
      fmt_pct(rel.reliability).c_str(), lat.mean_min,
      fmt_pct(cmp.terrestrial.delivered_fraction()).c_str(),
      cmp.terrestrial.mean_latency_s() / 60.0);
  return 0;
}

int cmd_cost(int argc, char** argv) {
  if (argc < 4) return usage();
  cost::Workload w;
  w.sensor_count = parse_int_arg(argv[2], "sensors");
  const int gateways = parse_int_arg(argv[3], "gateways");
  const cost::TerrestrialPricing tp;
  const cost::SatellitePricing sp;
  std::printf(
      "terrestrial: $%.0f construction + $%.1f/month\n"
      "satellite:   $%.0f construction + $%.2f/month\n"
      "break-even:  %.1f months\n",
      cost::terrestrial_construction_usd(w, gateways, tp),
      cost::terrestrial_monthly_usd(gateways, tp),
      cost::satellite_construction_usd(w, sp),
      cost::satellite_monthly_usd(w, sp),
      cost::breakeven_months(w, gateways, tp, sp));
  return 0;
}

int cmd_tle(int argc, char** argv) {
  if (argc < 5) return usage();
  std::ifstream in(argv[2]);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", argv[2]);
    return 1;
  }
  std::vector<orbit::Tle> catalog;
  try {
    catalog = orbit::read_tle_catalog(in);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
  std::printf("loaded %zu TLEs from %s\n", catalog.size(), argv[2]);
  // Deep-space entries cannot be flown by the near-earth propagator.
  std::vector<orbit::Tle> leo;
  for (const orbit::Tle& t : catalog) {
    if (t.is_deep_space())
      std::printf("  skipping %s (deep-space elements)\n", t.name.c_str());
    else
      leo.push_back(t);
  }
  print_passes(leo,
               {parse_double_arg(argv[3], "latitude"),
                parse_double_arg(argv[4], "longitude"), 0.0},
               24.0);
  return 0;
}

int cmd_sweep(int argc, char** argv) {
  if (argc < 4) return usage();
  exp::SweepOptions opts;
  opts.metrics = g_metrics;
  for (int i = 4; i < argc; ++i) {
    if (std::strcmp(argv[i], "--fresh") == 0) {
      opts.fresh = true;
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      opts.threads =
          static_cast<unsigned>(parse_count_arg(argv[++i], "--threads"));
    } else if (std::strcmp(argv[i], "--max-points") == 0 && i + 1 < argc) {
      opts.max_points = static_cast<std::size_t>(
          parse_count_arg(argv[++i], "--max-points"));
    } else {
      return usage();
    }
  }
  const exp::SweepSpec spec = exp::read_spec_file(argv[2]);
  const std::string report_path = argv[3];
  opts.manifest_path = report_path + ".manifest";

  const exp::SweepResult res = exp::run_sweep(spec, opts);
  if (!exp::write_report_file(report_path, res)) {
    std::fprintf(stderr, "cannot write %s\n", report_path.c_str());
    return 1;
  }

  std::printf("sweep '%s' (%s): %zu/%zu points (%zu resumed, %zu run)%s\n",
              spec.name.c_str(), spec.runner.c_str(), res.points.size(),
              spec.point_count(), res.resumed_points, res.executed_points,
              res.complete ? "" : " [incomplete]");
  Table t({"cell", "params", "metric", "mean", "95% CI", "n"});
  for (const auto& cell : res.cells) {
    std::string params;
    for (const auto& [k, v] : cell.params) {
      if (!params.empty()) params += " ";
      params += k + "=" + fmt(v, v == static_cast<int>(v) ? 0 : 2);
    }
    for (const auto& [name, agg] : cell.metrics)
      t.add_row({std::to_string(cell.grid_index), params, name,
                 fmt(agg.mean, 3),
                 std::string("[")
                     .append(fmt(agg.ci_low, 3))
                     .append(", ")
                     .append(fmt(agg.ci_high, 3))
                     .append("]"),
                 std::to_string(agg.n)});
  }
  std::printf("%sreport written to %s\n", t.render().c_str(),
              report_path.c_str());
  return 0;
}

int cmd_validate(int argc, char** argv) {
  if (argc < 4) return usage();
  std::string baselines_path;
  val::ValidationOptions opts;
  opts.metrics = g_metrics;
  for (int i = 4; i < argc; ++i) {
    if (std::strcmp(argv[i], "--baselines") == 0 && i + 1 < argc) {
      baselines_path = argv[++i];
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      opts.threads =
          static_cast<unsigned>(parse_count_arg(argv[++i], "--threads"));
    } else {
      return usage();
    }
  }

  const val::ValidationScenario scenario = val::validation_scenario(argv[2]);
  const val::ValidationReport report = val::run_validation(scenario, opts);
  if (!val::write_json_file(argv[3], report)) {
    std::fprintf(stderr, "cannot write %s\n", argv[3]);
    return 1;
  }
  std::printf("validation '%s': %zu windows, %zu uplinks -> %s\n",
              report.scenario.c_str(), report.windows.size(),
              report.link_records.size(), argv[3]);
  Table scores({"score", "value"});
  for (const auto& s : report.scores)
    scores.add_row({s.name, fmt(s.value, 6)});
  std::printf("%s", scores.render().c_str());

  if (baselines_path.empty()) return 0;
  const val::BaselineSet baselines =
      val::read_baselines_file(baselines_path);
  const val::GateResult gated = val::gate(report, baselines);
  Table t({"gate", "value", "max", "status"});
  for (const val::GateCheck& c : gated.checks)
    t.add_row({c.score, fmt(c.value, 6), fmt(c.max, 6),
               c.ok ? "ok" : "FAIL"});
  std::printf("%sgate: %s (%zu checks)\n", t.render().c_str(),
              gated.passed ? "PASS" : "FAIL", gated.checks.size());
  if (!gated.passed && baselines.find_scenario(report.scenario) == nullptr)
    std::fprintf(stderr, "no baseline thresholds for scenario '%s'\n",
                 report.scenario.c_str());
  return gated.passed ? 0 : 1;
}

// Population-scale DtS run. Output is machine-greppable key=value lines
// (one per line, no alignment) so the CI scale-smoke job can parse it
// with a plain regex.
int cmd_dts(int argc, char** argv) {
  long nodes = 0;
  long sats = 0;
  long sites = 256;
  double days = 1.0;
  long seed = 42;
  std::optional<double> interval_s;  // unset: the fleet's default
  long threads = 0;  // 0 = all hardware threads
  std::string access;
  for (int i = 2; i < argc; ++i) {
    const auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc)
        throw UsageError(std::string(what) + ": missing value");
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--nodes") == 0)
      nodes = parse_int_arg(next("--nodes"), "--nodes");
    else if (std::strcmp(argv[i], "--sats") == 0)
      sats = parse_int_arg(next("--sats"), "--sats");
    else if (std::strcmp(argv[i], "--sites") == 0)
      sites = parse_int_arg(next("--sites"), "--sites");
    else if (std::strcmp(argv[i], "--days") == 0)
      days = parse_double_arg(next("--days"), "--days");
    else if (std::strcmp(argv[i], "--seed") == 0)
      seed = parse_int_arg(next("--seed"), "--seed");
    else if (std::strcmp(argv[i], "--interval") == 0)
      interval_s = parse_double_arg(next("--interval"), "--interval");
    else if (std::strcmp(argv[i], "--threads") == 0)
      threads = parse_count_arg(next("--threads"), "--threads");
    else if (std::strcmp(argv[i], "--access") == 0)
      access = next("--access");
    else
      throw UsageError(std::string("dts: unknown argument '") + argv[i] +
                       "'");
  }
  if (nodes <= 0 || sats <= 0 || sites <= 0)
    throw UsageError("dts: --nodes and --sats are required and positive");

  net::DtsNetworkConfig cfg = net::scale_fleet_config(
      static_cast<std::size_t>(nodes), static_cast<std::size_t>(sats),
      static_cast<std::size_t>(sites), campaign_epoch_jd(), days);
  cfg.seed = static_cast<std::uint64_t>(seed);
  // Any given value goes to the config, whose validation refuses one that
  // is not positive.
  if (interval_s) cfg.fleet.prototype.report_interval_s = *interval_s;
  cfg.sim_threads = static_cast<unsigned>(threads);
  if (access == "aloha")
    cfg.uplink_access = net::UplinkAccess::kSlottedAloha;
  else if (access == "scheduled")
    cfg.uplink_access = net::UplinkAccess::kScheduled;
  else if (!access.empty())
    throw UsageError("dts: --access must be aloha|scheduled");

  // Always instrument: the gauges below are the point of the command.
  obs::MetricsRegistry local;
  obs::MetricsRegistry& reg = g_metrics != nullptr ? *g_metrics : local;
  cfg.metrics = &reg;

  const auto t0 = std::chrono::steady_clock::now();
  const net::DtsNetworkResult res = net::run_dts_network(cfg);
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  const obs::Snapshot snap = reg.snapshot();
  const auto gauge = [&snap](const char* name) {
    const auto it = snap.gauges.find(name);
    return it == snap.gauges.end() ? 0.0 : it->second.value;
  };
  std::printf("dts.nodes=%ld\n", nodes);
  std::printf("dts.sats=%ld\n", sats);
  std::printf("dts.days=%g\n", days);
  std::printf("dts.threads=%.0f\n", gauge("net.dts.parallel.threads"));
  std::printf("dts.reports_generated=%llu\n",
              static_cast<unsigned long long>(res.agg.reports_generated));
  std::printf("dts.eligible_generated=%llu\n",
              static_cast<unsigned long long>(res.agg.eligible_generated));
  std::printf("dts.delivered_fraction=%.6f\n", res.agg.delivered_fraction());
  std::printf("dts.eligible_pdr=%.6f\n",
              res.agg.eligible_delivered_fraction());
  std::printf("dts.mean_latency_s=%.3f\n", res.agg.mean_end_to_end_s());
  std::printf("dts.mean_wait_s=%.3f\n", res.agg.mean_wait_s());
  std::printf("dts.local_buffer_drops=%llu\n",
              static_cast<unsigned long long>(res.agg.local_buffer_drops));
  std::printf("dts.packets_abandoned=%llu\n",
              static_cast<unsigned long long>(res.agg.packets_abandoned));
  std::printf("dts.sat_buffer_drops=%llu\n",
              static_cast<unsigned long long>(
                  res.counters.satellite_buffer_drops));
  std::printf("dts.wall_s=%.3f\n", wall_s);
  // Shard work over the schedule's critical path: the speedup the slice
  // schedule allows with unlimited cores (timed, so it varies run to run).
  std::printf("dts.available_parallelism=%.2f\n",
              gauge("net.dts.parallel.available"));
  std::printf("dts.nodes_per_s=%.1f\n",
              wall_s > 0.0 ? static_cast<double>(nodes) / wall_s : 0.0);
  std::printf("dts.node_store_mb=%.2f\n",
              gauge("net.dts.scale.node_store_bytes") / (1024.0 * 1024.0));
  std::printf("dts.timeline_mb=%.2f\n",
              gauge("net.dts.scale.timeline_bytes") / (1024.0 * 1024.0));
  std::printf("dts.sat_buffer_peak_packets=%.0f\n",
              gauge("net.dts.scale.sat_buffer_peak_packets"));
  std::printf("dts.peak_rss_mb=%.1f\n",
              static_cast<double>(obs::process_peak_rss_bytes()) /
                  (1024.0 * 1024.0));
  return 0;
}

// Resident pass-prediction service (docs/SERVICE.md). Prints the bound
// port as a key=value line (and flushes stdout) before blocking, so
// scripts driving an ephemeral port can grep it from a pipe.
int cmd_serve(int argc, char** argv) {
  svc::ServiceOptions sopts;
  svc::ServerOptions ropts;
  double max_seconds = 0.0;  // 0 = run until SIGINT/SIGTERM
  for (int i = 2; i < argc; ++i) {
    const auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc)
        throw UsageError(std::string(what) + ": missing value");
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--port") == 0)
      ropts.port = parse_int_arg(next("--port"), "--port");
    else if (std::strcmp(argv[i], "--constellation") == 0)
      sopts.constellation = next("--constellation");
    else if (std::strcmp(argv[i], "--horizon-hours") == 0)
      sopts.horizon_hours =
          parse_double_arg(next("--horizon-hours"), "--horizon-hours");
    else if (std::strcmp(argv[i], "--retention-hours") == 0)
      sopts.retention_hours =
          parse_double_arg(next("--retention-hours"), "--retention-hours");
    else if (std::strcmp(argv[i], "--step") == 0)
      sopts.step_s = parse_double_arg(next("--step"), "--step");
    else if (std::strcmp(argv[i], "--min-elevation") == 0)
      sopts.min_elevation_deg =
          parse_double_arg(next("--min-elevation"), "--min-elevation");
    else if (std::strcmp(argv[i], "--cache-entries") == 0)
      sopts.cache_entries = static_cast<std::size_t>(
          parse_count_arg(next("--cache-entries"), "--cache-entries"));
    else if (std::strcmp(argv[i], "--cache-mb") == 0)
      sopts.cache_bytes =
          static_cast<std::size_t>(
              parse_count_arg(next("--cache-mb"), "--cache-mb"))
          << 20;
    else if (std::strcmp(argv[i], "--epoch-unix") == 0)
      sopts.epoch_unix_s =
          parse_double_arg(next("--epoch-unix"), "--epoch-unix");
    else if (std::strcmp(argv[i], "--time-scale") == 0)
      sopts.time_scale =
          parse_double_arg(next("--time-scale"), "--time-scale");
    else if (std::strcmp(argv[i], "--workers") == 0)
      ropts.workers = static_cast<unsigned>(
          parse_count_arg(next("--workers"), "--workers"));
    else if (std::strcmp(argv[i], "--queue-capacity") == 0)
      ropts.queue_capacity = static_cast<std::size_t>(
          parse_count_arg(next("--queue-capacity"), "--queue-capacity"));
    else if (std::strcmp(argv[i], "--advance-period") == 0)
      ropts.advance_period_s =
          parse_double_arg(next("--advance-period"), "--advance-period");
    else if (std::strcmp(argv[i], "--max-seconds") == 0)
      max_seconds = parse_double_arg(next("--max-seconds"), "--max-seconds");
    else
      throw UsageError(std::string("serve: unknown argument '") + argv[i] +
                       "'");
  }

  obs::MetricsRegistry local;
  obs::MetricsRegistry& reg = g_metrics != nullptr ? *g_metrics : local;
  svc::PassService service(sopts, &reg);
  svc::Server server(service, ropts, &reg);
  set_live_server(&server);
  std::printf("serve.port=%d\n", server.port());
  std::printf("serve.satellites=%zu\n", service.satellite_count());
  std::printf("serve.horizon_hours=%g\n", sopts.horizon_hours);
  std::fflush(stdout);

  // Optional wall-clock cap (CI smoke / tests): graceful stop after
  // max_seconds unless a signal got there first.
  std::mutex timer_mutex;
  std::condition_variable timer_cv;
  bool timer_cancel = false;
  std::thread timer;
  if (max_seconds > 0.0)
    timer = std::thread([&] {
      std::unique_lock<std::mutex> lock(timer_mutex);
      timer_cv.wait_for(lock, std::chrono::duration<double>(max_seconds),
                        [&] { return timer_cancel; });
      stop_live_server();
    });

  server.wait();
  set_live_server(nullptr);
  if (timer.joinable()) {
    {
      std::lock_guard<std::mutex> lock(timer_mutex);
      timer_cancel = true;
    }
    timer_cv.notify_all();
    timer.join();
  }

  const svc::StatsPayload stats = service.stats_payload();
  const obs::Snapshot snap = reg.snapshot();
  const auto it = snap.histograms.find("svc.request_latency_ms");
  const double p50 =
      it != snap.histograms.end() ? obs::snapshot_quantile(it->second, 0.50)
                                  : 0.0;
  const double p99 =
      it != snap.histograms.end() ? obs::snapshot_quantile(it->second, 0.99)
                                  : 0.0;
  std::printf("serve.requests=%llu\n",
              static_cast<unsigned long long>(stats.requests));
  std::printf("serve.errors=%llu\n",
              static_cast<unsigned long long>(stats.errors));
  std::printf("serve.shed=%llu\n",
              static_cast<unsigned long long>(stats.shed));
  std::printf("serve.cache_hits=%llu\n",
              static_cast<unsigned long long>(stats.cache_hits));
  std::printf("serve.cache_misses=%llu\n",
              static_cast<unsigned long long>(stats.cache_misses));
  std::printf("serve.cache_bytes=%llu\n",
              static_cast<unsigned long long>(stats.cache_bytes));
  std::printf("serve.horizon_advances=%llu\n",
              static_cast<unsigned long long>(stats.horizon_advances));
  std::printf("serve.horizon_resident_mb=%.2f\n",
              static_cast<double>(stats.horizon_resident_bytes) /
                  (1024.0 * 1024.0));
  std::printf("serve.p50_ms=%.3f\n", p50);
  std::printf("serve.p99_ms=%.3f\n", p99);
  return 0;
}

// Closed-loop Zipf load generator (docs/SERVICE.md). Exit status stays 0
// even when the server sheds: the SLO gates read the printed key=value
// lines / --metrics report, not the exit code.
int cmd_loadgen(int argc, char** argv) {
  svc::LoadgenOptions opts;
  for (int i = 2; i < argc; ++i) {
    const auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc)
        throw UsageError(std::string(what) + ": missing value");
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--port") == 0)
      opts.port = parse_int_arg(next("--port"), "--port");
    else if (std::strcmp(argv[i], "--host") == 0)
      opts.host = next("--host");
    else if (std::strcmp(argv[i], "--requests") == 0)
      opts.requests = static_cast<std::size_t>(
          parse_count_arg(next("--requests"), "--requests"));
    else if (std::strcmp(argv[i], "--connections") == 0)
      opts.connections = static_cast<std::size_t>(
          parse_count_arg(next("--connections"), "--connections"));
    else if (std::strcmp(argv[i], "--observers") == 0)
      opts.observers = static_cast<std::size_t>(
          parse_count_arg(next("--observers"), "--observers"));
    else if (std::strcmp(argv[i], "--zipf") == 0)
      opts.zipf_s = parse_double_arg(next("--zipf"), "--zipf");
    else if (std::strcmp(argv[i], "--seed") == 0)
      opts.seed = static_cast<std::uint64_t>(
          parse_int_arg(next("--seed"), "--seed"));
    else if (std::strcmp(argv[i], "--timeout") == 0)
      opts.timeout_s = parse_double_arg(next("--timeout"), "--timeout");
    else
      throw UsageError(std::string("loadgen: unknown argument '") + argv[i] +
                       "'");
  }
  if (opts.port <= 0)
    throw UsageError("loadgen: --port is required (see `sinet serve`)");

  obs::MetricsRegistry local;
  obs::MetricsRegistry& reg = g_metrics != nullptr ? *g_metrics : local;
  const svc::LoadgenResult res = svc::run_loadgen(opts, &reg);
  std::printf("loadgen.sent=%zu\n", res.sent);
  std::printf("loadgen.ok=%zu\n", res.ok);
  std::printf("loadgen.shed=%zu\n", res.shed);
  std::printf("loadgen.errors=%zu\n", res.errors);
  std::printf("loadgen.elapsed_s=%.3f\n", res.elapsed_s);
  std::printf("loadgen.throughput_rps=%.1f\n", res.throughput_rps);
  std::printf("loadgen.p50_ms=%.3f\n", res.p50_ms);
  std::printf("loadgen.p90_ms=%.3f\n", res.p90_ms);
  std::printf("loadgen.p99_ms=%.3f\n", res.p99_ms);
  std::printf("loadgen.max_ms=%.3f\n", res.max_ms);
  std::printf("loadgen.mean_ms=%.3f\n", res.mean_ms);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Route SIGINT/SIGTERM through the sigwait() watcher: blocked here
  // before any thread exists, so every later thread inherits the mask
  // and the watcher is the sole consumer.
  sigset_t sigs;
  sigemptyset(&sigs);
  sigaddset(&sigs, SIGINT);
  sigaddset(&sigs, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &sigs, nullptr);
  std::thread(signal_watcher, sigs).detach();

  // Strip the global --metrics flag before subcommand dispatch so every
  // subcommand keeps its positional argument layout.
  std::vector<char*> args(argv, argv + argc);
  std::string metrics_path;
  for (std::size_t i = 1; i + 1 < args.size(); ++i) {
    if (std::strcmp(args[i], "--metrics") == 0) {
      metrics_path = args[i + 1];
      args.erase(args.begin() + static_cast<std::ptrdiff_t>(i),
                 args.begin() + static_cast<std::ptrdiff_t>(i) + 2);
      break;
    }
  }
  argc = static_cast<int>(args.size());
  argv = args.data();
  if (argc < 2) return usage();

  obs::MetricsRegistry registry;
  if (!metrics_path.empty()) {
    g_metrics = &registry;
    g_metrics_path = metrics_path;
  }

  const std::string cmd = argv[1];
  g_command = cmd;
  g_report_ready.store(true, std::memory_order_release);
  int rc = 2;
  try {
    if (cmd == "passes") rc = cmd_passes(argc, argv);
    else if (cmd == "availability") rc = cmd_availability(argc, argv);
    else if (cmd == "campaign") rc = cmd_campaign(argc, argv);
    else if (cmd == "active") rc = cmd_active(argc, argv);
    else if (cmd == "cost") rc = cmd_cost(argc, argv);
    else if (cmd == "tle") rc = cmd_tle(argc, argv);
    else if (cmd == "sweep") rc = cmd_sweep(argc, argv);
    else if (cmd == "validate") rc = cmd_validate(argc, argv);
    else if (cmd == "dts") rc = cmd_dts(argc, argv);
    else if (cmd == "serve") rc = cmd_serve(argc, argv);
    else if (cmd == "loadgen") rc = cmd_loadgen(argc, argv);
    else return usage();
  } catch (const UsageError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    rc = 1;
  }

  if (rc == 0) write_metrics_report(nullptr);
  return rc;
}
