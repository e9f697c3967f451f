#include "exp/sweep_runner.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <set>
#include <stdexcept>

#include "core/active_experiment.h"
#include "core/availability.h"
#include "core/passive_campaign.h"
#include "core/scenario.h"
#include "orbit/constellation.h"
#include "orbit/passes.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/scoped_timer.h"
#include "sim/rng.h"
#include "sim/thread_pool.h"
#include "stats/bootstrap.h"

namespace sinet::exp {

namespace {

PointMetrics run_active_point(const RunPoint& p) {
  core::ActiveExperimentKnobs knobs;
  knobs.duration_days = p.param_or("duration_days", 3.0);
  knobs.max_retransmissions =
      static_cast<int>(p.param_or("max_retransmissions", 5.0));
  knobs.payload_bytes = static_cast<int>(p.param_or("payload_bytes", 20.0));
  knobs.seed = p.seed;
  net::DtsNetworkConfig cfg = core::make_active_config(knobs);
  // The sweep already shards at point granularity; keep each point's
  // internal pass prediction and shard schedule serial so N points never
  // oversubscribe (the engine's results do not depend on its threads).
  cfg.pass_threads = 1;
  cfg.sim_threads = 1;
  const net::DtsNetworkResult res = net::run_dts_network(cfg);
  const double end_unix = orbit::julian_to_unix(cfg.start_jd) +
                          cfg.duration_days * 86400.0;
  const auto rel = core::summarize_reliability(res.uplinks, end_unix);
  const auto lat = core::summarize_latency(res);
  return {
      {"reliability", rel.reliability},
      {"delivered_fraction", res.delivered_fraction()},
      {"mean_latency_min", lat.mean_min},
      {"wait_min", lat.mean_breakdown.wait_for_pass_s / 60.0},
      {"delivery_min", lat.mean_breakdown.delivery_s / 60.0},
      {"mean_attempts", core::summarize_retx(res.uplinks).mean_attempts},
  };
}

PointMetrics run_passive_point(const RunPoint& p) {
  core::PassiveCampaignConfig cfg =
      core::default_campaign(p.param_or("duration_days", 2.0));
  cfg.seed = p.seed;
  cfg.threads = 1;
  const core::PassiveCampaignResult res = core::run_passive_campaign(cfg);
  const double tx = static_cast<double>(res.beacons_transmitted);
  const double rx = static_cast<double>(res.beacons_received);
  return {
      {"traces", static_cast<double>(res.traces.size())},
      {"beacons_transmitted", tx},
      {"beacons_received", rx},
      {"beacon_loss_fraction", tx > 0.0 ? 1.0 - rx / tx : 0.0},
  };
}

PointMetrics run_availability_point(const RunPoint& p) {
  core::MeasurementSite site;
  site.code = "SWP";
  site.city = "sweep";
  site.location = {p.param_or("latitude_deg", 22.3),
                   p.param_or("longitude_deg", 114.2), 0.0};
  core::AvailabilityOptions opts;
  opts.duration_days = p.param_or("duration_days", 2.0);
  opts.threads = 1;

  // One shared-ephemeris grid call across ALL paper constellations
  // instead of one cached batch per constellation: the engine shares the
  // coarse grid and GMST rotations across the combined TLE set. Per-TLE
  // windows (and therefore the merged presence values) are bit-identical
  // to per-constellation daily_presence_hours calls.
  const orbit::JulianDate start_jd = core::campaign_epoch_jd();
  const orbit::JulianDate end_jd = start_jd + opts.duration_days;
  orbit::PassPredictionOptions popts;
  popts.min_elevation_deg = opts.min_elevation_deg;
  popts.coarse_step_s = opts.pass_scan_step_s;

  const auto specs = orbit::paper_constellations();
  std::vector<orbit::Tle> tles;
  std::vector<std::pair<std::size_t, std::size_t>> spans;  // first, count
  for (const auto& spec : specs) {
    const auto spec_tles = orbit::generate_tles(spec, start_jd);
    spans.emplace_back(tles.size(), spec_tles.size());
    tles.insert(tles.end(), spec_tles.begin(), spec_tles.end());
  }
  const auto windows = orbit::predict_passes_grid_cached(
      tles, {orbit::GridObserver{site.location}}, start_jd, end_jd, popts,
      opts.threads, &orbit::ContactWindowCache::global(), opts.metrics);

  PointMetrics out;
  for (std::size_t c = 0; c < specs.size(); ++c) {
    std::vector<orbit::ContactWindow> all;
    for (std::size_t i = 0; i < spans[c].second; ++i) {
      const auto& ws = windows[spans[c].first + i][0];
      all.insert(all.end(), ws.begin(), ws.end());
    }
    out["presence_h." + specs[c].name] =
        orbit::daily_visible_seconds(orbit::merge_windows(std::move(all)),
                                     start_jd, end_jd) /
        3600.0;
  }
  return out;
}

std::uint64_t spec_fingerprint(const SweepSpec& spec) {
  // Any change to the spec (axes, values, replicates, seed, runner)
  // changes the serialized form and therefore the fingerprint, which is
  // what invalidates a stale manifest.
  return sim::derive_seed(spec.root_seed, to_json(spec));
}

std::string manifest_header_line(const SweepSpec& spec) {
  return "{\"schema\": \"" + std::string(kSweepManifestSchema) +
         "\", \"name\": \"" + obs::json_escape(spec.name) +
         "\", \"fingerprint\": " + obs::json_u64(spec_fingerprint(spec)) +
         "}";
}

std::string manifest_point_line(const RunPoint& p,
                                const PointMetrics& metrics) {
  std::string out = "{\"point\": " +
                    obs::json_u64(static_cast<std::uint64_t>(p.grid_index)) +
                    ", \"rep\": " +
                    obs::json_u64(static_cast<std::uint64_t>(p.replicate)) +
                    ", \"seed\": " + obs::json_u64(p.seed) +
                    ", \"metrics\": {";
  bool first = true;
  for (const auto& [k, v] : metrics) {
    if (!first) out += ", ";
    out += "\"" + obs::json_escape(k) + "\": " + obs::json_double(v);
    first = false;
  }
  return out + "}}";
}

struct ManifestEntry {
  std::size_t grid_index = 0;
  std::size_t replicate = 0;
  std::uint64_t seed = 0;
  PointMetrics metrics;
};

ManifestEntry parse_manifest_line(const std::string& line) {
  obs::JsonCursor cur(line);
  ManifestEntry e;
  obs::parse_json_object(cur, [&](const std::string& key) {
    if (key == "point") {
      e.grid_index = static_cast<std::size_t>(cur.parse_u64());
    } else if (key == "rep") {
      e.replicate = static_cast<std::size_t>(cur.parse_u64());
    } else if (key == "seed") {
      e.seed = cur.parse_u64();
    } else if (key == "metrics") {
      obs::parse_json_object(cur, [&](const std::string& k) {
        e.metrics[k] = cur.parse_double();
      });
    } else {
      cur.fail("unknown manifest field '" + key + "'");
    }
  });
  return e;
}

/// Load an existing manifest. Verifies the header fingerprint against
/// `spec`; a malformed FINAL point line is dropped (the torn write of a
/// killed run), a malformed line anywhere else is an error.
std::vector<ManifestEntry> load_manifest(const std::string& path,
                                         const SweepSpec& spec) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line))
    if (!line.empty()) lines.push_back(line);
  if (lines.empty()) return {};

  {
    obs::JsonCursor cur(lines.front());
    bool schema_ok = false;
    std::uint64_t fingerprint = 0;
    obs::parse_json_object(cur, [&](const std::string& key) {
      if (key == "schema") {
        if (cur.parse_string() != kSweepManifestSchema)
          cur.fail("unsupported manifest schema");
        schema_ok = true;
      } else if (key == "name") {
        (void)cur.parse_string();
      } else if (key == "fingerprint") {
        fingerprint = cur.parse_u64();
      } else {
        cur.fail("unknown manifest header field '" + key + "'");
      }
    });
    if (!schema_ok)
      throw std::runtime_error("sweep manifest " + path +
                               ": missing schema tag");
    if (fingerprint != spec_fingerprint(spec))
      throw std::runtime_error(
          "sweep manifest " + path +
          " was written for a different spec; rerun with --fresh or a "
          "matching spec");
  }

  std::vector<ManifestEntry> entries;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    try {
      entries.push_back(parse_manifest_line(lines[i]));
    } catch (const std::exception&) {
      if (i + 1 == lines.size()) break;  // torn final line: resume re-runs it
      throw;
    }
  }
  return entries;
}

/// Durable line-at-a-time appender: each append is flushed and fsync'd
/// so a completed point survives a kill at any later instant.
class ManifestAppender {
 public:
  ManifestAppender(const std::string& path, bool truncate) {
    file_ = std::fopen(path.c_str(), truncate ? "w" : "a");
    if (file_ == nullptr)
      throw std::runtime_error("cannot open sweep manifest " + path);
  }
  ~ManifestAppender() {
    if (file_ != nullptr) std::fclose(file_);
  }
  ManifestAppender(const ManifestAppender&) = delete;
  ManifestAppender& operator=(const ManifestAppender&) = delete;

  void append(const std::string& line) {
    std::lock_guard<std::mutex> lock(mutex_);
    std::fputs(line.c_str(), file_);
    std::fputc('\n', file_);
    std::fflush(file_);
    ::fsync(::fileno(file_));
  }

 private:
  std::mutex mutex_;
  std::FILE* file_ = nullptr;
};

}  // namespace

PointRunner built_in_runner(const std::string& name) {
  if (name == "active") return run_active_point;
  if (name == "passive") return run_passive_point;
  if (name == "availability") return run_availability_point;
  throw std::invalid_argument("unknown sweep runner '" + name + "'");
}

void SweepAccumulator::add(const RunPoint& point, PointMetrics metrics) {
  std::lock_guard<std::mutex> lock(mutex_);
  points_.emplace_back(point, std::move(metrics));
}

std::vector<std::pair<RunPoint, PointMetrics>>
SweepAccumulator::sorted_points() const {
  std::vector<std::pair<RunPoint, PointMetrics>> out;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    out = points_;
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.first.grid_index != b.first.grid_index
               ? a.first.grid_index < b.first.grid_index
               : a.first.replicate < b.first.replicate;
  });
  return out;
}

std::vector<CellAggregate> SweepAccumulator::aggregate(
    std::uint64_t root_seed, std::size_t bootstrap_resamples) const {
  const auto sorted = sorted_points();
  std::vector<CellAggregate> cells;
  for (std::size_t i = 0; i < sorted.size();) {
    CellAggregate cell;
    cell.grid_index = sorted[i].first.grid_index;
    cell.params = sorted[i].first.params;
    // Replicate-ordered samples per metric name across this cell.
    std::map<std::string, std::vector<double>> samples;
    for (; i < sorted.size() && sorted[i].first.grid_index == cell.grid_index;
         ++i)
      for (const auto& [name, value] : sorted[i].second)
        samples[name].push_back(value);
    for (const auto& [name, values] : samples) {
      MetricAggregate agg;
      agg.n = values.size();
      double sum = 0.0;
      for (const double v : values) sum += v;
      agg.mean = sum / static_cast<double>(values.size());
      if (values.size() >= 2) {
        double ss = 0.0;
        for (const double v : values) ss += (v - agg.mean) * (v - agg.mean);
        agg.stddev =
            std::sqrt(ss / static_cast<double>(values.size() - 1));
      }
      sim::Rng rng(sim::derive_seed(
          root_seed,
          "bootstrap/" + std::to_string(cell.grid_index) + "/" + name));
      const auto ci =
          stats::bootstrap_mean_ci(values, rng, bootstrap_resamples);
      agg.ci_low = ci.low;
      agg.ci_high = ci.high;
      cell.metrics.emplace(name, agg);
    }
    cells.push_back(std::move(cell));
  }
  return cells;
}

SweepResult run_sweep(const SweepSpec& spec, const PointRunner& runner,
                      const SweepOptions& opts) {
  obs::PhaseProfiler phases(opts.metrics, "net.sweep");
  phases.phase("expand");
  const std::vector<RunPoint> points = expand(spec);
  if (opts.metrics != nullptr) {
    opts.metrics->counter("net.sweep.points_total")
        .add(static_cast<std::uint64_t>(points.size()));
    opts.metrics->counter("net.sweep.cells")
        .add(static_cast<std::uint64_t>(spec.cell_count()));
  }

  phases.phase("resume");
  SweepAccumulator acc;
  std::set<std::pair<std::size_t, std::size_t>> done;
  if (!opts.manifest_path.empty() && !opts.fresh) {
    for (const ManifestEntry& e :
         load_manifest(opts.manifest_path, spec)) {
      const std::size_t index = e.grid_index * spec.replicates + e.replicate;
      if (e.grid_index >= spec.cell_count() || e.replicate >= spec.replicates)
        throw std::runtime_error("sweep manifest " + opts.manifest_path +
                                 ": point outside the spec grid");
      if (points[index].seed != e.seed)
        throw std::runtime_error("sweep manifest " + opts.manifest_path +
                                 ": seed mismatch (spec changed?)");
      if (done.insert({e.grid_index, e.replicate}).second)
        acc.add(points[index], e.metrics);
    }
  }

  std::vector<const RunPoint*> pending;
  for (const RunPoint& p : points)
    if (!done.contains({p.grid_index, p.replicate})) pending.push_back(&p);
  if (opts.max_points != 0 && pending.size() > opts.max_points)
    pending.resize(opts.max_points);

  phases.phase("execute");
  std::unique_ptr<ManifestAppender> manifest;
  if (!opts.manifest_path.empty()) {
    // A fresh (or first) run rewrites the file so it starts with the
    // header of exactly this spec.
    const bool truncate = opts.fresh || done.empty();
    manifest =
        std::make_unique<ManifestAppender>(opts.manifest_path, truncate);
    if (truncate) manifest->append(manifest_header_line(spec));
  }
  obs::Histogram* point_ms =
      opts.metrics != nullptr
          ? &opts.metrics->histogram("net.sweep.point_ms", 0.0, 60000.0, 60)
          : nullptr;
  const auto run_one = [&](std::size_t i) {
    const RunPoint& p = *pending[i];
    obs::ScopedTimer timer(point_ms);
    PointMetrics metrics = runner(p);
    if (manifest) manifest->append(manifest_point_line(p, metrics));
    acc.add(p, std::move(metrics));
  };
  if (opts.threads == 1 || pending.size() <= 1) {
    for (std::size_t i = 0; i < pending.size(); ++i) run_one(i);
  } else {
    sim::ThreadPool& shared = sim::ThreadPool::shared();
    if (opts.threads == 0 || opts.threads == shared.size()) {
      shared.parallel_for(pending.size(), run_one);
    } else {
      sim::ThreadPool local(opts.threads);
      local.parallel_for(pending.size(), run_one);
    }
  }

  phases.phase("aggregate");
  SweepResult result;
  result.spec = spec;
  result.resumed_points = done.size();
  result.executed_points = pending.size();
  result.points = acc.sorted_points();
  result.cells = acc.aggregate(spec.root_seed, opts.bootstrap_resamples);
  result.complete = result.points.size() == points.size();
  if (opts.metrics != nullptr) {
    opts.metrics->counter("net.sweep.points_resumed")
        .add(static_cast<std::uint64_t>(result.resumed_points));
    opts.metrics->counter("net.sweep.points_executed")
        .add(static_cast<std::uint64_t>(result.executed_points));
  }
  phases.stop();
  return result;
}

SweepResult run_sweep(const SweepSpec& spec, const SweepOptions& opts) {
  return run_sweep(spec, built_in_runner(spec.runner), opts);
}

std::string report_json(const SweepResult& result) {
  // Deliberately excludes resumed/executed bookkeeping: a resumed run
  // must serialize byte-identically to an uninterrupted one.
  std::string out = "{\n  \"schema\": \"";
  out += kSweepReportSchema;
  out += "\",\n  \"name\": \"" + obs::json_escape(result.spec.name) + "\",\n";
  out += "  \"runner\": \"" + obs::json_escape(result.spec.runner) + "\",\n";
  out += "  \"root_seed\": " + obs::json_u64(result.spec.root_seed) + ",\n";
  out += "  \"replicates\": " +
         obs::json_u64(static_cast<std::uint64_t>(result.spec.replicates)) +
         ",\n";
  out += "  \"points_total\": " +
         obs::json_u64(static_cast<std::uint64_t>(result.spec.point_count())) +
         ",\n";
  out += "  \"points_completed\": " +
         obs::json_u64(static_cast<std::uint64_t>(result.points.size())) +
         ",\n";
  out += std::string("  \"complete\": ") +
         (result.complete ? "true" : "false") + ",\n";
  out += "  \"cells\": [";
  for (std::size_t c = 0; c < result.cells.size(); ++c) {
    const CellAggregate& cell = result.cells[c];
    out += c == 0 ? "\n" : ",\n";
    out += "    {\"grid_index\": " +
           obs::json_u64(static_cast<std::uint64_t>(cell.grid_index)) +
           ", \"params\": {";
    for (std::size_t i = 0; i < cell.params.size(); ++i) {
      if (i > 0) out += ", ";
      out += '"';
      out += obs::json_escape(cell.params[i].first);
      out += "\": ";
      out += obs::json_double(cell.params[i].second);
    }
    out += "}, \"metrics\": {";
    bool first = true;
    for (const auto& [name, agg] : cell.metrics) {
      if (!first) out += ", ";
      out += '"';
      out += obs::json_escape(name);
      out += "\": {\"n\": ";
      out += obs::json_u64(static_cast<std::uint64_t>(agg.n));
      out += ", \"mean\": ";
      out += obs::json_double(agg.mean);
      out += ", \"stddev\": ";
      out += obs::json_double(agg.stddev);
      out += ", \"ci_low\": ";
      out += obs::json_double(agg.ci_low);
      out += ", \"ci_high\": ";
      out += obs::json_double(agg.ci_high);
      out += '}';
      first = false;
    }
    out += "}}";
  }
  out += result.cells.empty() ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

bool write_report_file(const std::string& path, const SweepResult& result) {
  std::ofstream out(path);
  if (!out) return false;
  out << report_json(result);
  return static_cast<bool>(out);
}

}  // namespace sinet::exp
