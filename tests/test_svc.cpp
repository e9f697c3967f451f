// Robustness and behavior tests for the resident pass-prediction
// service (src/svc): wire-protocol parsing, PassService query handling
// on a warm rolling horizon, and the TCP server's framing, admission
// control and graceful drain. The protocol contract under test: every
// malformed, hostile or oversized input produces a TYPED error response
// — never a crash, never a hang, never a silently dropped request on a
// live connection. This suite runs under the same sanitizer config as
// the rest of tier-1, so the concurrency paths are exercised checked.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "core/scenario.h"
#include "next_pass_oracle.h"
#include "obs/metrics.h"
#include "orbit/constellation.h"
#include "orbit/ephemeris.h"
#include "orbit/time.h"
#include "svc/loadgen.h"
#include "svc/protocol.h"
#include "svc/server.h"
#include "svc/service.h"

namespace sinet {
namespace {

using svc::ErrorCode;
using svc::PassService;
using svc::ProtocolError;
using svc::Request;
using svc::RequestType;
using svc::ServerOptions;
using svc::ServiceOptions;

double test_epoch_unix_s() {
  return orbit::julian_to_unix(core::campaign_epoch_jd());
}

/// Small deterministic service: 3 FOSSA satellites, fixed virtual epoch.
ServiceOptions small_service_options() {
  ServiceOptions o;
  o.constellation = "FOSSA";
  o.horizon_hours = 6.0;
  o.retention_hours = 0.1;
  o.chunk_samples = 256;
  o.epoch_unix_s = test_epoch_unix_s();
  return o;
}

void expect_error(const std::string& response, const char* code,
                  const std::string& label) {
  EXPECT_NE(response.find("\"ok\":false"), std::string::npos) << label;
  EXPECT_NE(response.find(std::string("\"error\":\"") + code + "\""),
            std::string::npos)
      << label << ": " << response;
}

// ---- raw-socket helpers (deliberately independent of svc/loadgen) ----

int connect_to_port(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  timeval tv{};
  tv.tv_sec = 30;  // a hang is a bug; fail the recv instead
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  return fd;
}

bool send_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// Read one newline-terminated line; empty string on timeout / EOF.
std::string recv_line(int fd, std::string& buffer) {
  for (;;) {
    const std::size_t nl = buffer.find('\n');
    if (nl != std::string::npos) {
      const std::string line = buffer.substr(0, nl);
      buffer.erase(0, nl + 1);
      return line;
    }
    char chunk[4096];
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) return std::string();
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
}

// ------------------------- protocol parsing --------------------------

TEST(SvcProtocol, ParsesFullRequestAndSkipsUnknownKeys) {
  const Request r = svc::parse_request(
      "{\"type\":\"next_pass\",\"id\":7,\"lat_deg\":22.3,"
      "\"lon_deg\":114.2,\"alt_km\":0.05,\"min_elevation_deg\":15,"
      "\"after_unix_s\":123.5,"
      "\"future_key\":{\"nested\":[1,\"two\",{\"deep\":true}]}}");
  EXPECT_EQ(r.type, RequestType::kNextPass);
  ASSERT_TRUE(r.has_id);
  EXPECT_EQ(r.id, 7u);
  EXPECT_DOUBLE_EQ(r.observer.latitude_deg, 22.3);
  EXPECT_DOUBLE_EQ(r.observer.longitude_deg, 114.2);
  EXPECT_DOUBLE_EQ(r.observer.altitude_km, 0.05);
  EXPECT_DOUBLE_EQ(r.min_elevation_deg, 15.0);
  EXPECT_DOUBLE_EQ(r.after_unix_s, 123.5);

  // Optional fields parse to NaN = "use the server default".
  const Request d = svc::parse_request(
      "{\"type\":\"visibility_now\",\"lat_deg\":0,\"lon_deg\":0}");
  EXPECT_TRUE(std::isnan(d.min_elevation_deg));
  EXPECT_FALSE(d.has_id);

  const Request s = svc::parse_request("{\"type\":\"stats\"}");
  EXPECT_EQ(s.type, RequestType::kStats);
}

void expect_protocol_error(const std::string& line, ErrorCode code,
                           const std::string& label) {
  try {
    (void)svc::parse_request(line);
    FAIL() << label << ": no exception";
  } catch (const ProtocolError& e) {
    EXPECT_EQ(e.code(), code) << label << ": " << e.what();
  }
}

TEST(SvcProtocol, EveryFailureIsTyped) {
  using EC = ErrorCode;
  expect_protocol_error("not json at all", EC::kParse, "garbage");
  expect_protocol_error("", EC::kParse, "empty");
  expect_protocol_error("{\"type\":\"next_pass\",\"lat_deg\":\"north\","
                        "\"lon_deg\":0}",
                        EC::kParse, "wrong value type");
  expect_protocol_error("{\"type\":\"next_pass\",\"lat_deg\":1",
                        EC::kParse, "truncated object");
  expect_protocol_error("{\"type\":\"hyperdrive\"}", EC::kUnknownType,
                        "unknown type");
  expect_protocol_error("{\"lat_deg\":1,\"lon_deg\":2}", EC::kBadRequest,
                        "missing type");
  expect_protocol_error("{\"type\":\"next_pass\",\"lon_deg\":2}",
                        EC::kBadRequest, "missing lat");
  expect_protocol_error(
      "{\"type\":\"next_pass\",\"lat_deg\":91,\"lon_deg\":0}",
      EC::kBadRequest, "lat out of range");
  expect_protocol_error(
      "{\"type\":\"next_pass\",\"lat_deg\":0,\"lon_deg\":0,"
      "\"min_elevation_deg\":120}",
      EC::kBadRequest, "mask out of range");
  expect_protocol_error(
      "{\"type\":\"passes_in_range\",\"lat_deg\":0,\"lon_deg\":0}",
      EC::kBadRequest, "missing range");
  expect_protocol_error(
      "{\"type\":\"passes_in_range\",\"lat_deg\":0,\"lon_deg\":0,"
      "\"start_unix_s\":100,\"end_unix_s\":50}",
      EC::kBadRequest, "inverted range");
}

TEST(SvcProtocol, ErrorResponsesCarryCodeRetryAndId) {
  Request req;
  req.has_id = true;
  req.id = 42;
  const std::string shed = svc::error_response(
      ErrorCode::kOverloaded, "queue full", &req, /*retry_after_ms=*/75);
  expect_error(shed, "overloaded", "shed");
  EXPECT_NE(shed.find("\"retry_after_ms\":75"), std::string::npos);
  EXPECT_NE(shed.find("\"id\":42"), std::string::npos);

  // retry_after_ms is overload-specific; other codes never carry it.
  const std::string parse =
      svc::error_response(ErrorCode::kParse, "bad", nullptr, 75);
  expect_error(parse, "parse", "parse");
  EXPECT_EQ(parse.find("retry_after_ms"), std::string::npos);
}

// ------------------------ PassService queries ------------------------

TEST(SvcService, AnswersQueriesOnWarmHorizonAndEchoesIds) {
  obs::MetricsRegistry metrics;
  PassService service(small_service_options(), &metrics);
  EXPECT_EQ(service.satellite_count(), 3u);

  // FOSSA flies polar sun-synchronous orbits: a high-latitude site is
  // guaranteed several passes inside a 6 h horizon.
  const std::string next = service.handle_line(
      "{\"type\":\"next_pass\",\"id\":9,\"lat_deg\":60.17,"
      "\"lon_deg\":24.94}");
  EXPECT_NE(next.find("\"ok\":true"), std::string::npos) << next;
  EXPECT_NE(next.find("\"found\":true"), std::string::npos) << next;
  EXPECT_NE(next.find("\"id\":9"), std::string::npos) << next;
  EXPECT_NE(next.find("\"horizon_end_unix_s\""), std::string::npos);

  // The whole-horizon range query sees at least that same pass, sorted.
  const std::string range = service.handle_line(
      "{\"type\":\"passes_in_range\",\"lat_deg\":60.17,\"lon_deg\":24.94,"
      "\"start_unix_s\":0,\"end_unix_s\":253402300800}");
  EXPECT_NE(range.find("\"ok\":true"), std::string::npos) << range;
  EXPECT_EQ(range.find("\"count\":0,"), std::string::npos) << range;

  const std::string vis = service.handle_line(
      "{\"type\":\"visibility_now\",\"lat_deg\":60.17,\"lon_deg\":24.94,"
      "\"min_elevation_deg\":-90}");
  EXPECT_NE(vis.find("\"ok\":true"), std::string::npos) << vis;
  EXPECT_NE(vis.find("\"visible\":["), std::string::npos) << vis;

  const std::string stats = service.handle_line("{\"type\":\"stats\"}");
  EXPECT_NE(stats.find("\"ok\":true"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"satellites\":3"), std::string::npos) << stats;

  // A repeated query must be served from the ContactWindowCache (which
  // only passes_in_range reads; next_pass searches the horizon itself).
  (void)service.handle_line(
      "{\"type\":\"passes_in_range\",\"lat_deg\":60.17,\"lon_deg\":24.94,"
      "\"start_unix_s\":0,\"end_unix_s\":253402300800}");
  const auto payload = service.stats_payload();
  EXPECT_GT(payload.cache_hits, 0u);
  EXPECT_GT(payload.cache_misses, 0u);
  EXPECT_GT(payload.cache_bytes, 0u);
  EXPECT_EQ(payload.requests, 5u);

  // svc.* metrics recorded per request, with a usable latency histogram.
  const auto snap = metrics.snapshot();
  EXPECT_EQ(snap.counters.at("svc.requests"), 5u);
  EXPECT_EQ(snap.counters.at("svc.requests.passes_in_range"), 2u);
  EXPECT_EQ(snap.counters.at("svc.requests.next_pass"), 1u);
  const auto& hist = snap.histograms.at("svc.request_latency_ms");
  EXPECT_EQ(hist.total, 5u);
  EXPECT_FALSE(std::isnan(obs::snapshot_quantile(hist, 0.99)));
}

TEST(SvcService, HandleLineNeverThrowsAndCountsErrors) {
  obs::MetricsRegistry metrics;
  PassService service(small_service_options(), &metrics);
  expect_error(service.handle_line("][;'#"), "parse", "garbage");
  expect_error(service.handle_line("{\"type\":\"warp\"}"), "unknown_type",
               "unknown");
  expect_error(service.handle_line("{\"type\":\"next_pass\"}"),
               "bad_request", "missing observer");
  // Errors echo the id too, when it parsed before the failure.
  const std::string bad = service.handle_line(
      "{\"id\":3,\"type\":\"next_pass\",\"lat_deg\":99,\"lon_deg\":0}");
  expect_error(bad, "bad_request", "bad lat");
  EXPECT_NE(bad.find("\"id\":3"), std::string::npos) << bad;

  EXPECT_EQ(service.stats_payload().errors, 4u);
  const auto snap = metrics.snapshot();
  EXPECT_EQ(snap.counters.at("svc.errors.parse"), 1u);
  EXPECT_EQ(snap.counters.at("svc.errors.unknown_type"), 1u);
  EXPECT_EQ(snap.counters.at("svc.errors.bad_request"), 2u);
}

TEST(SvcService, RefusesAHorizonOfTooManySamples) {
  // 6.1 h at 0.2 s is 109,800 samples per satellite; at 0.25 s, 87,840.
  ServiceOptions opts = small_service_options();
  opts.step_s = 0.2;
  try {
    PassService service(opts);
    ADD_FAILURE() << "a 0.2 s step over 6.1 h was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("step_s 0.2 s gives 1.1e+05 "
                                         "samples per satellite"),
              std::string::npos)
        << e.what();
  }
  opts.horizon_hours = std::numeric_limits<double>::infinity();
  opts.step_s = 30.0;
  EXPECT_THROW(PassService{opts}, std::invalid_argument);
}

TEST(SvcService, VirtualClockAdvancesAndRetiresHorizon) {
  ServiceOptions opts = small_service_options();
  opts.horizon_hours = 2.0;
  opts.retention_hours = 0.25;
  opts.time_scale = 1e5;  // 1 real second = ~28 virtual hours
  PassService service(opts);

  const auto before = service.stats_payload();
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  (void)service.advance_horizon();
  const auto after = service.stats_payload();
  EXPECT_GT(after.now_unix_s, before.now_unix_s + 1000.0);
  EXPECT_GT(after.horizon_advances, before.horizon_advances);
  // The leading edge extended and the trailing edge retired.
  EXPECT_GT(after.horizon_end_unix_s, before.horizon_end_unix_s);
  EXPECT_GT(after.horizon_start_unix_s, before.horizon_start_unix_s);
  // Queries still answer on the advanced horizon.
  EXPECT_NE(service
                .handle_line("{\"type\":\"next_pass\",\"lat_deg\":60.17,"
                             "\"lon_deg\":24.94}")
                .find("\"ok\":true"),
            std::string::npos);
}

// next_pass replies, byte for byte, against the reply built from the
// full-scan selection (tests/next_pass_oracle.h) on a replica of the
// service's horizon: the same fleet, epoch, grid and chunks.
TEST(SvcService, NextPassRepliesMatchFullScan) {
  const ServiceOptions opts = small_service_options();
  PassService service(opts);
  const svc::StatsPayload stats = service.stats_payload();

  const orbit::JulianDate epoch_jd = orbit::unix_to_julian(opts.epoch_unix_s);
  const std::vector<orbit::Tle> tles = orbit::generate_tles(
      orbit::paper_constellation(opts.constellation), epoch_jd, 51000);
  ASSERT_EQ(tles.size(), service.satellite_count());
  std::vector<orbit::Sgp4> props;
  props.reserve(tles.size());
  for (const orbit::Tle& t : tles) props.emplace_back(t);
  std::vector<const orbit::Sgp4*> sats;
  for (const orbit::Sgp4& p : props) sats.push_back(&p);
  orbit::RollingEphemeris::Options ropts;
  ropts.coarse_step_s = opts.step_s;
  ropts.chunk_samples = opts.chunk_samples;
  ropts.mode = opts.mode;
  orbit::RollingEphemeris rolling(sats, epoch_jd, ropts);
  (void)rolling.advance(epoch_jd - opts.retention_hours / 24.0,
                        epoch_jd + opts.horizon_hours / 24.0);
  const orbit::JulianDate h_start = rolling.start_time();
  const orbit::JulianDate h_end = rolling.end_time();
  ASSERT_EQ(orbit::julian_to_unix(h_start), stats.horizon_start_unix_s);
  ASSERT_EQ(orbit::julian_to_unix(h_end), stats.horizon_end_unix_s);

  const orbit::Geodetic sites[] = {{60.17, 24.94, 0.0},
                                   {22.3, 114.2, 0.05},
                                   {-33.87, 151.2, 0.02},
                                   {78.2, 15.6, 0.5}};
  const double masks[] = {std::numeric_limits<double>::quiet_NaN(), 0.0,
                          25.0};
  std::size_t sent = 0, found = 0;
  for (const orbit::Geodetic& site : sites) {
    for (const double mask : masks) {
      orbit::PassPredictionOptions popts;
      popts.min_elevation_deg =
          std::isnan(mask) ? opts.min_elevation_deg : mask;
      popts.coarse_step_s = opts.step_s;
      const auto windows =
          rolling.scan_observer(orbit::GridObserver{site}, popts);

      std::vector<double> after{orbit::julian_to_unix(h_start) - 3600.0,
                                orbit::julian_to_unix(h_start),
                                orbit::julian_to_unix(h_end),
                                orbit::julian_to_unix(h_end) + 3600.0};
      for (int i = 1; i < 8; ++i)
        after.push_back(orbit::julian_to_unix(h_start + (h_end - h_start) *
                                                            i / 8.0));
      for (const auto& sat_windows : windows)
        for (std::size_t w = 0; w < sat_windows.size() && w < 2; ++w)
          for (const orbit::JulianDate edge :
               {sat_windows[w].aos_jd, sat_windows[w].los_jd}) {
            const double t = orbit::julian_to_unix(edge);
            after.insert(after.end(),
                         {t, std::nextafter(t, 0.0), std::nextafter(t, 1e300)});
          }

      for (const double a : after) {
        char line[320];
        if (std::isnan(mask))
          std::snprintf(line, sizeof(line),
                        "{\"type\":\"next_pass\",\"id\":%zu,\"lat_deg\":%.17g,"
                        "\"lon_deg\":%.17g,\"alt_km\":%.17g,"
                        "\"after_unix_s\":%.17g}",
                        sent, site.latitude_deg, site.longitude_deg,
                        site.altitude_km, a);
        else
          std::snprintf(line, sizeof(line),
                        "{\"type\":\"next_pass\",\"id\":%zu,\"lat_deg\":%.17g,"
                        "\"lon_deg\":%.17g,\"alt_km\":%.17g,"
                        "\"min_elevation_deg\":%.17g,\"after_unix_s\":%.17g}",
                        sent, site.latitude_deg, site.longitude_deg,
                        site.altitude_km, mask, a);
        const Request req = svc::parse_request(line);
        const auto want = testing::oracle_next_pass(
            windows, std::clamp(orbit::unix_to_julian(req.after_unix_s),
                                h_start, h_end));
        svc::PassEntry entry;
        if (want.found) {
          ++found;
          entry.satellite = tles[want.satellite].name;
          entry.catalog_number = tles[want.satellite].catalog_number;
          entry.aos_unix_s = orbit::julian_to_unix(want.window.aos_jd);
          entry.los_unix_s = orbit::julian_to_unix(want.window.los_jd);
          entry.tca_unix_s = orbit::julian_to_unix(want.window.tca_jd);
          entry.max_elevation_deg = want.window.max_elevation_deg;
        }
        EXPECT_EQ(service.handle_line(line),
                  svc::next_pass_response(req, want.found ? &entry : nullptr,
                                          orbit::julian_to_unix(h_end)))
            << line;
        ++sent;
      }
    }
  }
  EXPECT_GT(found, 0u);
  EXPECT_LT(found, sent);
}

// Every parsed request lands in its type's handler-time histogram, so
// each histogram's total equals its svc.requests.<type> counter; a
// request that fails to parse has no type and counts only overall.
TEST(SvcService, PerTypeLatencyHistogramsMatchRequestCounters) {
  obs::MetricsRegistry metrics;
  PassService service(small_service_options(), &metrics);
  const std::string next =
      "{\"type\":\"next_pass\",\"lat_deg\":60.17,\"lon_deg\":24.94}";
  for (int i = 0; i < 3; ++i) (void)service.handle_line(next);
  (void)service.handle_line(
      "{\"type\":\"visibility_now\",\"lat_deg\":1,\"lon_deg\":2}");
  (void)service.handle_line("{\"type\":\"stats\"}");
  (void)service.handle_line("not json");

  const auto snap = metrics.snapshot();
  EXPECT_EQ(snap.histograms.at("svc.request_latency_ms").total, 6u);
  for (const char* type : {"next_pass", "visibility_now", "stats"})
    EXPECT_EQ(
        snap.histograms.at(std::string("svc.request_latency_ms.") + type)
            .total,
        snap.counters.at(std::string("svc.requests.") + type))
        << type;
  EXPECT_EQ(snap.histograms.at("svc.request_latency_ms.next_pass").total, 3u);
  EXPECT_EQ(snap.histograms.count("svc.request_latency_ms.passes_in_range"),
            0u);
}

// Four query threads on a horizon that a fifth thread advances at 3,600
// virtual seconds per real second, so chunks append and retire under the
// exclusive lock while next_pass walks and passes_in_range scans run
// under the shared one. tools/run_sanitizers.sh reruns it under TSan.
TEST(SvcServiceStress, QueriesDuringHorizonAdvance) {
  ServiceOptions opts = small_service_options();
  opts.time_scale = 3600.0;
  opts.chunk_samples = 32;  // 16 virtual minutes: retires every ~0.27 s
  PassService service(opts);

  std::atomic<bool> done{false};
  std::atomic<std::size_t> retired{0};
  std::thread advancer([&] {
    while (!done.load()) {
      retired += service.advance_horizon().chunks_retired;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
  constexpr int kClients = 4;
  std::vector<std::size_t> sent(kClients, 0), failed(kClients, 0);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c)
    clients.emplace_back([&, c] {
      for (int i = 0; (i < 100 || retired.load() < 3) &&
                      std::chrono::steady_clock::now() < deadline;
           ++i) {
        const double lat = -70.0 + 140.0 * ((i * 37 + c * 11) % 101) / 100.0;
        const double lon = -180.0 + 360.0 * ((i * 53 + c * 7) % 97) / 96.0;
        char line[256];
        if (i % 4 == 3)
          std::snprintf(line, sizeof(line),
                        "{\"type\":\"passes_in_range\",\"lat_deg\":%.6f,"
                        "\"lon_deg\":%.6f,\"start_unix_s\":0,"
                        "\"end_unix_s\":253402300800}",
                        lat, lon);
        else
          std::snprintf(line, sizeof(line),
                        "{\"type\":\"next_pass\",\"lat_deg\":%.6f,"
                        "\"lon_deg\":%.6f}",
                        lat, lon);
        const std::string reply = service.handle_line(line);
        ++sent[c];
        if (reply.find("\"ok\":true") == std::string::npos) {
          ++failed[c];
          ADD_FAILURE() << line << " -> " << reply;
        }
      }
    });
  for (std::thread& t : clients) t.join();
  done = true;
  advancer.join();

  EXPECT_GE(retired.load(), 3u);  // chunks really retired mid-run
  for (int c = 0; c < kClients; ++c) {
    EXPECT_GE(sent[c], 100u) << "client " << c;
    EXPECT_EQ(failed[c], 0u) << "client " << c;
  }
}

// --------------------------- TCP server ------------------------------

TEST(SvcServer, HostileFramesGetTypedErrorsOnALiveConnection) {
  PassService service(small_service_options());
  ServerOptions sopts;
  sopts.workers = 1;
  sopts.max_request_bytes = 256;
  svc::Server server(service, sopts);

  const int fd = connect_to_port(server.port());
  ASSERT_GE(fd, 0);
  std::string buffer;

  ASSERT_TRUE(send_all(fd, "this is not json\n"));
  expect_error(recv_line(fd, buffer), "parse", "garbage line");

  ASSERT_TRUE(send_all(fd, "{\"type\":\"hyperdrive\"}\n"));
  expect_error(recv_line(fd, buffer), "unknown_type", "unknown type");

  // A terminated oversized frame is answered and the connection lives.
  const std::string big(300, 'x');
  ASSERT_TRUE(send_all(fd, big + "\n"));
  expect_error(recv_line(fd, buffer), "oversized", "oversized frame");

  // Blank lines are keepalive no-ops; the real request still answers.
  ASSERT_TRUE(send_all(fd, "\r\n\n{\"type\":\"stats\"}\n"));
  const std::string stats = recv_line(fd, buffer);
  EXPECT_NE(stats.find("\"ok\":true"), std::string::npos) << stats;
  ::close(fd);

  // An UNTERMINATED flood past the frame limit is answered once and the
  // connection is closed (the peer is not speaking the protocol).
  const int flood = connect_to_port(server.port());
  ASSERT_GE(flood, 0);
  std::string flood_buffer;
  ASSERT_TRUE(send_all(flood, std::string(1000, 'y')));
  expect_error(recv_line(flood, flood_buffer), "oversized", "flood");
  EXPECT_EQ(recv_line(flood, flood_buffer), "");  // EOF follows
  ::close(flood);

  // A truncated frame abandoned by a dying client must not wedge the
  // server: the next connection is served normally.
  const int dead = connect_to_port(server.port());
  ASSERT_GE(dead, 0);
  ASSERT_TRUE(send_all(dead, "{\"type\":\"sta"));  // no newline, then gone
  ::close(dead);
  const int alive = connect_to_port(server.port());
  ASSERT_GE(alive, 0);
  std::string alive_buffer;
  ASSERT_TRUE(send_all(alive, "{\"type\":\"stats\"}\n"));
  EXPECT_NE(recv_line(alive, alive_buffer).find("\"ok\":true"),
            std::string::npos);
  ::close(alive);
}

TEST(SvcServer, ConcurrentClientsAllGetAnswers) {
  obs::MetricsRegistry metrics;
  PassService service(small_service_options(), &metrics);
  ServerOptions sopts;
  sopts.workers = 2;
  svc::Server server(service, sopts, &metrics);

  svc::LoadgenOptions lopts;
  lopts.port = server.port();
  lopts.connections = 4;
  lopts.requests = 200;
  lopts.observers = 100;
  const svc::LoadgenResult res = svc::run_loadgen(lopts, &metrics);
  EXPECT_EQ(res.sent, 200u);
  EXPECT_EQ(res.ok + res.shed, res.sent);
  EXPECT_EQ(res.errors, 0u);
  EXPECT_GT(res.p99_ms, 0.0);
  EXPECT_GE(res.p99_ms, res.p50_ms);

  const auto snap = metrics.snapshot();
  EXPECT_GE(snap.counters.at("svc.requests"), res.ok);
  EXPECT_GE(snap.counters.at("svc.connections_accepted"), 4u);
}

// With a registry the server records each dequeued request's wait
// behind the queue; the handler adds its per-type time.
TEST(SvcServer, RecordsQueueWaitPerDequeuedRequest) {
  obs::MetricsRegistry metrics;
  PassService service(small_service_options(), &metrics);
  ServerOptions sopts;
  sopts.workers = 1;
  sopts.debug_handler_delay_ms = 5;  // requests wait behind each other
  svc::Server server(service, sopts, &metrics);

  const int fd = connect_to_port(server.port());
  ASSERT_GE(fd, 0);
  constexpr int kBurst = 6;
  std::string burst;
  for (int i = 0; i < kBurst; ++i)
    burst += "{\"type\":\"next_pass\",\"lat_deg\":60.17,\"lon_deg\":24.94}\n";
  ASSERT_TRUE(send_all(fd, burst));
  std::string buffer;
  for (int i = 0; i < kBurst; ++i)
    EXPECT_NE(recv_line(fd, buffer).find("\"ok\":true"), std::string::npos);
  ::close(fd);

  const auto snap = metrics.snapshot();
  const auto& wait = snap.histograms.at("svc.queue_wait_ms");
  EXPECT_EQ(wait.total, static_cast<std::uint64_t>(kBurst));
  EXPECT_GT(wait.max, 0.0);  // the later ones queued behind the delay
  EXPECT_EQ(snap.histograms.at("svc.request_latency_ms.next_pass").total,
            static_cast<std::uint64_t>(kBurst));
}

TEST(SvcServer, AdmissionControlShedsWithRetryHint) {
  obs::MetricsRegistry metrics;
  PassService service(small_service_options(), &metrics);
  ServerOptions sopts;
  sopts.workers = 1;
  sopts.queue_capacity = 2;
  sopts.retry_after_ms = 75;
  sopts.debug_handler_delay_ms = 50;  // hold the worker so the queue fills
  svc::Server server(service, sopts, &metrics);

  const int fd = connect_to_port(server.port());
  ASSERT_GE(fd, 0);
  constexpr int kBurst = 20;
  std::string burst;
  for (int i = 0; i < kBurst; ++i) burst += "{\"type\":\"stats\"}\n";
  ASSERT_TRUE(send_all(fd, burst));  // pipelined: no reads in between

  std::string buffer;
  int ok = 0, shed = 0;
  for (int i = 0; i < kBurst; ++i) {
    const std::string line = recv_line(fd, buffer);
    ASSERT_FALSE(line.empty()) << "response " << i << " missing";
    if (line.find("\"ok\":true") != std::string::npos) {
      ++ok;
    } else {
      expect_error(line, "overloaded", "burst");
      EXPECT_NE(line.find("\"retry_after_ms\":75"), std::string::npos);
      ++shed;
    }
  }
  ::close(fd);
  EXPECT_EQ(ok + shed, kBurst);  // every request answered, none dropped
  EXPECT_GT(ok, 0);
  EXPECT_GT(shed, 0);  // capacity 2 + slow worker cannot absorb 20
  EXPECT_EQ(service.stats_payload().shed, static_cast<std::uint64_t>(shed));
  EXPECT_EQ(metrics.snapshot().counters.at("svc.shed"),
            static_cast<std::uint64_t>(shed));
}

TEST(SvcServer, GracefulDrainAnswersInFlightThenExits) {
  PassService service(small_service_options());
  ServerOptions sopts;
  sopts.workers = 1;
  sopts.debug_handler_delay_ms = 100;
  svc::Server server(service, sopts);

  const int fd = connect_to_port(server.port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(send_all(fd, "{\"type\":\"stats\",\"id\":1}\n"));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  server.request_stop();  // drain begins while the request is in flight
  std::string buffer;
  const std::string line = recv_line(fd, buffer);
  EXPECT_NE(line.find("\"ok\":true"), std::string::npos) << line;
  EXPECT_NE(line.find("\"id\":1"), std::string::npos) << line;
  EXPECT_EQ(recv_line(fd, buffer), "");  // then the server closes
  ::close(fd);
  server.wait();  // joins without hanging — the test's real assertion
}

}  // namespace
}  // namespace sinet
