// The serve-zipf workload: `sinet serve` driven from this process.
//
// Requests are the 80/10/10 next_pass / passes_in_range / visibility_now
// mix over 10,000 observers with Zipf(1.1) popularity.
//
// The end-to-end run times bursts of svc::run_loadgen, unchanged: 4
// connections with 1 request in flight each, the traffic `sinet loadgen`
// and the CI service smoke test send. Each burst goes to a freshly
// started server, so every burst does the same work: the same requests
// against the same cold window cache (about a third of the burst's cache
// lookups miss and scan the rolling horizon).
//
// The traced run adds the open-loop phases: Poisson arrivals at 1000 and
// 2000 req/s from two client threads over four pipelined connections,
// each request carrying an `id` and timed from its scheduled send time.
// It also runs a capacity search, reads the server's --metrics report for
// the handler-time histogram, and replays the parse, handle and
// rolling-scan steps in-process.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "e2e.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/run_report.h"
#include "orbit/ephemeris.h"
#include "orbit/time.h"
#include "sim/rng.h"
#include "svc/loadgen.h"
#include "svc/protocol.h"
#include "svc/service.h"

namespace sinet::bench_e2e {

namespace {

constexpr double kEpochUnix = 1740787200.0;  // 2025-03-01: fixes geometry
constexpr std::size_t kObservers = 10000;
constexpr double kZipfS = 1.1;
constexpr int kConnections = 4;
constexpr int kThreads = 2;
constexpr double kReplyTimeoutS = 5.0; // a reply later than this failed
/// The latency recorded for a failed request (error, shed or timed out):
/// it misses every limit, and a quantile over failures stays finite and
/// reads as the worst latency, never as a fast one.
constexpr double kFailedMs = 1e3 * kReplyTimeoutS;
constexpr double kSloMs = 10.0;        // capacity search p99 limit

double unit_interval(std::uint64_t x) {
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

/// The request mix. Observers and every request's content derive from
/// the seed alone, so any thread can build request i.
class RequestMix {
 public:
  explicit RequestMix(std::uint64_t seed)
      : stream_(sim::derive_seed(seed, "e2e.serve.requests")) {
    sim::Rng rng(sim::derive_seed(seed, "e2e.serve.observers"));
    lat_.reserve(kObservers);
    lon_.reserve(kObservers);
    for (std::size_t i = 0; i < kObservers; ++i) {
      lat_.push_back(rng.uniform(-55.0, 65.0));
      lon_.push_back(rng.uniform(-180.0, 180.0));
    }
    cdf_.resize(kObservers);
    double total = 0.0;
    for (std::size_t r = 0; r < kObservers; ++r) {
      total += std::pow(static_cast<double>(r + 1), -kZipfS);
      cdf_[r] = total;
    }
    for (double& c : cdf_) c /= total;
  }

  /// Request i as one NDJSON line (with the trailing newline).
  [[nodiscard]] std::string line(std::uint64_t i) const {
    const double u_rank = unit_interval(sim::derive_stream(stream_, 2 * i));
    const double u_type =
        unit_interval(sim::derive_stream(stream_, 2 * i + 1));
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u_rank);
    const std::size_t rank = it == cdf_.end()
                                 ? kObservers - 1
                                 : static_cast<std::size_t>(it - cdf_.begin());
    const char* type = u_type < 0.8   ? "next_pass"
                       : u_type < 0.9 ? "passes_in_range"
                                      : "visibility_now";
    std::string out = std::string("{\"type\":\"") + type +
                      "\",\"id\":" + obs::json_u64(i) +
                      ",\"lat_deg\":" + obs::json_double(lat_[rank]) +
                      ",\"lon_deg\":" + obs::json_double(lon_[rank]);
    // The widest query shape: the server clamps it to its horizon.
    if (u_type >= 0.8 && u_type < 0.9)
      out += ",\"start_unix_s\":0,\"end_unix_s\":253402300800";
    out += "}\n";
    return out;
  }

  [[nodiscard]] orbit::Geodetic observer(std::size_t rank) const {
    return orbit::Geodetic{lat_[rank], lon_[rank], 0.0};
  }

 private:
  std::uint64_t stream_;
  std::vector<double> lat_, lon_, cdf_;
};

// ---- reply validation ----------------------------------------------------

void skip_value(obs::JsonCursor& cur) {
  if (cur.peek_is('{'))
    obs::parse_json_object(cur, [&](const std::string&) { skip_value(cur); });
  else if (cur.peek_is('['))
    obs::parse_json_array(cur, [&] { skip_value(cur); });
  else if (cur.peek_is('"'))
    static_cast<void>(cur.parse_string());
  else if (cur.peek_is('t') || cur.peek_is('f'))
    static_cast<void>(cur.parse_bool());
  else
    static_cast<void>(cur.parse_double());
}

struct Reply {
  /// Parses, is ok or a typed error, and echoes an id — except a shed
  /// request: admission control answers `overloaded` before parsing the
  /// request, so that reply carries no id.
  bool valid = false;
  bool ok = false;
  bool overloaded = false;
  bool has_id = false;
  std::uint64_t id = 0;
  std::map<std::string, double> numbers;  ///< top-level numeric fields
};

bool known_error(const std::string& code) {
  for (int c = 0; c <= static_cast<int>(svc::ErrorCode::kInternal); ++c)
    if (code == svc::error_code_name(static_cast<svc::ErrorCode>(c)))
      return true;
  return false;
}

Reply parse_reply(const std::string& line) {
  Reply r;
  bool has_ok = false;
  std::string error;
  try {
    obs::JsonCursor cur(line);
    obs::parse_json_object(cur, [&](const std::string& key) {
      if (key == "ok") {
        r.ok = cur.parse_bool();
        has_ok = true;
      } else if (key == "id") {
        r.id = cur.parse_u64();
        r.has_id = true;
      } else if (key == "error") {
        error = cur.parse_string();
      } else if (!cur.peek_is('{') && !cur.peek_is('[') &&
                 !cur.peek_is('"') && !cur.peek_is('t') &&
                 !cur.peek_is('f')) {
        r.numbers[key] = cur.parse_double();
      } else {
        skip_value(cur);
      }
    });
  } catch (const std::exception&) {
    return r;
  }
  r.overloaded = error == "overloaded";
  r.valid = has_ok && (r.ok || known_error(error)) &&
            (r.has_id || r.overloaded);
  return r;
}

// ---- connections ---------------------------------------------------------

int connect_to(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throw std::runtime_error("cannot connect to the server");
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

struct Connection {
  explicit Connection(int port) : fd(connect_to(port)) {}
  ~Connection() { ::close(fd); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Send what the socket takes now; false when the connection broke.
  bool flush() {
    while (!out.empty()) {
      const ssize_t n =
          ::send(fd, out.data(), out.size(), MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n < 0) return errno == EAGAIN || errno == EWOULDBLOCK;
      out.erase(0, static_cast<std::size_t>(n));
    }
    return true;
  }
  /// Read what is available and append complete lines to `lines`; false
  /// when the connection broke or closed.
  bool read(std::vector<std::string>& lines) {
    char buf[16384];
    for (;;) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), MSG_DONTWAIT);
      if (n == 0) return false;
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        return false;
      }
      in.append(buf, static_cast<std::size_t>(n));
    }
    std::size_t start = 0;
    for (std::size_t nl; (nl = in.find('\n', start)) != std::string::npos;
         start = nl + 1)
      lines.push_back(in.substr(start, nl - start));
    in.erase(0, start);
    return true;
  }

  int fd;
  std::string in;
  std::string out;
  /// Ids given up on (counted as timeouts); their late replies are
  /// dropped, not counted as malformed.
  std::set<std::uint64_t> abandoned;
};

// ---- load phases ---------------------------------------------------------

/// Outcome of one load phase, merged across the client threads.
struct PhaseStats {
  std::vector<double> latency_ms;  ///< every request; failures = kFailedMs
  std::vector<double> lag_ms;      ///< send time - scheduled time
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t errors = 0;  ///< typed error replies other than shed
  std::uint64_t shed = 0;
  std::uint64_t timeouts = 0;  ///< no reply in time, or connection lost
  std::uint64_t malformed = 0;
  std::uint64_t in_flight_at_end = 0;

  [[nodiscard]] std::uint64_t failed() const {
    return errors + shed + timeouts + malformed;
  }
  void merge(const PhaseStats& o) {
    latency_ms.insert(latency_ms.end(), o.latency_ms.begin(),
                      o.latency_ms.end());
    lag_ms.insert(lag_ms.end(), o.lag_ms.begin(), o.lag_ms.end());
    sent += o.sent;
    ok += o.ok;
    errors += o.errors;
    shed += o.shed;
    timeouts += o.timeouts;
    malformed += o.malformed;
    in_flight_at_end += o.in_flight_at_end;
  }
  [[nodiscard]] double quantile_ms(double q) const {
    std::vector<double> v = latency_ms;
    std::sort(v.begin(), v.end());
    return sorted_quantile(v, q);
  }
};

/// One in-flight request of a client thread.
struct Pending {
  Clock::time_point due;  ///< scheduled send time
  int conn = 0;
};

/// The per-thread open-loop engine: it queues requests on its
/// connections and matches replies to pending ids.
class ClientThread {
 public:
  ClientThread(std::vector<Connection*> conns, Tracer* tracer, int tid)
      : conns_(std::move(conns)), unmatched_shed_(conns_.size(), 0),
        tracer_(tracer), tid_(tid) {}

  void send(std::uint64_t id, const std::string& line, int conn,
            Clock::time_point due) {
    conns_[static_cast<std::size_t>(conn)]->out += line;
    pending_.emplace(id, Pending{due, conn});
    ++stats.sent;
  }
  /// Requests without a reply yet, not counting those shed (an id-less
  /// `overloaded` reply arrived for them on their connection).
  [[nodiscard]] std::size_t in_flight() const {
    std::size_t shed = 0;
    for (const std::size_t n : unmatched_shed_) shed += n;
    return pending_.size() - std::min(shed, pending_.size());
  }

  /// Flush, wait for replies until `until` (at most), and process them.
  void pump(Clock::time_point until) {
    std::vector<pollfd> fds;
    for (Connection* c : conns_) {
      if (!c->flush()) broken_ = true;
      fds.push_back(pollfd{c->fd, static_cast<short>(
                                      POLLIN | (c->out.empty() ? 0 : POLLOUT)),
                           0});
    }
    const auto wait = std::max(Clock::duration::zero(), until - Clock::now());
    const auto ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(wait).count();
    timespec ts{static_cast<time_t>(ns / 1000000000),
                static_cast<long>(ns % 1000000000)};
    if (::ppoll(fds.data(), fds.size(), &ts, nullptr) <= 0) return;
    const auto now = Clock::now();
    for (std::size_t c = 0; c < conns_.size(); ++c) {
      if ((fds[c].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
      std::vector<std::string> lines;
      if (!conns_[c]->read(lines)) broken_ = true;
      for (const std::string& line : lines) {
        const Reply r = parse_reply(line);
        if (r.valid && !r.has_id) {
          // Shed: which pending request it answers is unknown, so one
          // of this connection's is settled as shed when the phase ends.
          ++stats.shed;
          stats.latency_ms.push_back(kFailedMs);
          ++unmatched_shed_[c];
          continue;
        }
        const auto it = pending_.find(r.id);
        if (r.valid && it == pending_.end() &&
            conns_[c]->abandoned.erase(r.id) == 1)
          continue;
        if (!r.valid || it == pending_.end()) {
          ++stats.malformed;
          continue;
        }
        const double ms =
            std::chrono::duration<double, std::milli>(now - it->second.due)
                .count();
        if (r.ok) {
          ++stats.ok;
          stats.latency_ms.push_back(ms);
        } else {
          ++(r.overloaded ? stats.shed : stats.errors);
          stats.latency_ms.push_back(kFailedMs);
        }
        if (tracer_ != nullptr)
          tracer_->add("request", "svc", it->second.due, now,
                       tid_ + it->second.conn,
                       {{"id", static_cast<double>(r.id)},
                        {"ok", r.ok ? 1.0 : 0.0}});
        pending_.erase(it);
      }
    }
  }

  /// Settle everything still pending: as many per connection as it saw
  /// id-less shed replies were shed (already counted), the rest timed
  /// out. Late replies to any of them are dropped, not counted.
  void abandon() {
    std::vector<std::size_t> open(conns_.size(), 0);
    for (const auto& [id, p] : pending_) {
      ++open[static_cast<std::size_t>(p.conn)];
      conns_[static_cast<std::size_t>(p.conn)]->abandoned.insert(id);
    }
    for (std::size_t c = 0; c < conns_.size(); ++c) {
      const std::size_t shed = std::min(unmatched_shed_[c], open[c]);
      stats.timeouts += open[c] - shed;
      stats.latency_ms.insert(stats.latency_ms.end(), open[c] - shed,
                              kFailedMs);
      unmatched_shed_[c] = 0;
    }
    pending_.clear();
  }
  [[nodiscard]] bool broken() const { return broken_; }

  PhaseStats stats;

 private:
  std::vector<Connection*> conns_;
  std::vector<std::size_t> unmatched_shed_;  ///< per connection
  Tracer* tracer_;
  int tid_;
  std::map<std::uint64_t, Pending> pending_;
  bool broken_ = false;
};

/// Client state shared by every phase against one server: connections
/// and the id counter (ids are never reused on a server).
class Client {
 public:
  Client(int port, const RequestMix& mix) : mix_(mix) {
    for (int c = 0; c < kConnections; ++c)
      conns_.push_back(std::make_unique<Connection>(port));
  }

  /// The id the next request will carry.
  [[nodiscard]] std::uint64_t next_id() const { return next_id_; }

  /// Open loop: Poisson arrivals at `rate` for `duration` seconds; each
  /// request is timed from its scheduled send time.
  PhaseStats open_loop(double rate, double duration, std::uint64_t seed,
                       Tracer* tracer) {
    std::vector<double> offsets;  // arrival times, seconds from start
    const std::uint64_t stream = sim::derive_seed(
        seed, "e2e.serve.arrivals." + std::to_string(next_id_));
    for (double t = 0.0;;) {
      t += -std::log1p(-unit_interval(
               sim::derive_stream(stream, offsets.size()))) /
           rate;
      if (t >= duration) break;
      offsets.push_back(t);
    }
    const std::uint64_t base = next_id_;
    next_id_ += offsets.size();
    const auto t0 = Clock::now() + seconds(0.01);
    const auto end = t0 + seconds(duration);
    return run_threads(tracer, [&](ClientThread& ct, int t) {
      // Arrival k goes to connection k % kConnections, owned by thread
      // (k % kConnections) % kThreads.
      std::size_t k = static_cast<std::size_t>(t);
      bool end_seen = false;
      for (;;) {
        const auto now = Clock::now();
        while (k < offsets.size() && t0 + seconds(offsets[k]) <= now) {
          const auto due = t0 + seconds(offsets[k]);
          const int local = static_cast<int>(k % kConnections) / kThreads;
          ct.send(base + k, mix_.line(base + k), local, due);
          ct.stats.lag_ms.push_back(
              std::chrono::duration<double, std::milli>(Clock::now() - due)
                  .count());
          k += kThreads;
        }
        if (!end_seen && now >= end) {
          end_seen = true;
          ct.stats.in_flight_at_end = ct.in_flight();
        }
        if (k >= offsets.size() &&
            (ct.in_flight() == 0 || ct.broken() ||
             now > end + seconds(kReplyTimeoutS)))
          break;
        const auto until = k < offsets.size() ? t0 + seconds(offsets[k])
                                              : now + seconds(0.05);
        ct.pump(until);
      }
      ct.abandon();
    });
  }

 private:
  static Clock::duration seconds(double s) {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(s));
  }

  template <typename Body>
  PhaseStats run_threads(Tracer* tracer, Body&& body) {
    std::vector<std::unique_ptr<ClientThread>> cts;
    for (int t = 0; t < kThreads; ++t)
      cts.push_back(std::make_unique<ClientThread>(
          std::vector<Connection*>{conns_[static_cast<std::size_t>(t)].get(),
                                   conns_[static_cast<std::size_t>(
                                              t + kThreads)]
                                       .get()},
          tracer, 1 + t * 2));
    std::vector<std::thread> threads;
    std::vector<std::string> failures(kThreads);
    for (int t = 0; t < kThreads; ++t)
      threads.emplace_back([&, t] {
        try {
          body(*cts[static_cast<std::size_t>(t)], t);
        } catch (const std::exception& e) {
          failures[static_cast<std::size_t>(t)] = e.what();
        }
      });
    for (std::thread& th : threads) th.join();
    for (const std::string& f : failures)
      if (!f.empty()) throw std::runtime_error("client thread: " + f);
    PhaseStats merged;
    for (const auto& ct : cts) merged.merge(ct->stats);
    return merged;
  }

  const RequestMix& mix_;
  std::vector<std::unique_ptr<Connection>> conns_;
  std::uint64_t next_id_ = 0;
};

// ---- the server process --------------------------------------------------

struct ServerProcess {
  std::unique_ptr<ChildProcess> proc;
  int port = 0;
  double setup_s = 0.0;  ///< spawn until `serve.port=` was printed
};

ServerProcess start_server(const RunOptions& opts,
                           const std::string& metrics_path = "") {
  std::vector<std::string> argv{opts.cli_path};
  if (!metrics_path.empty()) {
    argv.push_back("--metrics");
    argv.push_back(metrics_path);
  }
  for (const char* a : {"serve", "--epoch-unix", "1740787200", "--workers",
                        "2"})
    argv.emplace_back(a);
  ServerProcess s;
  const auto t0 = Clock::now();
  s.proc = std::make_unique<ChildProcess>(argv);
  s.port = std::stoi(s.proc->wait_for_line("serve.port=", 60.0));
  s.setup_s = seconds_since(t0);
  return s;
}

/// SIGTERM, then wait for the graceful drain; true on exit status 0.
bool stop_server(ServerProcess& s) {
  s.proc->terminate();
  return s.proc->wait(30.0) == 0;
}

/// User + system CPU seconds of process `pid`, all threads, from
/// /proc/<pid>/stat.
double cpu_seconds(pid_t pid) {
  std::ifstream f("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(f)),
                   std::istreambuf_iterator<char>());
  const std::size_t paren = text.rfind(')');
  if (paren == std::string::npos) return 0.0;
  // Fields after the command name start at field 3; utime and stime are
  // fields 14 and 15, in clock ticks.
  std::istringstream fields(text.substr(paren + 2));
  std::string field;
  double ticks = 0.0;
  for (int i = 3; i <= 15 && fields >> field; ++i)
    if (i >= 14) ticks += std::stod(field);
  return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

/// One `stats` request on its own connection.
Reply stats_request(int port) {
  Connection c(port);
  c.out = "{\"type\":\"stats\",\"id\":0}\n";
  const auto deadline = Clock::now() + std::chrono::seconds(10);
  std::vector<std::string> lines;
  while (lines.empty() && Clock::now() < deadline) {
    c.flush();
    pollfd p{c.fd, POLLIN, 0};
    ::poll(&p, 1, 100);
    if (!c.read(lines)) break;
  }
  return lines.empty() ? Reply{} : parse_reply(lines.front());
}

obs::Snapshot read_report(const std::string& path) {
  std::ifstream f(path);
  std::string text((std::istreambuf_iterator<char>(f)),
                   std::istreambuf_iterator<char>());
  return obs::parse_json(text);
}

/// Phase sizes. The traced run spends fixed shares of the run time on
/// each open-loop phase; smoke runs shrink rates and bursts tenfold.
struct Plan {
  /// Requests per loadgen burst: the CI service smoke test's burst, about
  /// a second of work here.
  std::size_t burst = 3000;
  double rate_1k = 1000.0;
  double rate_2k = 2000.0;
  double capacity_start = 2400.0;
};

Plan make_plan(const RunOptions& opts) {
  Plan p;
  if (opts.smoke) {
    p.burst = 300;
    p.rate_1k = 100.0;
    p.rate_2k = 200.0;
    p.capacity_start = 240.0;
  }
  return p;
}

/// Record a phase's request outcomes into the run's totals and checks.
void account(const PhaseStats& s, RunReport& report) {
  report.attempted += s.sent;
  report.failed += s.failed();
  report.check("every_reply_valid", s.malformed == 0);
}

/// One unit of the end-to-end run: a fresh server answers one loadgen
/// burst.
struct Burst {
  double setup_s = 0.0;
  double wall_s = 0.0;
  double peak_rss_mb = 0.0;
};

/// `client_metrics` is the traced run's instrumentation: run_loadgen
/// records every request's round trip into it.
Burst fresh_server_burst(const RunOptions& opts, const Plan& plan,
                         RunReport& report,
                         obs::MetricsRegistry* client_metrics = nullptr) {
  ServerProcess server = start_server(opts);
  svc::LoadgenOptions lopts;
  lopts.port = server.port;
  lopts.requests = plan.burst;
  lopts.observers = kObservers;
  lopts.zipf_s = kZipfS;
  lopts.seed = opts.seed;
  const svc::LoadgenResult r = svc::run_loadgen(lopts, client_metrics);
  const Burst b{server.setup_s, r.elapsed_s,
                peak_rss_mb(server.proc->pid())};
  report.attempted += plan.burst;
  report.failed += plan.burst - std::min(plan.burst, r.ok);
  report.check("every_request_ok", r.ok == plan.burst);
  report.check("server_exit_clean", stop_server(server));
  return b;
}

/// Fill a fresh server's window cache with open-loop traffic at the 1k
/// rate for 15% of the run time (at least half a second).
PhaseStats warm_up(Client& client, const Plan& plan,
                   const RunOptions& opts) {
  return client.open_loop(plan.rate_1k, std::max(0.5, 0.15 * opts.seconds),
                          opts.seed, nullptr);
}

bool probe_passes(const PhaseStats& s, double rate) {
  return s.quantile_ms(0.99) <= kSloMs &&
         static_cast<double>(s.failed()) <=
             0.01 * static_cast<double>(s.sent) &&
         static_cast<double>(s.in_flight_at_end) <= rate * kSloMs / 1000.0;
}

/// The highest probed rate meeting the SLO: x1.2 steps up from the start
/// rate until one fails, then bisection; at most six probes.
double capacity_search(Client& client, const Plan& plan, double probe_s,
                       std::uint64_t seed, Tracer& tracer,
                       RunReport& report) {
  double best = 0.0;
  double failed_at = 0.0;
  double rate = plan.capacity_start;
  for (int probe = 0; probe < 6; ++probe) {
    Tracer::Span span(tracer, "capacity probe", "svc");
    span.arg("rate_rps", rate);
    // Probes overload the server on purpose: their shed and late replies
    // are the measurement, not failed operations.
    const PhaseStats s = client.open_loop(rate, probe_s, seed, nullptr);
    report.check("every_reply_valid", s.malformed == 0);
    const bool pass = probe_passes(s, rate);
    span.arg("pass", pass ? 1.0 : 0.0);
    if (pass)
      best = rate;
    else
      failed_at = rate;
    if (failed_at == 0.0)
      rate *= 1.2;
    else if (best == 0.0)
      rate /= 1.2;
    else
      rate = 0.5 * (best + failed_at);
  }
  return best;
}

/// In-process replays of the service's layers on the lines of the
/// traced 2000 req/s phase, with the server's options: request parsing,
/// whole-request handling, and a cold observer's rolling-horizon scan.
void replay_service_layers(std::vector<std::string> lines,
                           const RequestMix& mix, Tracer& tracer,
                           RunReport& report) {
  for (std::string& l : lines) l.pop_back();  // drop the newline
  {
    Tracer::Span span(tracer, "svc::parse_request (replay)", "svc");
    const auto t0 = Clock::now();
    for (const std::string& l : lines)
      static_cast<void>(svc::parse_request(l));
    report.metric("svc.parse_us",
                  1e6 * seconds_since(t0) /
                      static_cast<double>(std::max<std::size_t>(1,
                                                                lines.size())));
  }
  svc::ServiceOptions sopts;
  sopts.epoch_unix_s = kEpochUnix;
  {
    svc::PassService service(sopts);
    Tracer::Span span(tracer, "PassService::handle_line (replay)", "svc");
    std::vector<double> us;
    us.reserve(lines.size());
    for (const std::string& l : lines) {
      const auto t0 = Clock::now();
      static_cast<void>(service.handle_line(l));
      us.push_back(1e6 * seconds_since(t0));
    }
    std::sort(us.begin(), us.end());
    report.metric("svc.handle_p50_us", sorted_quantile(us, 0.50));
    report.metric("svc.handle_p99_us", sorted_quantile(us, 0.99));
  }
  {
    // A cold observer's full scan of the rolling horizon: the cache-miss
    // cost. Same fleet, grid and mask as the service.
    const orbit::JulianDate epoch_jd = orbit::unix_to_julian(kEpochUnix);
    const std::vector<orbit::Tle> tles = paper_tles(epoch_jd);
    std::vector<orbit::Sgp4> props_v;
    props_v.reserve(tles.size());
    for (const orbit::Tle& t : tles) props_v.emplace_back(t);
    std::vector<const orbit::Sgp4*> sats;
    for (const orbit::Sgp4& p : props_v) sats.push_back(&p);
    orbit::RollingEphemeris::Options ropts;
    ropts.coarse_step_s = sopts.step_s;
    ropts.chunk_samples = sopts.chunk_samples;
    ropts.mode = sopts.mode;
    orbit::RollingEphemeris rolling(sats, epoch_jd, ropts);
    rolling.advance(epoch_jd - sopts.retention_hours / 24.0,
                    epoch_jd + sopts.horizon_hours / 24.0);
    orbit::PassPredictionOptions popts;
    popts.min_elevation_deg = sopts.min_elevation_deg;
    popts.coarse_step_s = sopts.step_s;
    Tracer::Span span(tracer, "RollingEphemeris::scan_observer (replay)",
                      "orbit");
    std::vector<double> ms;
    for (std::size_t rank = 0; rank < 50; ++rank) {
      const auto t0 = Clock::now();
      static_cast<void>(rolling.scan_observer(
          orbit::GridObserver{mix.observer(rank)}, popts));
      ms.push_back(1e3 * seconds_since(t0));
    }
    report.metric("svc.rolling_scan_ms", median(ms));
  }
}

void run_traced(const RunOptions& opts, const RequestMix& mix,
                RunReport& report) {
  Tracer tracer(true);
  const Plan plan = make_plan(opts);
  const double S = opts.seconds;
  const std::string metrics_path = opts.work_dir + "/serve.metrics.json";

  // Server A runs with --metrics and sees only open-loop traffic: its
  // handler-time histogram covers exactly the requests of this block, the
  // population `answered` holds client latencies for.
  ServerProcess a = start_server(opts, metrics_path);
  PhaseStats answered;
  std::vector<std::string> lines;  // the 2000 req/s phase, for replays
  {
    Client client(a.port, mix);
    const auto phase = [&](const PhaseStats& s) {
      account(s, report);
      answered.merge(s);
    };
    {
      Tracer::Span span(tracer, "warm-up at 1000 req/s", "svc");
      phase(warm_up(client, plan, opts));
    }
    PhaseStats at_1k, at_2k;
    {
      Tracer::Span span(tracer, "open loop 1000 req/s", "svc");
      at_1k = client.open_loop(plan.rate_1k, 0.35 * S, opts.seed, &tracer);
    }
    const std::uint64_t first_2k = client.next_id();
    {
      Tracer::Span span(tracer, "open loop 2000 req/s", "svc");
      at_2k = client.open_loop(plan.rate_2k, 0.35 * S, opts.seed, &tracer);
    }
    phase(at_1k);
    phase(at_2k);
    for (std::uint64_t i = first_2k; i < client.next_id(); ++i)
      lines.push_back(mix.line(i));
    report.metric("svc.p50_ms_at_1k", at_1k.quantile_ms(0.50));
    report.metric("svc.p99_ms_at_1k", at_1k.quantile_ms(0.99));
    report.metric("svc.p50_ms_at_2k", at_2k.quantile_ms(0.50));
    report.metric("svc.p99_ms_at_2k", at_2k.quantile_ms(0.99));
    std::vector<double> lag = at_2k.lag_ms;
    std::sort(lag.begin(), lag.end());
    report.metric("svc.gen_lag_p99_ms", sorted_quantile(lag, 0.99));

    const Reply stats = stats_request(a.port);
    report.check("stats_reply_valid", stats.valid && stats.ok);
    const auto num = [&stats](const char* key) {
      const auto it = stats.numbers.find(key);
      return it == stats.numbers.end() ? 0.0 : it->second;
    };
    const double hits = num("cache_hits");
    const double misses = num("cache_misses");
    const double requests = num("requests");
    report.metric("svc.cache_hit_rate",
                  hits + misses > 0.0 ? hits / (hits + misses) : 0.0);
    report.metric("svc.cache_misses_per_request",
                  requests > 0.0 ? misses / requests : 0.0);
    report.metric("svc.horizon_advances", num("horizon_advances"));
    report.metric("svc.cpu_ms_per_request",
                  requests > 0.0
                      ? 1e3 * cpu_seconds(a.proc->pid()) / requests
                      : 0.0);
  }
  report.check("server_exit_clean", stop_server(a));
  const obs::Snapshot snap = read_report(metrics_path);
  const auto depth = snap.gauges.find("svc.queue_depth");
  report.metric("svc.queue_depth_max",
                depth == snap.gauges.end() ? 0.0 : depth->second.max);
  const auto props = snap.counters.find("svc.horizon.propagations");
  report.metric("svc.horizon_propagations",
                props == snap.counters.end()
                    ? 0.0
                    : static_cast<double>(props->second));
  const auto hist = snap.histograms.find("svc.request_latency_ms");
  const double server_p50 = hist == snap.histograms.end()
                                ? 0.0
                                : obs::snapshot_quantile(hist->second, 0.50);
  const double server_p99 = hist == snap.histograms.end()
                                ? 0.0
                                : obs::snapshot_quantile(hist->second, 0.99);
  const double client_p50 = answered.quantile_ms(0.50);
  // Differences of quantiles, not quantiles of differences: queue wait,
  // the I/O thread and transport, taken together.
  report.layer_total = {"client p50 ms, all requests", client_p50};
  report.layers = {{"svc.server_p50_ms", server_p50},
                   {"svc.outside_handler_p50_ms", client_p50 - server_p50}};
  report.metric("svc.server_p50_ms", server_p50);
  report.metric("svc.server_p99_ms", server_p99);
  report.metric("svc.outside_handler_p50_ms", client_p50 - server_p50);
  report.metric("svc.outside_handler_p99_ms",
                answered.quantile_ms(0.99) - server_p99);

  // Server B: the capacity search, on a warmed server of its own so it
  // does not enter server A's histogram.
  ServerProcess b = start_server(opts);
  {
    Client client(b.port, mix);
    account(warm_up(client, plan, opts), report);
    report.metric("svc.max_rate_rps",
                  capacity_search(client, plan, 0.15 * S, opts.seed, tracer,
                                  report));
  }
  report.check("capacity_server_exit_clean", stop_server(b));

  // The end-to-end unit, untraced and with the client's per-request
  // instrumentation (a MetricsRegistry attached to run_loadgen),
  // alternating on fresh servers.
  std::vector<double> untraced, traced;
  for (int i = 0; i < 3; ++i) {
    untraced.push_back(fresh_server_burst(opts, plan, report).wall_s);
    obs::MetricsRegistry client_metrics;
    Tracer::Span span(tracer, "loadgen burst (instrumented)", "svc");
    traced.push_back(
        fresh_server_burst(opts, plan, report, &client_metrics).wall_s);
  }
  const double traced_wall = median(traced);
  const double untraced_wall = median(untraced);
  report.metric("traced_wall_s", traced_wall);
  report.metric("tracing_overhead_pct",
                100.0 * (traced_wall - untraced_wall) / untraced_wall);

  replay_service_layers(std::move(lines), mix, tracer, report);
  if (!tracer.write(opts.trace_path)) report.check("trace_written", false);
}

}  // namespace

RunReport run_serve(const RunOptions& opts) {
  RunReport report;
  if (opts.traced) {
    run_traced(opts, RequestMix(opts.seed), report);
    return report;
  }
  const Plan plan = make_plan(opts);
  std::vector<double> rss;
  const auto start = Clock::now();
  double last_unit_s = 0.0;
  while (next_unit_fits(start, opts.seconds, report.wall_s.size(),
                        last_unit_s, 3)) {
    const auto unit_start = Clock::now();
    const Burst b = fresh_server_burst(opts, plan, report);
    report.setup_s.push_back(b.setup_s);
    report.wall_s.push_back(b.wall_s);
    rss.push_back(b.peak_rss_mb);
    last_unit_s = seconds_since(unit_start);
  }
  report.peak_rss_mb = median(rss);
  return report;
}

}  // namespace sinet::bench_e2e
