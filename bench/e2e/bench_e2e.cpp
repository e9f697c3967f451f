// sinet_bench_e2e: the measuring process of the end-to-end benchmark.
//
//   sinet_bench_e2e <workload> [--seed N] [--seconds S] [--smoke]
//                   [--trace <out.json>] [--cli <sinet>] [--work-dir DIR]
//
// Runs one workload for S seconds and prints one JSON report as its last
// stdout line (see RunReport). bench/e2e/run.py builds this binary, runs
// it once per (workload, repeat) in a fresh process and aggregates the
// reports; README.md defines every field. Exit status: 0 when every
// output check passed, 1 when one failed, 2 on bad arguments, 3 when the
// run itself failed.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "e2e.h"
#include "obs/json.h"

namespace sinet::bench_e2e {

void RunReport::check(const std::string& name, bool ok) {
  for (auto& [existing, value] : checks)
    if (existing == name) {
      value = value && ok;
      return;
    }
  checks.emplace_back(name, ok);
}

namespace {

std::string number(double x) {
  return std::isfinite(x) ? obs::json_double(x) : "null";
}

std::string number_list(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) out += ',';
    out += number(v[i]);
  }
  return out + "]";
}

}  // namespace

std::string RunReport::to_json() const {
  std::string out = "{\"setup_s\":" + number_list(setup_s) +
                    ",\"wall_s\":" + number_list(wall_s) +
                    ",\"peak_rss_mb\":" + number(peak_rss_mb) +
                    ",\"attempted\":" + obs::json_u64(attempted) +
                    ",\"failed\":" + obs::json_u64(failed) + ",\"checks\":{";
  for (std::size_t i = 0; i < checks.size(); ++i)
    out += (i == 0 ? "\"" : ",\"") + obs::json_escape(checks[i].first) +
           "\":" + (checks[i].second ? "true" : "false");
  out += "},\"layer_total\":[\"" + obs::json_escape(layer_total.first) +
         "\"," + number(layer_total.second) + "],\"layers\":[";
  for (std::size_t i = 0; i < layers.size(); ++i)
    out += (i == 0 ? "[\"" : ",[\"") + obs::json_escape(layers[i].first) +
           "\"," + number(layers[i].second) + "]";
  out += "],\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    out += (i == 0 ? "\"" : ",\"") + obs::json_escape(metrics[i].first) +
           "\":" + number(metrics[i].second);
  return out + "}}";
}

double median(std::vector<double> v) {
  if (v.empty()) throw std::invalid_argument("median of an empty sample");
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                   v.end());
  const double upper = v[mid];
  if (v.size() % 2 == 1) return upper;
  return 0.5 * (upper + *std::max_element(
                            v.begin(),
                            v.begin() + static_cast<std::ptrdiff_t>(mid)));
}

double sorted_quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - static_cast<double>(lo));
}

double peak_rss_mb(pid_t pid) {
  std::ifstream f(pid == 0 ? std::string("/proc/self/status")
                           : "/proc/" + std::to_string(pid) + "/status");
  for (std::string line; std::getline(f, line);)
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  return 0.0;
}

// ---- ChildProcess --------------------------------------------------------

ChildProcess::ChildProcess(const std::vector<std::string>& argv) {
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0)
    throw std::runtime_error("pipe2 failed: " + std::string(std::strerror(errno)));
  const pid_t parent = ::getpid();
  pid_ = ::fork();
  if (pid_ < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    throw std::runtime_error("fork failed");
  }
  if (pid_ == 0) {
    // Only async-signal-safe calls between fork and exec.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(fds[1], STDOUT_FILENO);
    ::execv(args[0], args.data());
    ::_exit(127);
  }
  ::close(fds[1]);
  stdout_fd_ = fds[0];
}

ChildProcess::~ChildProcess() {
  if (!reaped_) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
  }
  ::close(stdout_fd_);
}

bool ChildProcess::read_more(double timeout_s) {
  pollfd p{stdout_fd_, POLLIN, 0};
  const int rc = ::poll(&p, 1, static_cast<int>(timeout_s * 1000.0));
  if (rc <= 0) return true;  // nothing yet; not EOF
  char buf[4096];
  const ssize_t n = ::read(stdout_fd_, buf, sizeof(buf));
  if (n <= 0) return false;
  buffer_.append(buf, static_cast<std::size_t>(n));
  return true;
}

std::string ChildProcess::wait_for_line(const std::string& prefix,
                                        double timeout_s) {
  const auto deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                           std::chrono::duration<double>(timeout_s));
  std::size_t scanned = 0;
  for (;;) {
    for (std::size_t nl; (nl = buffer_.find('\n', scanned)) != std::string::npos;
         scanned = nl + 1)
      if (buffer_.compare(scanned, prefix.size(), prefix) == 0)
        return buffer_.substr(scanned + prefix.size(),
                              nl - scanned - prefix.size());
    const double left =
        std::chrono::duration<double>(deadline - Clock::now()).count();
    if (left <= 0.0)
      throw std::runtime_error("timed out waiting for '" + prefix + "'");
    if (!read_more(std::min(left, 0.1)))
      throw std::runtime_error("child exited before printing '" + prefix +
                               "'");
  }
}

void ChildProcess::terminate() {
  if (!reaped_) ::kill(pid_, SIGTERM);
}

int ChildProcess::wait(double timeout_s) {
  if (reaped_) throw std::logic_error("child already reaped");
  const auto start = Clock::now();
  int status = 0;
  for (;;) {
    const pid_t r = ::waitpid(pid_, &status, WNOHANG);
    if (r == pid_) break;
    if (r < 0 && errno != EINTR) throw std::runtime_error("waitpid failed");
    if (seconds_since(start) > timeout_s) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      break;
    }
    // Keep the pipe drained so a chatty child cannot block on a full
    // pipe; after EOF there is nothing to wait on, so sleep instead.
    if (!read_more(0.005))
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  reaped_ = true;
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
}

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: sinet_bench_e2e <campaign-30d|contact-plan-30d|"
               "dts-trace-2k|dts-fleet-10k|serve-zipf>\n"
               "         [--seed N] [--seconds S] [--smoke]\n"
               "         [--trace <out.json>] [--cli <sinet>] "
               "[--work-dir DIR]\n");
  return 2;
}

}  // namespace

}  // namespace sinet::bench_e2e

int main(int argc, char** argv) {
  using namespace sinet::bench_e2e;
  if (argc < 2) return usage();
  RunOptions opts;
  opts.workload = argv[1];
  try {
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
        return argv[++i];
      };
      if (arg == "--seed") {
        opts.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        opts.seconds = std::stod(value());
      } else if (arg == "--smoke") {
        opts.smoke = true;
      } else if (arg == "--trace") {
        opts.traced = true;
        opts.trace_path = value();
      } else if (arg == "--cli") {
        opts.cli_path = value();
      } else if (arg == "--work-dir") {
        opts.work_dir = value();
      } else {
        throw std::invalid_argument("unknown argument " + arg);
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return usage();
  }
  const bool serve = opts.workload == "serve-zipf";
  if ((!serve && !is_batch_workload(opts.workload)) || !(opts.seconds > 0.0) ||
      opts.seed == 0 || (serve && opts.cli_path.empty()) ||
      (serve && opts.traced && opts.work_dir.empty()))
    return usage();

  try {
    const RunReport report = serve ? run_serve(opts) : run_batch(opts);
    std::printf("%s\n", report.to_json().c_str());
    for (const auto& [name, ok] : report.checks)
      if (!ok) {
        std::fprintf(stderr, "check failed: %s\n", name.c_str());
        return 1;
      }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 3;
  }
}
