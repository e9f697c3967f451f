#include "svc/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <map>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "obs/metrics.h"

namespace sinet::svc {

namespace {

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

}  // namespace

/// All mutable server state. The I/O thread owns the sockets and the
/// connection map; workers only touch the request queue and per-
/// connection output queues (under `mutex`), waking the I/O thread
/// through the self-pipe whenever output appears.
struct Server::Impl {
  PassService& service;
  ServerOptions opts;
  obs::MetricsRegistry* metrics;

  int listen_fd = -1;
  int wake_read = -1;
  int wake_write = -1;

  struct Connection {
    std::string in;                 ///< bytes up to the next newline
    std::deque<std::string> out;    ///< responses awaiting write
    std::size_t out_offset = 0;     ///< progress into out.front()
    bool close_after_flush = false; ///< fatal framing error sent
  };

  /// One admitted request line; `enqueued` is stamped only with metrics.
  struct Queued {
    int fd = -1;
    std::string line;
    std::chrono::steady_clock::time_point enqueued{};
  };

  std::mutex mutex;
  std::condition_variable queue_cv;
  std::map<int, Connection> connections;  // owned by I/O thread
  std::deque<Queued> queue;
  std::size_t in_flight = 0;  ///< dequeued but not yet answered
  bool stopping = false;

  std::atomic<bool> stop_flag{false};
  std::thread io_thread;
  std::vector<std::thread> workers;
  std::thread maintenance;

  Impl(PassService& svc, const ServerOptions& o, obs::MetricsRegistry* m)
      : service(svc), opts(o), metrics(m) {}

  void wake() const {
    const char byte = 1;
    (void)!::write(wake_write, &byte, 1);
  }

  /// Queue one response on `fd` and wake the I/O thread. The connection
  /// may be gone by the time this runs (client hung up mid-request) —
  /// that is a silent drop, not an error.
  void respond(int fd, std::string response) {
    response += '\n';
    {
      std::lock_guard<std::mutex> lock(mutex);
      const auto it = connections.find(fd);
      if (it == connections.end()) return;
      it->second.out.push_back(std::move(response));
    }
    wake();
  }

  void worker_loop() {
    for (;;) {
      Queued item;
      {
        std::unique_lock<std::mutex> lock(mutex);
        queue_cv.wait(lock, [&] { return stopping || !queue.empty(); });
        if (queue.empty()) {
          if (stopping) return;
          continue;
        }
        item = std::move(queue.front());
        queue.pop_front();
        ++in_flight;
        if (metrics != nullptr)
          metrics->gauge("svc.queue_depth")
              .set(static_cast<double>(queue.size()));
      }
      if (metrics != nullptr)
        metrics->histogram("svc.queue_wait_ms", 0.0, 250.0, 500)
            .record(std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - item.enqueued)
                        .count());
      if (opts.debug_handler_delay_ms > 0)
        std::this_thread::sleep_for(
            std::chrono::milliseconds(opts.debug_handler_delay_ms));
      std::string response = service.handle_line(item.line);
      respond(item.fd, std::move(response));
      {
        std::lock_guard<std::mutex> lock(mutex);
        --in_flight;
      }
      queue_cv.notify_all();  // drain waiter watches in_flight
    }
  }

  void maintenance_loop() {
    const auto period = std::chrono::duration<double>(opts.advance_period_s);
    std::mutex m;
    std::condition_variable cv;
    while (!stop_flag.load(std::memory_order_relaxed)) {
      service.advance_horizon();
      std::unique_lock<std::mutex> lock(m);
      cv.wait_for(lock, period, [&] {
        return stop_flag.load(std::memory_order_relaxed);
      });
    }
  }

  /// Split complete request lines out of conn.in and dispatch them:
  /// oversized frames get a typed error (and close the connection when
  /// the stream cannot be resynced); normal frames go through admission
  /// control. Caller (the I/O thread) holds `mutex`.
  void dispatch_lines(int fd, Connection& conn) {
    for (;;) {
      const std::size_t nl = conn.in.find('\n');
      if (nl == std::string::npos) {
        if (conn.in.size() > opts.max_request_bytes) {
          // Unterminated over-limit frame: answer and drop the stream.
          conn.out.push_back(
              error_response(ErrorCode::kOversized,
                             "request exceeds frame limit") +
              "\n");
          conn.close_after_flush = true;
          conn.in.clear();
          if (metrics != nullptr)
            metrics->counter("svc.errors.oversized").add(1);
        }
        return;
      }
      std::string line = conn.in.substr(0, nl);
      conn.in.erase(0, nl + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;  // keep-alive blank lines
      if (line.size() > opts.max_request_bytes) {
        conn.out.push_back(error_response(ErrorCode::kOversized,
                                          "request exceeds frame limit") +
                           "\n");
        if (metrics != nullptr)
          metrics->counter("svc.errors.oversized").add(1);
        continue;
      }
      if (stopping) {
        conn.out.push_back(error_response(ErrorCode::kShuttingDown,
                                          "server is draining") +
                           "\n");
        continue;
      }
      if (queue.size() >= opts.queue_capacity) {
        // Admission control: shed instead of queueing unboundedly.
        service.note_shed();
        if (metrics != nullptr) metrics->counter("svc.shed").add(1);
        conn.out.push_back(error_response(ErrorCode::kOverloaded,
                                          "request queue full", nullptr,
                                          opts.retry_after_ms) +
                           "\n");
        continue;
      }
      Queued& item = queue.emplace_back();
      item.fd = fd;
      item.line = std::move(line);
      if (metrics != nullptr) {
        item.enqueued = std::chrono::steady_clock::now();
        metrics->gauge("svc.queue_depth")
            .set(static_cast<double>(queue.size()));
      }
      queue_cv.notify_one();
    }
  }

  void close_connection(int fd) {
    std::size_t remaining = 0;
    {
      std::lock_guard<std::mutex> lock(mutex);
      connections.erase(fd);
      remaining = connections.size();
    }
    ::close(fd);
    if (metrics != nullptr)
      metrics->gauge("svc.connections").set(static_cast<double>(remaining));
  }

  void io_loop() {
    std::vector<pollfd> fds;
    bool draining = false;
    auto drain_deadline = std::chrono::steady_clock::time_point::max();

    for (;;) {
      if (!draining && stop_flag.load(std::memory_order_relaxed)) {
        // Begin graceful drain: no new connections, no new reads.
        draining = true;
        drain_deadline = std::chrono::steady_clock::now() +
                         std::chrono::duration_cast<
                             std::chrono::steady_clock::duration>(
                             std::chrono::duration<double>(
                                 opts.drain_timeout_s));
        ::close(listen_fd);
        listen_fd = -1;
        {
          std::lock_guard<std::mutex> lock(mutex);
          stopping = true;
        }
        queue_cv.notify_all();
      }

      fds.clear();
      fds.push_back({wake_read, POLLIN, 0});
      if (listen_fd >= 0) fds.push_back({listen_fd, POLLIN, 0});
      {
        std::lock_guard<std::mutex> lock(mutex);
        for (auto& [fd, conn] : connections) {
          short events = draining ? 0 : POLLIN;
          if (!conn.out.empty()) events |= POLLOUT;
          if (events != 0) fds.push_back({fd, events, 0});
        }
        if (draining) {
          bool queue_idle = queue.empty() && in_flight == 0;
          bool flushed = true;
          for (const auto& [fd, conn] : connections)
            if (!conn.out.empty()) flushed = false;
          if ((queue_idle && flushed) ||
              std::chrono::steady_clock::now() >= drain_deadline)
            break;
        }
      }

      const int timeout_ms = draining ? 50 : 500;
      const int ready = ::poll(fds.data(), fds.size(), timeout_ms);
      if (ready < 0) {
        if (errno == EINTR) continue;
        break;
      }

      for (const pollfd& p : fds) {
        if (p.revents == 0) continue;
        if (p.fd == wake_read) {
          char buf[64];
          while (::read(wake_read, buf, sizeof(buf)) > 0) {
          }
          continue;
        }
        if (p.fd == listen_fd) {
          for (;;) {
            const int client = ::accept(listen_fd, nullptr, nullptr);
            if (client < 0) break;
            set_nonblocking(client);
            const int one = 1;
            ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
            std::lock_guard<std::mutex> lock(mutex);
            connections.emplace(client, Connection{});
            if (metrics != nullptr) {
              metrics->counter("svc.connections_accepted").add(1);
              metrics->gauge("svc.connections")
                  .set(static_cast<double>(connections.size()));
            }
          }
          continue;
        }

        // Client socket. Writes first so a flush can precede a close.
        bool closed = false;
        if ((p.revents & POLLOUT) != 0) {
          std::unique_lock<std::mutex> lock(mutex);
          const auto it = connections.find(p.fd);
          if (it != connections.end()) {
            Connection& conn = it->second;
            while (!conn.out.empty()) {
              const std::string& front = conn.out.front();
              const ssize_t n =
                  ::send(p.fd, front.data() + conn.out_offset,
                         front.size() - conn.out_offset, MSG_NOSIGNAL);
              if (n <= 0) break;
              conn.out_offset += static_cast<std::size_t>(n);
              if (conn.out_offset == front.size()) {
                conn.out.pop_front();
                conn.out_offset = 0;
              }
            }
            if (conn.out.empty() && conn.close_after_flush) {
              lock.unlock();
              close_connection(p.fd);
              closed = true;
            }
          }
        }
        if (closed) continue;
        if ((p.revents & (POLLIN | POLLHUP | POLLERR)) != 0 && !draining) {
          char buf[4096];
          bool eof = false;
          for (;;) {
            const ssize_t n = ::recv(p.fd, buf, sizeof(buf), 0);
            if (n > 0) {
              std::lock_guard<std::mutex> lock(mutex);
              const auto it = connections.find(p.fd);
              if (it == connections.end()) break;
              it->second.in.append(buf, static_cast<std::size_t>(n));
              continue;
            }
            if (n == 0) eof = true;
            if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) eof = true;
            break;
          }
          {
            std::lock_guard<std::mutex> lock(mutex);
            const auto it = connections.find(p.fd);
            if (it != connections.end()) dispatch_lines(p.fd, it->second);
          }
          if (eof) {
            // A truncated (newline-less) trailing frame dies with the
            // connection — nothing to answer a hung-up client.
            close_connection(p.fd);
          }
        } else if ((p.revents & (POLLHUP | POLLERR)) != 0 && draining) {
          close_connection(p.fd);
        }
      }
    }

    // Drain finished (or timed out): close everything still open.
    std::vector<int> open;
    {
      std::lock_guard<std::mutex> lock(mutex);
      for (const auto& [fd, conn] : connections) open.push_back(fd);
    }
    for (const int fd : open) close_connection(fd);
  }
};

Server::Server(PassService& service, const ServerOptions& opts,
               obs::MetricsRegistry* metrics)
    : impl_(new Impl(service, opts, metrics)) {
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    delete impl_;
    throw std::runtime_error("svc::Server: pipe() failed");
  }
  impl_->wake_read = pipe_fds[0];
  impl_->wake_write = pipe_fds[1];
  set_nonblocking(impl_->wake_read);
  set_nonblocking(impl_->wake_write);

  impl_->listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (impl_->listen_fd < 0) {
    delete impl_;
    throw std::runtime_error("svc::Server: socket() failed");
  }
  const int one = 1;
  ::setsockopt(impl_->listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(opts.port));
  if (::inet_pton(AF_INET, opts.bind_address.c_str(), &addr.sin_addr) != 1) {
    delete impl_;
    throw std::runtime_error("svc::Server: bad bind address '" +
                             opts.bind_address + "'");
  }
  if (::bind(impl_->listen_fd, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(impl_->listen_fd, opts.backlog) != 0) {
    delete impl_;
    throw std::runtime_error("svc::Server: bind/listen failed on " +
                             opts.bind_address);
  }
  socklen_t len = sizeof(addr);
  ::getsockname(impl_->listen_fd, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = static_cast<int>(ntohs(addr.sin_port));
  set_nonblocking(impl_->listen_fd);

  impl_->io_thread = std::thread([this] { impl_->io_loop(); });
  const unsigned workers = impl_->opts.workers == 0 ? 1 : impl_->opts.workers;
  impl_->workers.reserve(workers);
  for (unsigned w = 0; w < workers; ++w)
    impl_->workers.emplace_back([this] { impl_->worker_loop(); });
  impl_->maintenance = std::thread([this] { impl_->maintenance_loop(); });
}

Server::~Server() {
  request_stop();
  wait();
  if (impl_->wake_read >= 0) ::close(impl_->wake_read);
  if (impl_->wake_write >= 0) ::close(impl_->wake_write);
  delete impl_;
}

void Server::request_stop() noexcept {
  impl_->stop_flag.store(true, std::memory_order_relaxed);
  impl_->wake();
  impl_->queue_cv.notify_all();
}

void Server::wait() {
  if (impl_->io_thread.joinable()) impl_->io_thread.join();
  // The I/O thread exits only after `stopping` is set, so the workers
  // are already unblocked; they drain whatever is still queued.
  for (std::thread& w : impl_->workers)
    if (w.joinable()) w.join();
  if (impl_->maintenance.joinable()) impl_->maintenance.join();
}

}  // namespace sinet::svc
