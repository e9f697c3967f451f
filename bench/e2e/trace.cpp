#include "trace.h"

#include <fstream>
#include <sstream>

#include "obs/json.h"

namespace sinet::bench_e2e {

void Tracer::add(const std::string& name, const std::string& category,
                 Clock::time_point start, Clock::time_point end, int tid,
                 std::vector<Arg> args) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mutex_);
  events_.push_back(
      Event{name, category, start, end, tid, std::move(args)});
}

bool Tracer::write(const std::string& path) const {
  const auto us = [this](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  std::ostringstream out;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  std::lock_guard<std::mutex> lock(mutex_);
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const Event& e = events_[i];
    out << (i == 0 ? "\n" : ",\n") << "{\"name\":\""
        << obs::json_escape(e.name) << "\",\"cat\":\""
        << obs::json_escape(e.category) << "\",\"ph\":\"X\",\"pid\":1,"
        << "\"tid\":" << e.tid << ",\"ts\":" << obs::json_double(us(e.start))
        << ",\"dur\":" << obs::json_double(us(e.end) - us(e.start));
    if (!e.args.empty()) {
      out << ",\"args\":{";
      for (std::size_t a = 0; a < e.args.size(); ++a)
        out << (a == 0 ? "" : ",") << '"' << obs::json_escape(e.args[a].first)
            << "\":" << obs::json_double(e.args[a].second);
      out << '}';
    }
    out << '}';
  }
  out << "\n]}\n";
  std::ofstream file(path);
  file << out.str();
  return static_cast<bool>(file);
}

}  // namespace sinet::bench_e2e
