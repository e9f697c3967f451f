#include "val/schema.h"

#include <fstream>
#include <limits>

#include "obs/json.h"

namespace sinet::val {

namespace {

using obs::json_double;
using obs::json_escape;
using obs::json_u64;

void append_named_values(std::string& out, const char* key,
                         const std::vector<NamedValue>& values) {
  out += "  \"";
  out += key;
  out += "\": [";
  for (std::size_t i = 0; i < values.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"name\": \"" + json_escape(values[i].name) +
           "\", \"value\": " + json_double(values[i].value) + "}";
  }
  out += values.empty() ? "]" : "\n  ]";
}

double named_or_nan(const std::vector<NamedValue>& values,
                    const std::string& name) {
  for (const NamedValue& v : values)
    if (v.name == name) return v.value;
  return std::numeric_limits<double>::quiet_NaN();
}

}  // namespace

double ValidationReport::score_or_nan(const std::string& name) const {
  return named_or_nan(scores, name);
}

std::string to_json(const ValidationReport& r) {
  std::string out = "{\n  \"schema\": \"";
  out += kValidationSchema;
  out += "\",\n  \"scenario\": \"" + json_escape(r.scenario) + "\",\n";
  out += "  \"propagation_mode\": \"" + json_escape(r.propagation_mode) +
         "\",\n";
  out += "  \"start_jd\": " + json_double(r.start_jd) + ",\n";
  out += "  \"duration_days\": " + json_double(r.duration_days) + ",\n";

  out += "  \"windows\": [";
  for (std::size_t i = 0; i < r.windows.size(); ++i) {
    const WindowRecord& w = r.windows[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"satellite\": \"" + json_escape(w.satellite) +
           "\", \"observer\": \"" + json_escape(w.observer) +
           "\", \"aos_jd\": " + json_double(w.aos_jd) +
           ", \"los_jd\": " + json_double(w.los_jd) +
           ", \"tca_jd\": " + json_double(w.tca_jd) +
           ", \"max_elevation_deg\": " + json_double(w.max_elevation_deg) +
           "}";
  }
  out += r.windows.empty() ? "],\n" : "\n  ],\n";

  out += "  \"link_records\": [";
  for (std::size_t i = 0; i < r.link_records.size(); ++i) {
    const LinkRecord& l = r.link_records[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"node\": \"" + json_escape(l.node) +
           "\", \"generated_unix_s\": " + json_double(l.generated_unix_s) +
           ", \"first_tx_unix_s\": " + json_double(l.first_tx_unix_s) +
           ", \"server_rx_unix_s\": " + json_double(l.server_rx_unix_s) +
           ", \"attempts\": " + json_u64(l.attempts) +
           ", \"delivered\": " + (l.delivered ? "true" : "false") + "}";
  }
  out += r.link_records.empty() ? "],\n" : "\n  ],\n";

  out += "  \"distributions\": [";
  for (std::size_t i = 0; i < r.distributions.size(); ++i) {
    const NamedDistribution& d = r.distributions[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"name\": \"" + json_escape(d.name) + "\", \"samples\": [";
    for (std::size_t k = 0; k < d.samples.size(); ++k) {
      if (k > 0) out += ", ";
      out += json_double(d.samples[k]);
    }
    out += "]}";
  }
  out += r.distributions.empty() ? "],\n" : "\n  ],\n";

  append_named_values(out, "scalars", r.scalars);
  out += ",\n";
  append_named_values(out, "scores", r.scores);
  out += "\n}\n";
  return out;
}

bool write_json_file(const std::string& path,
                     const ValidationReport& report) {
  std::ofstream out(path);
  if (!out) return false;
  out << to_json(report);
  return static_cast<bool>(out);
}

}  // namespace sinet::val
