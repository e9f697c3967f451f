#include "obs/run_report.h"

#include <fstream>
#include <stdexcept>

#include "obs/json.h"

namespace sinet::obs {

namespace {

GaugeSnapshot parse_gauge(JsonCursor& cur) {
  GaugeSnapshot g;
  parse_json_object(cur, [&](const std::string& key) {
    if (key == "value")
      g.value = cur.parse_double();
    else if (key == "max")
      g.max = cur.parse_double();
    else
      cur.fail("unknown gauge field '" + key + "'");
  });
  return g;
}

HistogramSnapshot parse_histogram(JsonCursor& cur) {
  HistogramSnapshot h;
  parse_json_object(cur, [&](const std::string& key) {
    if (key == "lo") h.lo = cur.parse_double();
    else if (key == "hi") h.hi = cur.parse_double();
    else if (key == "underflow") h.underflow = cur.parse_u64();
    else if (key == "overflow") h.overflow = cur.parse_u64();
    else if (key == "nan") h.nan_count = cur.parse_u64();
    else if (key == "total") h.total = cur.parse_u64();
    else if (key == "sum") h.sum = cur.parse_double();
    else if (key == "min") h.min = cur.parse_double();
    else if (key == "max") h.max = cur.parse_double();
    else if (key == "bins") {
      parse_json_array(cur, [&] { h.bins.push_back(cur.parse_u64()); });
    } else {
      cur.fail("unknown histogram field '" + key + "'");
    }
  });
  return h;
}

}  // namespace

std::string to_json(const Snapshot& snapshot) {
  std::string out = "{\n  \"schema\": \"";
  out += kRunReportSchema;
  out += "\",\n  \"info\": {";
  bool first = true;
  for (const auto& [k, v] : snapshot.info) {
    out += first ? "\n" : ",\n";
    out += "    \"" + json_escape(k) + "\": \"" + json_escape(v) + "\"";
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"counters\": {";
  first = true;
  for (const auto& [k, v] : snapshot.counters) {
    out += first ? "\n" : ",\n";
    out += "    \"" + json_escape(k) + "\": " + json_u64(v);
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"gauges\": {";
  first = true;
  for (const auto& [k, g] : snapshot.gauges) {
    out += first ? "\n" : ",\n";
    out += "    \"" + json_escape(k) + "\": {\"value\": " +
           json_double(g.value) + ", \"max\": " + json_double(g.max) + "}";
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"histograms\": {";
  first = true;
  for (const auto& [k, h] : snapshot.histograms) {
    out += first ? "\n" : ",\n";
    out += "    \"" + json_escape(k) + "\": {\"lo\": " + json_double(h.lo) +
           ", \"hi\": " + json_double(h.hi) +
           ", \"underflow\": " + json_u64(h.underflow) +
           ", \"overflow\": " + json_u64(h.overflow) +
           ", \"nan\": " + json_u64(h.nan_count) +
           ", \"total\": " + json_u64(h.total) +
           ", \"sum\": " + json_double(h.sum) +
           ", \"min\": " + json_double(h.min) +
           ", \"max\": " + json_double(h.max) + ", \"bins\": [";
    for (std::size_t i = 0; i < h.bins.size(); ++i) {
      if (i > 0) out += ", ";
      out += json_u64(h.bins[i]);
    }
    out += "]}";
    first = false;
  }
  out += first ? "}\n}\n" : "\n  }\n}\n";
  return out;
}

Snapshot parse_json(const std::string& json) {
  JsonCursor cur(json);
  Snapshot s;
  bool schema_ok = false;
  parse_json_object(cur, [&](const std::string& key) {
    if (key == "schema") {
      if (cur.parse_string() != kRunReportSchema)
        cur.fail("unsupported schema");
      schema_ok = true;
    } else if (key == "info") {
      parse_json_object(cur, [&](const std::string& k) {
        s.info[k] = cur.parse_string();
      });
    } else if (key == "counters") {
      parse_json_object(cur, [&](const std::string& k) {
        s.counters[k] = cur.parse_u64();
      });
    } else if (key == "gauges") {
      parse_json_object(cur, [&](const std::string& k) {
        s.gauges[k] = parse_gauge(cur);
      });
    } else if (key == "histograms") {
      parse_json_object(cur, [&](const std::string& k) {
        s.histograms[k] = parse_histogram(cur);
      });
    } else {
      cur.fail("unknown top-level key '" + key + "'");
    }
  });
  if (!schema_ok)
    throw std::runtime_error("run report parse error: missing schema tag");
  return s;
}

bool write_json_file(const std::string& path, const Snapshot& snapshot) {
  std::ofstream out(path);
  if (!out) return false;
  out << to_json(snapshot);
  return static_cast<bool>(out);
}

}  // namespace sinet::obs
