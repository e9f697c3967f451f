#include "orbit/tle_catalog.h"

#include <stdexcept>

namespace sinet::orbit {

namespace {

std::string rstrip(std::string s) {
  while (!s.empty() && (s.back() == '\r' || s.back() == '\n' ||
                        s.back() == ' ' || s.back() == '\t'))
    s.pop_back();
  return s;
}

bool looks_like_element_line(const std::string& s, char which) {
  return s.size() >= 2 && s[0] == which && s[1] == ' ';
}

}  // namespace

std::vector<Tle> read_tle_catalog(std::istream& is) {
  std::vector<Tle> out;
  std::string line;
  std::string pending_name;
  std::string line1;
  std::size_t line_no = 0;
  std::size_t line1_no = 0;

  while (std::getline(is, line)) {
    ++line_no;
    line = rstrip(line);
    if (line.empty()) continue;

    if (looks_like_element_line(line, '1')) {
      if (!line1.empty())
        throw std::invalid_argument(
            "TLE catalog: two consecutive line-1 entries at line " +
            std::to_string(line_no));
      line1 = line;
      line1_no = line_no;
    } else if (looks_like_element_line(line, '2')) {
      if (line1.empty())
        throw std::invalid_argument(
            "TLE catalog: line 2 without a preceding line 1 at line " +
            std::to_string(line_no));
      try {
        out.push_back(parse_tle(pending_name, line1, line));
      } catch (const std::invalid_argument& e) {
        throw std::invalid_argument("TLE catalog: entry ending at line " +
                                    std::to_string(line_no) + ": " +
                                    e.what());
      }
      pending_name.clear();
      line1.clear();
    } else {
      // A name line for the next entry.
      if (!line1.empty())
        throw std::invalid_argument(
            "TLE catalog: name line between element lines at line " +
            std::to_string(line_no));
      pending_name = line;
    }
  }
  if (!line1.empty())
    throw std::invalid_argument(
        "TLE catalog: dangling line 1 at line " + std::to_string(line1_no));
  return out;
}

}  // namespace sinet::orbit
