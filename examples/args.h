// Numeric command-line arguments for the example programs and the sinet
// CLI.
//
// std::atof silently maps unparsable text to 0, which would turn a typo
// like `sinet active 3O` (letter O) into a zero-day run, or
// `quickstart abc def` into a pass table for 0°N 0°E, that "succeeds"
// with bogus numbers. parse_double_arg accepts a full numeric token
// (leading/trailing whitespace allowed, nothing else) or throws
// UsageError; main() then prints the message with its usage text and
// exits 2.
#pragma once

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>

namespace sinet::examples {

/// A command-line argument that did not parse.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

inline double parse_double_arg(const char* text, const char* what) {
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  while (end != nullptr && std::isspace(static_cast<unsigned char>(*end)))
    ++end;
  if (end == text || end == nullptr || *end != '\0' || errno == ERANGE)
    throw UsageError(std::string(what) + ": expected a number, got '" +
                     text + "'");
  return value;
}

/// An example's main() on an exception: print it; a UsageError also
/// prints `usage` and exits 2, anything else exits 1.
inline int report_error(const std::exception& e, const char* usage) {
  std::fprintf(stderr, "error: %s\n", e.what());
  if (dynamic_cast<const UsageError*>(&e) == nullptr) return 1;
  std::fprintf(stderr, "usage: %s\n", usage);
  return 2;
}

}  // namespace sinet::examples
