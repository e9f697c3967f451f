// Minimal JSON building blocks shared by the structured exporters.
//
// The run-report (obs/run_report.h) and sweep (exp/sweep_spec.h) schemas
// are deliberately tiny, so instead of a dependency we keep one
// cursor-based reader plus the exact-round-trip number formatters here:
// doubles print with 17 significant digits, so a write/parse cycle is
// bit-exact — the property both the run-report round-trip tests and the
// sweep resume guarantee ("resumed aggregates byte-identical") rely on.
#pragma once

#include <cstdint>
#include <string>

namespace sinet::obs {

/// Format a double with 17 significant digits, byte for byte as
/// printf("%.17g") does: enough for strtod to reproduce the exact bits on
/// parse.
[[nodiscard]] std::string json_double(double x);

/// Format an unsigned 64-bit integer in decimal.
[[nodiscard]] std::string json_u64(std::uint64_t x);

/// Escape a string for embedding between JSON quotes (quotes, backslash,
/// control characters).
[[nodiscard]] std::string json_escape(const std::string& s);

/// Cursor-based parser for the subset of JSON our exporters emit:
/// objects, arrays, strings with ASCII escapes, numbers. Throws
/// std::runtime_error (with the byte offset) on malformed input.
class JsonCursor {
 public:
  explicit JsonCursor(const std::string& text) : text_(text) {}

  void skip_ws();
  [[nodiscard]] bool peek_is(char c);
  void expect(char c);
  [[nodiscard]] bool consume_if(char c);
  [[nodiscard]] std::string parse_string();
  [[nodiscard]] double parse_double();
  [[nodiscard]] std::uint64_t parse_u64();
  /// Parse the literals true / false.
  [[nodiscard]] bool parse_bool();
  [[noreturn]] void fail(const std::string& what) const;

 private:
  const std::string& text_;
  std::size_t pos_ = 0;
};

/// Parse `{ "key": <value>, ... }` invoking `on_entry(key)` positioned at
/// each value. Handles the empty object.
template <typename Fn>
void parse_json_object(JsonCursor& cur, Fn&& on_entry) {
  cur.expect('{');
  if (cur.consume_if('}')) return;
  do {
    const std::string key = cur.parse_string();
    cur.expect(':');
    on_entry(key);
  } while (cur.consume_if(','));
  cur.expect('}');
}

/// Parse `[ <value>, ... ]` invoking `on_element()` positioned at each
/// element. Handles the empty array.
template <typename Fn>
void parse_json_array(JsonCursor& cur, Fn&& on_element) {
  cur.expect('[');
  if (cur.consume_if(']')) return;
  do {
    on_element();
  } while (cur.consume_if(','));
  cur.expect(']');
}

}  // namespace sinet::obs
