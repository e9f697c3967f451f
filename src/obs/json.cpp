#include "obs/json.h"

#include <cctype>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace sinet::obs {

std::string json_double(double x) {
  // 17 significant digits: enough for strtod to reproduce the exact bits.
  // to_chars with a precision prints what printf("%.17g") prints, NaN and
  // infinities included, without parsing a format string.
  char buf[32];
  return std::string(buf, std::to_chars(buf, buf + sizeof(buf), x,
                                        std::chars_format::general, 17)
                              .ptr);
}

std::string json_u64(std::uint64_t x) {
  char buf[24];
  return std::string(buf, std::to_chars(buf, buf + sizeof(buf), x).ptr);
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void JsonCursor::skip_ws() {
  while (pos_ < text_.size() &&
         std::isspace(static_cast<unsigned char>(text_[pos_])))
    ++pos_;
}

bool JsonCursor::peek_is(char c) {
  skip_ws();
  return pos_ < text_.size() && text_[pos_] == c;
}

void JsonCursor::expect(char c) {
  skip_ws();
  if (pos_ >= text_.size() || text_[pos_] != c)
    fail(std::string("expected '") + c + "'");
  ++pos_;
}

bool JsonCursor::consume_if(char c) {
  skip_ws();
  if (pos_ < text_.size() && text_[pos_] == c) {
    ++pos_;
    return true;
  }
  return false;
}

std::string JsonCursor::parse_string() {
  expect('"');
  std::string out;
  while (pos_ < text_.size() && text_[pos_] != '"') {
    char c = text_[pos_++];
    if (c == '\\') {
      if (pos_ >= text_.size()) fail("dangling escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': c = '"'; break;
        case '\\': c = '\\'; break;
        case '/': c = '/'; break;
        case 'n': c = '\n'; break;
        case 'r': c = '\r'; break;
        case 't': c = '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("short \\u escape");
          const unsigned long code =
              std::strtoul(text_.substr(pos_, 4).c_str(), nullptr, 16);
          pos_ += 4;
          // Our writers only escape ASCII control characters.
          c = static_cast<char>(code & 0x7f);
          break;
        }
        default: fail("unknown escape");
      }
    }
    out += c;
  }
  expect('"');
  return out;
}

double JsonCursor::parse_double() {
  skip_ws();
  const char* begin = text_.c_str() + pos_;
  char* end = nullptr;
  const double v = std::strtod(begin, &end);
  if (end == begin) fail("expected number");
  pos_ += static_cast<std::size_t>(end - begin);
  return v;
}

std::uint64_t JsonCursor::parse_u64() {
  skip_ws();
  const char* begin = text_.c_str() + pos_;
  char* end = nullptr;
  const std::uint64_t v = std::strtoull(begin, &end, 10);
  if (end == begin) fail("expected integer");
  pos_ += static_cast<std::size_t>(end - begin);
  return v;
}

bool JsonCursor::parse_bool() {
  skip_ws();
  if (text_.compare(pos_, 4, "true") == 0) {
    pos_ += 4;
    return true;
  }
  if (text_.compare(pos_, 5, "false") == 0) {
    pos_ += 5;
    return false;
  }
  fail("expected true/false");
}

void JsonCursor::fail(const std::string& what) const {
  throw std::runtime_error("json parse error at offset " +
                           std::to_string(pos_) + ": " + what);
}

}  // namespace sinet::obs
