#include "common/strutil.hpp"

#include <charconv>
#include <limits>

namespace ats {

namespace {

/// Appends `v` in printf "%.*f" notation.
void append_fixed(std::string& out, double v, int precision) {
  // std::to_chars in fixed notation is specified to match "%.*f"; printf
  // reads a negative precision as the default of 6.
  const std::size_t decimals =
      static_cast<std::size_t>(precision < 0 ? 6 : precision);
  // DBL_MAX has 309 integer digits; add a sign, a point and the decimals.
  constexpr std::size_t kMaxIntDigits =
      std::numeric_limits<double>::max_exponent10 + 1;
  constexpr std::size_t kInline = kMaxIntDigits + 2 + 32;
  const std::size_t size = kMaxIntDigits + 2 + decimals;
  char inline_buf[kInline];
  std::string heap_buf;
  char* buf = inline_buf;
  if (size > kInline) {
    heap_buf.resize(size);
    buf = heap_buf.data();
  }
  const auto r =
      std::to_chars(buf, buf + size, v, std::chars_format::fixed, precision);
  out.append(buf, r.ptr);
}

}  // namespace

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

std::vector<std::string> split(std::string_view s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string pad_right(std::string_view s, std::size_t width) {
  std::string out(s.substr(0, width));
  out.resize(width, ' ');
  return out;
}

std::string pad_left(std::string_view s, std::size_t width) {
  if (s.size() >= width) return std::string(s);
  return std::string(width - s.size(), ' ') + std::string(s);
}

std::string fmt_double(double v, int precision) {
  std::string out;
  append_fixed(out, v, precision);
  return out;
}

std::string fmt_percent(double frac, int precision) {
  std::string out;
  append_fixed(out, frac * 100.0, precision);
  out += '%';
  return out;
}

void append_severity_row(std::string& out, std::string_view property,
                         std::string_view call_path, std::string_view location,
                         double seconds) {
  out.append(property).append(1, ',').append(call_path).append(1, ',');
  out.append(location).append(1, ',');
  append_fixed(out, seconds, 9);
  out += '\n';
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

std::string repeat(char c, std::size_t n) { return std::string(n, c); }

std::string xml_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      default: out += c; break;
    }
  }
  return out;
}

}  // namespace ats
