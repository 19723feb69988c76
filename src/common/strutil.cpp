#include "common/strutil.hpp"

#include <array>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstring>
#include <limits>

namespace ats {

namespace {

/// "00" to "99", for writing decimal digits two at a time.
constexpr auto kDigitPairs = [] {
  std::array<char, 200> t{};
  for (int i = 0; i < 100; ++i) {
    t[2 * i] = static_cast<char>('0' + i / 10);
    t[2 * i + 1] = static_cast<char>('0' + i % 10);
  }
  return t;
}();

/// Appends `seconds` as "%.9f" would; see kExactNsBound for the integer
/// path's proof.
void append_seconds(std::string& out, double seconds) {
  // The range test also rejects NaN before the conversion sees it.
  if (std::fabs(seconds) < static_cast<double>(kExactNsBound) * 1e-9) {
    // The nearest integer; how ties round does not matter, since only an
    // ns that gives back `seconds` bit for bit takes this path.
    const double scaled = seconds * 1e9;
    const auto ns =
        static_cast<std::int64_t>(scaled + std::copysign(0.5, scaled));
    if (ns < kExactNsBound && ns > -kExactNsBound &&
        std::bit_cast<std::uint64_t>(static_cast<double>(ns) * 1e-9) ==
            std::bit_cast<std::uint64_t>(seconds)) {
      const auto mag = static_cast<std::uint64_t>(ns < 0 ? -ns : ns);
      char buf[32];
      char* p = buf;
      if (ns < 0) *p++ = '-';
      p = std::to_chars(p, buf + 20, mag / 1000000000).ptr;
      *p = '.';
      auto frac = static_cast<std::uint32_t>(mag % 1000000000);
      p[9] = static_cast<char>('0' + frac % 10);
      frac /= 10;
      for (int i = 7; i >= 1; i -= 2, frac /= 100) {
        std::memcpy(p + i, &kDigitPairs[2 * (frac % 100)], 2);
      }
      out.append(buf, p + 10);
      return;
    }
  }
  append_fixed(out, seconds, 9);
}

}  // namespace

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
  std::string out;
  append_pad_right(out, s, width);
  return out;
}

std::string pad_left(std::string_view s, std::size_t width) {
  std::string out(s);
  right_align(out, 0, width);
  return out;
}

void append_pad_right(std::string& out, std::string_view s,
                      std::size_t width) {
  const std::string_view kept = s.substr(0, width);
  out.append(kept).append(width - kept.size(), ' ');
}

void right_align(std::string& out, std::size_t from, std::size_t width) {
  const std::size_t len = out.size() - from;
  if (len < width) out.insert(from, width - len, ' ');
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
  append_seconds(out, seconds);
  out += '\n';
}

std::string hex64(std::uint64_t v) {
  char buf[16];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v, 16);
  return std::string(buf, res.ptr);
}

bool parse_hex64(std::string_view s, std::uint64_t* out) {
  if (s.empty() || s.size() > 16) return false;
  std::uint64_t v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v, 16);
  if (ec != std::errc() || ptr != s.data() + s.size()) return false;
  *out = v;
  return true;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

std::string first_line(std::string_view s) {
  return std::string(s.substr(0, s.find('\n')));
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
