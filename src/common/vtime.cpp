#include "common/vtime.hpp"

#include <charconv>
#include <cmath>
#include <stdexcept>

#include "common/strutil.hpp"

namespace ats {

VDur VDur::seconds(double s) {
  if (!std::isfinite(s)) {
    throw std::invalid_argument("VDur::seconds: non-finite value");
  }
  return VDur(static_cast<std::int64_t>(std::llround(s * 1e9)));
}

VDur VDur::operator*(double f) const {
  return VDur(static_cast<std::int64_t>(
      std::llround(static_cast<double>(ns_) * f)));
}

double VDur::operator/(VDur o) const {
  if (o.ns_ == 0) {
    throw std::invalid_argument("VDur::operator/: division by zero duration");
  }
  return static_cast<double>(ns_) / static_cast<double>(o.ns_);
}

namespace {

void append_ns(std::string& out, std::int64_t ns) {
  const double a = std::abs(static_cast<double>(ns));
  if (a < 1e3) {
    char buf[24];
    out.append(buf, std::to_chars(buf, buf + sizeof buf, ns).ptr);
    out += " ns";
  } else if (a < 1e6) {
    append_fixed(out, static_cast<double>(ns) / 1e3, 2);
    out += " us";
  } else if (a < 1e9) {
    append_fixed(out, static_cast<double>(ns) / 1e6, 2);
    out += " ms";
  } else {
    append_fixed(out, static_cast<double>(ns) / 1e9, 3);
    out += " s";
  }
}

}  // namespace

void VDur::append_to(std::string& out) const { append_ns(out, ns_); }

std::string VDur::str() const {
  std::string out;
  append_ns(out, ns_);
  return out;
}

std::string VTime::str() const {
  std::string out;
  append_ns(out, ns_);
  return out;
}

}  // namespace ats
