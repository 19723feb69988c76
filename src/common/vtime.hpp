// Virtual-time primitives for the ATS discrete-event substrate.
//
// All timing inside the simulated runtimes (mpisim, ompsim) is expressed in
// virtual nanoseconds.  Using a strong integer type (instead of raw double
// seconds) keeps clock arithmetic exact and platform independent, which is
// what makes positive/negative property tests bit-reproducible.
#pragma once

#include <cstdint>
#include <compare>
#include <limits>
#include <string>

namespace ats {

/// A span of virtual time (signed, nanosecond resolution).
class VDur {
 public:
  constexpr VDur() = default;
  constexpr explicit VDur(std::int64_t ns) : ns_(ns) {}

  /// Converts (possibly fractional) seconds; rounds to nearest nanosecond.
  static VDur seconds(double s);
  static constexpr VDur nanos(std::int64_t ns) { return VDur(ns); }
  static constexpr VDur micros(std::int64_t us) { return VDur(us * 1000); }
  static constexpr VDur millis(std::int64_t ms) { return VDur(ms * 1000000); }
  static constexpr VDur zero() { return VDur(0); }
  static constexpr VDur max() {
    return VDur(std::numeric_limits<std::int64_t>::max());
  }

  constexpr std::int64_t ns() const { return ns_; }
  double sec() const { return static_cast<double>(ns_) * 1e-9; }
  constexpr bool is_zero() const { return ns_ == 0; }
  constexpr bool is_negative() const { return ns_ < 0; }

  constexpr auto operator<=>(const VDur&) const = default;

  constexpr VDur operator+(VDur o) const { return VDur(ns_ + o.ns_); }
  constexpr VDur operator-(VDur o) const { return VDur(ns_ - o.ns_); }
  constexpr VDur operator-() const { return VDur(-ns_); }
  constexpr VDur& operator+=(VDur o) { ns_ += o.ns_; return *this; }
  constexpr VDur& operator-=(VDur o) { ns_ -= o.ns_; return *this; }
  VDur operator*(double f) const;
  constexpr VDur operator*(std::int64_t f) const { return VDur(ns_ * f); }
  constexpr VDur operator/(std::int64_t d) const { return VDur(ns_ / d); }
  /// Ratio of two durations; the divisor must be non-zero.
  double operator/(VDur o) const;

  /// Human-readable rendering with adaptive unit ("1.25 ms", "3.4 s", ...).
  std::string str() const;
  /// Appends str()'s text to `out`.
  void append_to(std::string& out) const;

 private:
  std::int64_t ns_ = 0;
};

/// A point on a location's virtual clock (nanoseconds since engine start).
class VTime {
 public:
  constexpr VTime() = default;
  constexpr explicit VTime(std::int64_t ns) : ns_(ns) {}

  static constexpr VTime zero() { return VTime(0); }
  static constexpr VTime max() {
    return VTime(std::numeric_limits<std::int64_t>::max());
  }

  constexpr std::int64_t ns() const { return ns_; }
  double sec() const { return static_cast<double>(ns_) * 1e-9; }

  constexpr auto operator<=>(const VTime&) const = default;

  constexpr VTime operator+(VDur d) const { return VTime(ns_ + d.ns()); }
  constexpr VTime operator-(VDur d) const { return VTime(ns_ - d.ns()); }
  constexpr VDur operator-(VTime o) const { return VDur(ns_ - o.ns_); }
  constexpr VTime& operator+=(VDur d) { ns_ += d.ns(); return *this; }

  std::string str() const;

 private:
  std::int64_t ns_ = 0;
};

constexpr VTime earlier(VTime a, VTime b) { return a < b ? a : b; }
constexpr VTime later(VTime a, VTime b) { return a < b ? b : a; }
constexpr VDur shorter(VDur a, VDur b) { return a < b ? a : b; }
constexpr VDur longer(VDur a, VDur b) { return a < b ? b : a; }

/// Clamps a duration at zero from below (wait times are never negative).
constexpr VDur non_negative(VDur d) { return d.is_negative() ? VDur::zero() : d; }

}  // namespace ats
