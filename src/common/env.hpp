// Environment-variable helpers for the runtime-configuration knobs
// (ATS_JOBS).  Thin wrappers over std::getenv that normalise the two cases
// callers actually care about: "unset or empty" versus "has a value".
#pragma once

#include <cstdlib>
#include <optional>
#include <string>

namespace ats {

/// Value of `name`, or nullopt when unset or set to the empty string.
inline std::optional<std::string> env_value(const char* name) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return std::nullopt;
  return std::string(v);
}

/// Integer value of `name`; nullopt when unset, empty, non-numeric or not
/// strictly positive (the shape every ATS count-style knob expects).
inline std::optional<int> env_positive_int(const char* name) {
  const auto v = env_value(name);
  if (!v) return std::nullopt;
  try {
    const int n = std::stoi(*v);
    if (n > 0) return n;
  } catch (...) {
    // fall through: treat malformed values as unset
  }
  return std::nullopt;
}

}  // namespace ats
