// Error hierarchy for the ATS library.
//
// All errors thrown by ATS derive from ats::Error so callers can distinguish
// library failures from other exceptions.  Usage errors (bad arguments,
// MPI-semantics violations detected by the simulated runtime) and execution
// errors (deadlock) get their own types because tests assert on them.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

namespace ats {

/// Root of the ATS exception hierarchy.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Invalid arguments or misuse of an ATS API.
class UsageError : public Error {
 public:
  explicit UsageError(const std::string& what) : Error(what) {}
};

/// Violation of simulated-MPI semantics detected by mpisim (e.g. mismatched
/// collective operations, truncation on receive, invalid rank).
class MpiError : public UsageError {
 public:
  explicit MpiError(const std::string& what) : UsageError(what) {}
};

/// Violation of simulated-OpenMP semantics detected by ompsim.
class OmpError : public UsageError {
 public:
  explicit OmpError(const std::string& what) : UsageError(what) {}
};

/// The engine found all remaining locations blocked: simulated deadlock.
/// The message contains a per-location state dump to aid debugging.
class DeadlockError : public Error {
 public:
  explicit DeadlockError(const std::string& what) : Error(what) {}
};

/// The engine exhausted a supervision budget (virtual time, yields, or host
/// wall clock) before the simulation completed: runaway loop, livelock, or
/// host-level hang.  The message carries the same per-location state dump
/// as DeadlockError.
class HangError : public Error {
 public:
  explicit HangError(const std::string& what) : Error(what) {}
};

/// Trace file / trace model inconsistency.
class TraceError : public Error {
 public:
  explicit TraceError(const std::string& what) : Error(what) {}
};

/// Throws UsageError with `what` if `cond` is false.  Takes a string_view so
/// a passing check on a hot path builds no std::string from its literal.
inline void require(bool cond, std::string_view what) {
  if (!cond) [[unlikely]] throw UsageError(std::string(what));
}

}  // namespace ats
