// Fingerprint-keyed result memoization for the analysis service.
//
// The unit of caching is one experiment cell — exactly the unit the
// supervised runner journals.  A cell's key combines the plan fingerprint
// (runner::SupervisedRunner::plan_fingerprint, which already folds in the
// property, parameters, run configuration and analyzer options) with the
// axis value, so a repeated analyze request or a repeated sweep cell is a
// cache hit, never a re-simulation.
//
// Concurrency: lookup_or_begin() deduplicates *in-flight* work too.  The
// first caller for a key becomes its owner and simulates; concurrent
// callers for the same key block until the owner publishes, then return
// the published row.  N clients hitting the same fingerprint cost one
// simulation and N-1 waits (tested in tests/service_test.cpp).
//
// Persistence: completed rows append to a crash-consistent journal
// (common/fsatomic.hpp: one fdatasync'd line per append) in the runner's
// journal-row format, so a killed daemon restarts warm — the constructor
// parses every complete line once into the row table and drops a line
// torn by the kill.  Without a journal nothing is formatted: the row
// table is the only copy.  Rows
// whose outcome depends on host wall clock (RunOutcome::kHang) are never
// cached: a hang under one request's deadline says nothing about a retry
// with a larger budget.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/fsatomic.hpp"
#include "gen/experiment.hpp"

namespace ats::service {

class ResultCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;     ///< rows served from memory/disk
    std::uint64_t misses = 0;   ///< rows the caller had to simulate
    std::uint64_t waits = 0;    ///< rows served by waiting on an in-flight owner
    std::uint64_t entries = 0;  ///< rows currently cached
  };

  /// `journal_path` empty = memory-only cache.  Otherwise existing rows
  /// are loaded immediately (warm restart).
  explicit ResultCache(std::string journal_path);

  /// Cell key: plan fingerprint x axis value.
  static std::uint64_t cell_key(std::uint64_t plan_fp, const std::string& value);

  /// Outcome of a lookup.
  enum class Found : std::uint8_t {
    kHit,    ///< *row filled from the cache
    kOwner,  ///< caller must simulate and then call publish() or abandon()
    kWaited, ///< *row filled after blocking on the in-flight owner
  };

  /// Looks up `key`; registers the caller as owner on a miss.  Blocks
  /// while another thread owns the key.  If the owner abandons, one
  /// waiter is promoted to owner (returns kOwner).
  Found lookup_or_begin(std::uint64_t key, gen::ExperimentRow* row);

  /// Read-only, non-blocking lookup: fills *row and returns true when the
  /// key is already published.  Never registers ownership and never waits
  /// on in-flight work — the diff verb's primitive (a cache *reader* must
  /// not be able to wedge behind a simulating owner).
  bool peek(std::uint64_t key, gen::ExperimentRow* row);

  /// Publishes the owner's row: journals it (unless outcome == kHang),
  /// caches it, wakes all waiters.
  void publish(std::uint64_t key, const gen::ExperimentRow& row);

  /// Owner failed without a row (exception): releases the key and
  /// promotes one waiter, if any, to owner.
  void abandon(std::uint64_t key);

  Stats stats() const;

 private:
  struct Pending {
    bool owned = false;
    std::condition_variable cv;
    int waiters = 0;
  };

  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t, gen::ExperimentRow> rows_;
  std::unordered_map<std::uint64_t, std::unique_ptr<Pending>> pending_;
  Stats stats_{};
  // Declared after rows_, which loading fills.  Appended to only under
  // mu_; AtomicJournal is not internally locked.
  AtomicJournal journal_;
};

}  // namespace ats::service
