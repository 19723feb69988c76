// The in-flight request table: crash recovery for admitted work.
//
// Every admitted analyze/sweep request is recorded (`admit <id> <line>`)
// before execution starts and marked (`done <id>`) when its response has
// been produced, in a crash-consistent journal (common/fsatomic.hpp).  A
// daemon killed mid-request therefore restarts knowing exactly which work
// it had accepted but not finished, and re-admits each such request
// exactly once — the cells the interrupted run already completed are in
// the result cache, so recovery re-simulates only the remainder and a
// client's retry of the same request becomes a cache hit.
//
// The table itself lives in memory — per id the outstanding admission
// count and first request line, in admission order — and admit()/done()
// update it as they append their line; the journal is read only at load,
// through the same routine.  N identical interrupted admissions recover
// as one re-admission.  The table is written out on load (one admit line
// per pending id) and every 64th done (one line per outstanding
// admission), so the journal stays proportional to the in-flight set.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/fsatomic.hpp"

namespace ats::service {

class RecoveryLog {
 public:
  /// Loads `path` (empty = disabled) and compacts it: entries whose admit
  /// count is matched by dones are dropped; the rest become pending().
  explicit RecoveryLog(std::string path);

  /// Canonical request lines admitted and not yet done, in admission
  /// order, one per id.
  std::vector<std::string> pending();

  /// Records an admission.  Thread-safe.
  void admit(std::uint64_t id, const std::string& canonical_line);

  /// Records completion.  Thread-safe.  Periodically compacts.
  void done(std::uint64_t id);

  bool enabled() const { return !journal_.path().empty(); }

 private:
  struct Entry {
    std::uint64_t id = 0;
    int count = 0;        ///< admissions minus dones
    std::string payload;  ///< the first admission's canonical line
  };

  /// Applies one admit (non-empty payload) or done to the table.
  void apply_locked(std::uint64_t id, std::string_view payload);
  /// Applies one journal line; skips lines that are not an entry.
  void apply_line_locked(std::string_view line);
  /// Rewrites the journal as one admit line per outstanding admission.
  void compact_locked();

  std::mutex mu_;
  /// In admission order.  Small: at most the requests in flight at once.
  std::vector<Entry> table_;
  /// Completions since the last compaction.
  int dones_since_compact_ = 0;
  // Declared after the table: loading fills it.
  AtomicJournal journal_;
};

}  // namespace ats::service
