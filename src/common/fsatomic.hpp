// Crash-consistent file primitives (write-to-temp + atomic rename).
//
// Several layers persist state that must survive an unceremonious kill —
// the supervised runner's sweep journal (resumed when
// SupervisorOptions::resume is set), and the analysis service's result
// cache and in-flight request table (reloaded on daemon restart).  A plain
// appending ofstream can be interrupted mid-line, leaving a torn record
// that a later load misparses or silently drops together with everything
// after it.  The primitives here guarantee that a
// reader only ever observes a file that some writer produced in full:
//
//   * atomic_write_file(): the POSIX temp-file-in-same-directory + fsync +
//     rename(2) dance.  rename is atomic on every POSIX filesystem, so a
//     crash at any instant leaves either the old file or the new one,
//     never a mixture and never a half-written line.
//   * AtomicJournal: a line-oriented journal maintained with that
//     primitive.  Every append rewrites the journal through a temp file
//     and renames it into place, so the on-disk journal always consists
//     of complete lines.  Loading tolerates a torn trailing line (from a
//     file produced by other means) by dropping it.
//
// Single-writer: one process (one AtomicJournal instance) owns a journal
// file at a time.  Concurrent writers would race the rename; readers are
// always safe.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace ats {

/// Writes `content` to `path` atomically: the bytes go to a temp file in
/// the same directory, are flushed and fsync'd, and the temp file is then
/// renamed over `path`.  Throws ats::Error on I/O failure (the temp file
/// is removed on the failure paths).
void atomic_write_file(const std::string& path, std::string_view content);

/// A crash-consistent, line-oriented journal.
///
/// Construction loads the existing file (if any): complete lines are kept
/// verbatim, a torn trailing fragment without a final newline is dropped.
/// append() adds one line and persists the whole journal via
/// atomic_write_file, so a kill at any point leaves the previous complete
/// journal on disk.  rewrite() replaces the content wholesale (compaction).
///
/// Journals here are small — one short line per completed sweep cell or
/// in-flight request — so the rewrite-per-append cost is noise next to the
/// simulation each line represents (see bench/tab_runner_overhead).
class AtomicJournal {
 public:
  /// Loads `path` if it exists.  An empty path produces an in-memory
  /// journal that never touches disk (used when journaling is disabled).
  explicit AtomicJournal(std::string path);

  const std::string& path() const { return path_; }
  /// Lines currently in the journal (loaded + appended), in order.
  const std::vector<std::string>& lines() const { return lines_; }

  /// Appends one line (must not contain '\n') and persists atomically.
  void append(std::string line);

  /// Replaces the journal content and persists atomically.
  void rewrite(std::vector<std::string> lines);

 private:
  void persist() const;

  std::string path_;
  std::vector<std::string> lines_;
};

}  // namespace ats
