// Crash-consistent file primitives.
//
// Several layers persist state that must survive an unceremonious kill —
// the supervised runner's sweep journal (resumed when
// SupervisorOptions::resume is set), and the analysis service's result
// cache and in-flight request table (reloaded on daemon restart).  A kill
// can interrupt a write mid-line, leaving a torn record that a later load
// must neither misparse nor let a later write extend.  The primitives here
// guarantee that a reader only ever sees complete lines:
//
//   * atomic_write_file(): the POSIX temp-file-in-same-directory + fsync +
//     rename(2) dance.  rename is atomic on every POSIX filesystem, so a
//     crash at any instant leaves either the old file or the new one,
//     never a mixture and never a half-written line.
//   * AtomicJournal: a line-oriented, append-only journal.  An append
//     writes its one line with O_APPEND and fdatasyncs it, so its cost
//     does not grow with the journal.  A kill mid-append can leave a torn
//     last line; loading cuts the file back to its last newline, so the
//     fragment is dropped and the next append starts a line of its own.
//     Compaction (rewrite) replaces the file through atomic_write_file.
//
// Single-writer: one process (one AtomicJournal instance) owns a journal
// file at a time.  Concurrent writers would interleave appends and race
// the rename; readers are always safe.
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
/// verbatim, and a torn trailing fragment without a final newline is
/// dropped and cut from the file.  append() writes one line at the end of
/// the file and fdatasyncs it; a kill at any point leaves the earlier
/// lines intact.  rewrite() replaces the content wholesale (compaction)
/// via atomic_write_file.
class AtomicJournal {
 public:
  /// Loads `path` if it exists.  An empty path produces an in-memory
  /// journal that never touches disk (used when journaling is disabled).
  explicit AtomicJournal(std::string path);

  const std::string& path() const { return path_; }
  /// Lines currently in the journal (loaded + appended), in order.
  const std::vector<std::string>& lines() const { return lines_; }

  /// Appends one line (must not contain '\n') and makes it durable.
  void append(std::string line);

  /// Replaces the journal content and persists atomically.
  void rewrite(std::vector<std::string> lines);

 private:
  std::string path_;
  std::vector<std::string> lines_;
  /// Whether the file's directory entry is known to be durable.
  bool on_disk_ = false;
};

}  // namespace ats
