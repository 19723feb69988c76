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
//   * AtomicJournal: a line-oriented, append-only journal that keeps no
//     copy of its lines: loading hands each complete line to the caller
//     once.  An append writes its one line with O_APPEND and fdatasyncs
//     it, so its cost does not grow with the journal.  A kill mid-append
//     can leave a torn last line; loading cuts the file back to its last
//     newline, so the next append starts a line of its own.  Compaction
//     (rewrite) replaces the file through atomic_write_file.
//
// Single-writer: one process (one AtomicJournal instance) owns a journal
// file at a time.  Concurrent writers would interleave appends and race
// the rename; readers are always safe.
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace ats {

/// Writes `content` to `path` atomically: the bytes go to a temp file in
/// the same directory, are flushed and fsync'd, and the temp file is then
/// renamed over `path`.  Throws ats::Error on I/O failure (the temp file
/// is removed on the failure paths).
void atomic_write_file(const std::string& path, std::string_view content);

/// A crash-consistent, line-oriented journal (see the file comment).
class AtomicJournal {
 public:
  /// Receives one loaded line, without its newline.
  using LineFn = std::function<void(std::string_view line)>;

  /// Loads `path` if it exists: passes its complete lines in order to
  /// `on_line` (when given), then drops and cuts a torn trailing fragment.
  /// An empty path is no journal: nothing is loaded, and append() and
  /// rewrite() do nothing.
  explicit AtomicJournal(std::string path, const LineFn& on_line = {});

  const std::string& path() const { return path_; }

  /// Appends one line (must not contain '\n') and makes it durable.
  void append(std::string line);

  /// Replaces the journal content and persists atomically.
  void rewrite(const std::vector<std::string>& lines);

 private:
  std::string path_;
  /// Whether the file's directory entry is known to be durable.
  bool on_disk_ = false;
};

}  // namespace ats
