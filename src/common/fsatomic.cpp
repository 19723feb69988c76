#include "common/fsatomic.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/error.hpp"

namespace ats {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw Error(what + ": " + std::strerror(errno));
}

/// Best-effort fsync of the directory containing `path`, so the rename
/// itself is durable.  Failure is ignored: on filesystems that do not
/// support directory fsync the rename is still atomic, just not yet
/// journalled by the filesystem.
void sync_parent_dir(const std::string& path) {
  const auto slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
}

/// Writes all of `content` to `fd`, retrying short writes.  Returns false
/// with errno set on a write error.
bool write_all(int fd, std::string_view content) {
  std::size_t off = 0;
  while (off < content.size()) {
    const ssize_t n = ::write(fd, content.data() + off, content.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

void atomic_write_file(const std::string& path, std::string_view content) {
  require(!path.empty(), "atomic_write_file: empty path");
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) fail("atomic_write_file: cannot create '" + tmp + "'");
  if (!write_all(fd, content)) {
    ::close(fd);
    ::unlink(tmp.c_str());
    fail("atomic_write_file: write to '" + tmp + "' failed");
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    ::unlink(tmp.c_str());
    fail("atomic_write_file: fsync of '" + tmp + "' failed");
  }
  ::close(fd);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    fail("atomic_write_file: rename to '" + path + "' failed");
  }
  sync_parent_dir(path);
}

AtomicJournal::AtomicJournal(std::string path, const LineFn& on_line)
    : path_(std::move(path)) {
  if (path_.empty()) return;
  std::ifstream in(path_, std::ios::binary);
  if (!in) return;  // no journal yet
  on_disk_ = true;
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string content = std::move(buf).str();
  const std::string_view view = content;
  std::size_t start = 0;
  for (std::size_t nl; (nl = view.find('\n', start)) != view.npos;
       start = nl + 1) {
    if (on_line) on_line(view.substr(start, nl - start));
  }
  if (start == content.size()) return;
  // Bytes after the last newline are a torn last line (a kill mid-append):
  // drop them and cut them from the file, so the next append does not
  // extend the fragment into a line that was never written.
  const int fd = ::open(path_.c_str(), O_WRONLY | O_CLOEXEC);
  const bool cut = fd >= 0 &&
                   ::ftruncate(fd, static_cast<off_t>(start)) == 0 &&
                   ::fdatasync(fd) == 0;
  const int err = errno;
  if (fd >= 0) ::close(fd);
  errno = err;
  if (!cut) fail("AtomicJournal: cannot cut the torn tail of '" + path_ + "'");
}

void AtomicJournal::append(std::string line) {
  require(line.find('\n') == std::string::npos,
          "AtomicJournal: journal lines must not contain newlines");
  if (path_.empty()) return;
  line += '\n';
  const int fd =
      ::open(path_.c_str(), O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) fail("AtomicJournal: cannot open '" + path_ + "'");
  const off_t end = ::lseek(fd, 0, SEEK_END);
  if (!write_all(fd, line) || ::fdatasync(fd) != 0) {
    const int err = errno;
    if (end >= 0 && ::ftruncate(fd, end) != 0) {
      // Best effort only: a partial line left here is cut at next load.
    }
    ::close(fd);
    errno = err;
    fail("AtomicJournal: append to '" + path_ + "' failed");
  }
  ::close(fd);
  if (!on_disk_) {
    sync_parent_dir(path_);  // the append created the file
    on_disk_ = true;
  }
}

void AtomicJournal::rewrite(const std::vector<std::string>& lines) {
  std::size_t total = 0;
  for (const auto& l : lines) {
    require(l.find('\n') == std::string::npos,
            "AtomicJournal: journal lines must not contain newlines");
    total += l.size() + 1;
  }
  if (path_.empty()) return;
  std::string content;
  content.reserve(total);
  for (const auto& l : lines) {
    content += l;
    content += '\n';
  }
  atomic_write_file(path_, content);
  on_disk_ = true;
}

}  // namespace ats
