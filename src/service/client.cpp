#include "service/client.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/error.hpp"
#include "common/strutil.hpp"

namespace ats::service {

namespace {

/// Upper bounds on what one framed response may announce.  A sweep or diff
/// answers one row per requested value (the daemon caps those at
/// --max-sweep-values, 512 by default); a generated driver is a few KiB.
constexpr std::int64_t kMaxFrameRows = std::int64_t{1} << 20;
constexpr std::int64_t kMaxFrameBytes = std::int64_t{64} << 20;

/// The announced count `key` of a framed response, checked before the
/// client reserves or reads anything for it.
std::size_t frame_count(const Response& resp, const std::string& key,
                        std::int64_t max) {
  const std::string v = resp.get(key);
  const auto n = parse_decimal<std::int64_t>(v, 0, max);
  if (!n) throw Error("client: implausible frame count " + key + "=" + v);
  return static_cast<std::size_t>(*n);
}

}  // namespace

Client::Client(std::string socket_path) : path_(std::move(socket_path)) {
  struct sockaddr_un addr{};
  require(!path_.empty() && path_.size() < sizeof(addr.sun_path),
          "client: bad socket path '" + path_ + "'");
  fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd_ < 0) throw Error("client: socket(): " + std::string(std::strerror(errno)));
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path_.c_str(), path_.size());
  if (::connect(fd_, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const std::string err = std::strerror(errno);
    ::close(fd_);
    fd_ = -1;
    throw Error("client: cannot connect to '" + path_ + "': " + err +
                " (is ats_serve running?)");
  }
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

std::string Client::read_line() {
  for (;;) {
    const auto nl = buf_.find('\n');
    if (nl != std::string::npos) {
      std::string line = buf_.substr(0, nl);
      buf_.erase(0, nl + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      return line;
    }
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw Error("client: connection to '" + path_ + "' closed");
    buf_.append(chunk, static_cast<std::size_t>(n));
  }
}

std::string Client::read_exact(std::size_t n) {
  while (buf_.size() < n) {
    char chunk[4096];
    const ssize_t r = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) throw Error("client: connection to '" + path_ + "' closed");
    buf_.append(chunk, static_cast<std::size_t>(r));
  }
  std::string out = buf_.substr(0, n);
  buf_.erase(0, n);
  return out;
}

Response Client::call(const std::string& request_line) {
  std::string out = request_line;
  out += "\n";
  std::size_t off = 0;
  while (off < out.size()) {
    const ssize_t n =
        ::send(fd_, out.data() + off, out.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw Error("client: send to '" + path_ + "' failed: " +
                  std::string(std::strerror(errno)));
    }
    off += static_cast<std::size_t>(n);
  }

  Response resp = parse_response_line(read_line());
  if (resp.status != Status::kOk) return resp;

  // Framed payloads: generate announces bytes=, sweep announces rows=.
  // Both end with an "end" line that confirms the frame arrived whole.
  if (resp.fields.count("bytes") != 0) {
    resp.payload = read_exact(frame_count(resp, "bytes", kMaxFrameBytes));
    std::string tail = read_line();
    if (tail.empty()) tail = read_line();
    require(tail == "end", "client: generate frame missing 'end'");
  } else if (resp.fields.count("rows") != 0) {
    const std::size_t rows = frame_count(resp, "rows", kMaxFrameRows);
    resp.rows.reserve(rows);
    for (std::size_t i = 0; i < rows; ++i) resp.rows.push_back(read_line());
    require(read_line() == "end", "client: sweep frame missing 'end'");
  }
  return resp;
}

}  // namespace ats::service
