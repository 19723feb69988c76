#include "service/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/strutil.hpp"
#include "diff/diff.hpp"
#include "gen/source_gen.hpp"

namespace ats::service {

namespace {

using Clock = std::chrono::steady_clock;

std::string error_response(const std::string& code, const std::string& msg) {
  return format_fields(Status::kError, {{"code", code}, {"msg", msg}});
}

std::string shed_response(const AdmissionController::ShedInfo& info) {
  return format_fields(Status::kShed,
                       {{"retry_after_ms", std::to_string(info.retry_after_ms)},
                        {"queued", std::to_string(info.queued)}});
}

/// Writes all of `data` to `fd`, ignoring SIGPIPE (EPIPE just fails).
bool write_all(int fd, std::string_view data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

/// One accepted client connection: the fd, the thread reading it, and a
/// liveness flag so the acceptor can reap finished threads.
struct Server::Conn {
  int fd = -1;
  std::thread thread;
  std::atomic<bool> done{false};
};

Server::Server(ServerOptions opt) : opt_(std::move(opt)) {
  require(!opt_.socket_path.empty(), "service: socket_path is required");
  if (opt_.workers <= 0) opt_.workers = par::default_jobs();
  if (opt_.analyze_slots <= 0) opt_.analyze_slots = opt_.workers;
  if (opt_.generate_slots <= 0) opt_.generate_slots = opt_.workers;
  if (opt_.sweep_slots <= 0) opt_.sweep_slots = std::max(1, opt_.workers / 2);
  // A service must never run a cell without *some* wall-clock bound — a
  // deadline-less request would otherwise pin a worker on a pathological
  // spec forever.  Requests with deadlines get the tighter of the two.
  if (opt_.supervise.wall_clock_limit.count() == 0) {
    opt_.supervise.wall_clock_limit = std::chrono::milliseconds(60'000);
  }

  std::string cache_path, inflight_path;
  if (!opt_.state_dir.empty()) {
    std::filesystem::create_directories(opt_.state_dir);
    cache_path = opt_.state_dir + "/cache.journal";
    inflight_path = opt_.state_dir + "/inflight.journal";
  }
  AdmissionOptions aopt;
  aopt.queue_depth = opt_.queue_depth;
  aopt.workers = opt_.workers;
  aopt.analyze_slots = opt_.analyze_slots;
  aopt.sweep_slots = opt_.sweep_slots;
  aopt.generate_slots = opt_.generate_slots;
  admission_ = std::make_unique<AdmissionController>(aopt);
  cache_ = std::make_unique<ResultCache>(cache_path);
  recovery_ = std::make_unique<RecoveryLog>(inflight_path);
  runner_ = std::make_unique<runner::SupervisedRunner>(opt_.supervise);
}

Server::~Server() {
  stop();
  // Closed here, not in stop(): a wait() still polling the read end must
  // never see its descriptor closed (or reused) under it.
  for (const int fd : wake_pipe_) {
    if (fd >= 0) ::close(fd);
  }
}

void Server::start() {
  require(!started_.exchange(true), "service: start() called twice");
  started_at_ = Clock::now();

  // Build every function-local static on the request path *now*, so the
  // first request races nothing and a registry construction failure
  // aborts startup, not a client (gen/registry.hpp reentrancy contract).
  gen::Registry::instance();

  // Interrupted work from a previous life re-runs before the socket
  // opens: clients reconnecting after a crash observe a warm cache, and
  // each interrupted request is re-admitted exactly once.
  recover();

  struct sockaddr_un addr{};
  require(opt_.socket_path.size() < sizeof(addr.sun_path),
          "service: socket path too long: " + opt_.socket_path);
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw Error("service: socket(): " + std::string(std::strerror(errno)));
  ::unlink(opt_.socket_path.c_str());  // stale socket from a killed daemon
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, opt_.socket_path.c_str(), opt_.socket_path.size());
  if (::bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const std::string err = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw Error("service: cannot bind '" + opt_.socket_path + "': " + err);
  }
  if (::listen(listen_fd_, 64) != 0) {
    const std::string err = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw Error("service: listen(): " + err);
  }
  if (::pipe(wake_pipe_) != 0) {
    throw Error("service: pipe(): " + std::string(std::strerror(errno)));
  }

  workers_.reserve(static_cast<std::size_t>(opt_.workers));
  for (int i = 0; i < opt_.workers; ++i) {
    workers_.emplace_back([this] { worker_main(); });
  }
  acceptor_ = std::thread([this] { acceptor_main(); });
}

void Server::recover() {
  for (const std::string& line : recovery_->pending()) {
    Request req;
    try {
      req = parse_request(line);
    } catch (const UsageError&) {
      continue;  // unparseable journal payload: drop it
    }
    QueuedRequest task;
    task.req = std::move(req);
    task.canonical = line;
    task.id = runner::fnv1a64(line);
    task.enqueued = Clock::now();
    // Recovered work runs under the default deadline (its original one
    // died with the client); without this a recovered pathological spec
    // would burn the full supervision budget before the socket opens.
    if (opt_.default_deadline.count() != 0) {
      task.deadline = task.enqueued + opt_.default_deadline;
    }
    ctr_.recovered.fetch_add(1, std::memory_order_relaxed);
    try {
      execute(task);  // result lands in the cache; there is no client
    } catch (const std::exception&) {
      // Classified failures are already rows; anything else must not
      // wedge startup.
    }
    recovery_->done(task.id);
  }
}

void Server::request_stop() {
  stopping_.store(true, std::memory_order_release);
  if (wake_pipe_[1] >= 0) {
    const char b = 1;
    [[maybe_unused]] const ssize_t n = ::write(wake_pipe_[1], &b, 1);
  }
}

void Server::wait() {
  // Nobody reads the wake pipe, so once request_stop() has written its
  // byte the pipe stays readable and every poll on it returns at once.
  struct pollfd pfd{};
  pfd.fd = wake_pipe_[0];
  pfd.events = POLLIN;
  while (pfd.fd >= 0 && !stopping_.load(std::memory_order_acquire)) {
    ::poll(&pfd, 1, -1);
  }
}

void Server::stop() {
  if (!started_.load(std::memory_order_acquire)) return;
  if (stopped_.exchange(true)) return;
  request_stop();
  if (acceptor_.joinable()) acceptor_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(opt_.socket_path.c_str());
  }
  // Drain: workers finish everything admitted, so every connection
  // blocked on a response gets one before its socket is shut down.
  admission_->shutdown();
  for (std::thread& w : workers_) w.join();
  std::vector<std::shared_ptr<Conn>> conns;
  {
    std::lock_guard<std::mutex> lk(conns_mu_);
    conns.swap(conns_);
  }
  for (const auto& c : conns) {
    if (c->fd >= 0) ::shutdown(c->fd, SHUT_RDWR);
  }
  for (const auto& c : conns) {
    if (c->thread.joinable()) c->thread.join();
    if (c->fd >= 0) ::close(c->fd);
  }
}

void Server::acceptor_main() {
  for (;;) {
    struct pollfd pfds[2] = {};
    pfds[0].fd = listen_fd_;
    pfds[0].events = POLLIN;
    pfds[1].fd = wake_pipe_[0];
    pfds[1].events = POLLIN;
    if (::poll(pfds, 2, -1) < 0 && errno != EINTR) return;
    if (stopping_.load(std::memory_order_acquire)) return;
    if (!(pfds[0].revents & POLLIN)) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    ctr_.connections.fetch_add(1, std::memory_order_relaxed);

    std::lock_guard<std::mutex> lk(conns_mu_);
    // Reap finished connection threads while we are here.
    for (auto it = conns_.begin(); it != conns_.end();) {
      if ((*it)->done.load(std::memory_order_acquire)) {
        if ((*it)->thread.joinable()) (*it)->thread.join();
        if ((*it)->fd >= 0) ::close((*it)->fd);
        it = conns_.erase(it);
      } else {
        ++it;
      }
    }
    if (conns_.size() >= static_cast<std::size_t>(opt_.max_connections)) {
      // Connection-level shedding: tell the client to back off rather
      // than letting the accept backlog grow unboundedly.
      ctr_.shed.fetch_add(1, std::memory_order_relaxed);
      write_all(fd, shed_response({admission_->retry_after_ms_estimate(),
                                   admission_->queued()}) +
                        "\n");
      ::close(fd);
      continue;
    }
    auto conn = std::make_shared<Conn>();
    conn->fd = fd;
    conn->thread = std::thread([this, conn] { connection_main(conn); });
    conns_.push_back(conn);
  }
}

void Server::connection_main(std::shared_ptr<Conn> conn) {
  // Idle connections time out instead of pinning a reader thread.
  struct timeval tv{};
  tv.tv_sec = static_cast<time_t>(opt_.idle_timeout.count() / 1000);
  tv.tv_usec = static_cast<suseconds_t>((opt_.idle_timeout.count() % 1000) * 1000);
  ::setsockopt(conn->fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));

  std::string buf;
  char chunk[4096];
  while (!stopping_.load(std::memory_order_acquire)) {
    const ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;  // peer closed, idle timeout, or shutdown
    buf.append(chunk, static_cast<std::size_t>(n));
    std::size_t nl;
    while ((nl = buf.find('\n')) != std::string::npos) {
      std::string line = buf.substr(0, nl);
      buf.erase(0, nl + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      const std::string resp = handle_line(line, conn->fd);
      if (!resp.empty() && !write_all(conn->fd, resp + "\n")) break;
    }
    if (buf.size() > kMaxRequestLine) {
      // A request line that long is garbage or abuse: reject and hang up
      // rather than buffering without bound.
      ctr_.errors.fetch_add(1, std::memory_order_relaxed);
      write_all(conn->fd,
                error_response("too_large", "request line exceeds 64KiB") + "\n");
      break;
    }
  }
  ::shutdown(conn->fd, SHUT_RDWR);
  conn->done.store(true, std::memory_order_release);
}

std::string Server::handle_line(const std::string& line, int fd) {
  Request req;
  try {
    req = parse_request(line);
  } catch (const UsageError& e) {
    ctr_.errors.fetch_add(1, std::memory_order_relaxed);
    return error_response("usage", first_line(e.what()));
  }

  switch (req.op) {
    case Op::kPing:
      return format_fields(Status::kOk, {{"pong", "1"}});
    case Op::kStatus:
      return status_response();
    case Op::kDiff:
      // Pure cache reads: answered inline like the other control ops, so a
      // warm daemon compares without re-simulating (and a cold one answers
      // not_cached instead of queueing work the client never asked for).
      return diff_response(req);
    case Op::kShutdown:
      // Reply *before* signalling: once request_stop() fires, stop() may
      // shut this connection down and the acknowledgement would be lost.
      write_all(fd, format_fields(Status::kOk, {{"stopping", "1"}}) + "\n");
      request_stop();
      return "";
    default:
      break;
  }

  if (req.op == Op::kSweep &&
      req.values.size() > static_cast<std::size_t>(opt_.max_sweep_values)) {
    ctr_.errors.fetch_add(1, std::memory_order_relaxed);
    return error_response(
        "too_large", "sweep of " + std::to_string(req.values.size()) +
                         " values exceeds max_sweep_values=" +
                         std::to_string(opt_.max_sweep_values));
  }

  QueuedRequest task;
  task.req = std::move(req);
  task.canonical = canonical_request_line(task.req);
  task.id = runner::fnv1a64(task.canonical);
  task.enqueued = Clock::now();
  const auto deadline = task.req.deadline.count() != 0 ? task.req.deadline
                                                       : opt_.default_deadline;
  if (deadline.count() != 0) task.deadline = task.enqueued + deadline;
  task.reply = std::make_shared<std::promise<std::string>>();
  auto future = task.reply->get_future();

  const Op op = task.req.op;
  const std::uint64_t id = task.id;
  // Journal the admission *before* queueing: a kill between here and
  // completion leaves an admit without a done, which is exactly the set
  // recovery re-admits.
  if (op != Op::kGenerate) recovery_->admit(id, task.canonical);
  if (const auto shed = admission_->admit(std::move(task))) {
    if (op != Op::kGenerate) recovery_->done(id);
    ctr_.shed.fetch_add(1, std::memory_order_relaxed);
    return shed_response(*shed);
  }
  ctr_.accepted.fetch_add(1, std::memory_order_relaxed);
  return future.get();
}

void Server::worker_main() {
  QueuedRequest task;
  while (admission_->next(&task)) {
    const RequestClass cls = request_class(task.req.op);
    const auto t0 = Clock::now();
    std::string resp;
    try {
      resp = execute(task);
    } catch (const std::exception& e) {
      ctr_.errors.fetch_add(1, std::memory_order_relaxed);
      resp = error_response("internal", first_line(e.what()));
    }
    admission_->release(cls);
    admission_->record_service_time(
        std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                              t0));
    if (task.req.op != Op::kGenerate) recovery_->done(task.id);
    if (starts_with(resp, "ok")) {
      ctr_.completed.fetch_add(1, std::memory_order_relaxed);
    }
    if (task.reply) task.reply->set_value(std::move(resp));
    task = QueuedRequest{};
  }
}

std::string Server::execute(const QueuedRequest& task) {
  if (Clock::now() >= task.deadline) {
    ctr_.deadline_expired.fetch_add(1, std::memory_order_relaxed);
    ctr_.errors.fetch_add(1, std::memory_order_relaxed);
    return error_response("deadline", "deadline expired before execution");
  }
  try {
    switch (task.req.op) {
      case Op::kGenerate: return execute_generate(task);
      case Op::kAnalyze:
      case Op::kSweep: return execute_analyze_or_sweep(task);
      default:
        return error_response("internal", "control op reached a worker");
    }
  } catch (const UsageError& e) {
    ctr_.errors.fetch_add(1, std::memory_order_relaxed);
    return error_response("usage", first_line(e.what()));
  }
}

std::string Server::execute_generate(const QueuedRequest& task) {
  const auto& def = gen::Registry::instance().find(task.req.prop);
  const std::string source = gen::generate_driver_source(def);
  std::string out = format_fields(
      Status::kOk, {{"op", "generate"},
                    {"prop", def.name},
                    {"bytes", std::to_string(source.size())}});
  out += "\n";
  out += source;
  out += "\nend";
  return out;
}

gen::ExperimentRow Server::cell_through_cache(
    const gen::ExperimentPlan& plan, const gen::PropertyDef& def,
    const std::string& value, std::uint64_t key,
    std::chrono::milliseconds wall_budget, bool* cached) {
  gen::ExperimentRow row;
  const auto found = cache_->lookup_or_begin(key, &row);
  if (found != ResultCache::Found::kOwner) {
    *cached = true;
    return row;
  }
  *cached = false;
  gen::ExperimentPlan p = plan;
  if (wall_budget.count() > 0) {
    // The request's remaining deadline bounds the simulation: a
    // pathological spec degrades to a classified hang row at its own
    // deadline, not at the generous service-wide budget.  The tighter of
    // the two wins (a plan-level nonzero limit overrides the supervisor
    // default, so clamp here).
    p.config.engine.wall_clock_limit =
        opt_.supervise.wall_clock_limit.count() > 0
            ? std::min(wall_budget, opt_.supervise.wall_clock_limit)
            : wall_budget;
  }
  try {
    row = runner_->run_cell(p, def, value);
  } catch (...) {
    cache_->abandon(key);
    throw;
  }
  ctr_.simulations.fetch_add(1, std::memory_order_relaxed);
  cache_->publish(key, row);
  return row;
}

std::string Server::execute_analyze_or_sweep(const QueuedRequest& task) {
  const Request& req = task.req;
  const auto& def = gen::Registry::instance().find(req.prop);
  req.params.check_against(def.params);

  gen::ExperimentPlan plan;
  plan.property = req.prop;
  plan.base = req.params;
  plan.jobs = 1;
  plan.config.nprocs = req.np;
  if (req.op == Op::kAnalyze) {
    plan.axis.param = "np";
    plan.axis.values = {std::to_string(req.np)};
  } else {
    require(req.axis == "np" ||
                std::any_of(def.params.begin(), def.params.end(),
                            [&](const auto& p) { return p.name == req.axis; }),
            "sweep: unknown axis parameter '" + req.axis + "' for '" +
                req.prop + "'");
    plan.axis.param = req.axis;
    plan.axis.values = req.values;
  }
  const std::uint64_t fp = runner::SupervisedRunner::plan_fingerprint(plan);

  const bool bounded = task.deadline != Clock::time_point::max();
  std::vector<std::string> rows;
  rows.reserve(plan.axis.values.size());
  std::size_t cached_cells = 0;
  for (std::size_t i = 0; i < plan.axis.values.size(); ++i) {
    const std::string& value = plan.axis.values[i];
    std::chrono::milliseconds budget{0};
    if (bounded) {
      budget = std::chrono::duration_cast<std::chrono::milliseconds>(
          task.deadline - Clock::now());
      if (budget.count() <= 0) {
        ctr_.deadline_expired.fetch_add(1, std::memory_order_relaxed);
        ctr_.errors.fetch_add(1, std::memory_order_relaxed);
        // Completed cells are cached: the client's retry picks them up
        // for free and only the remainder simulates.
        return error_response(
            "deadline", "deadline expired after " + std::to_string(i) + "/" +
                            std::to_string(plan.axis.values.size()) +
                            " cells (completed cells are cached)");
      }
    }
    bool cached = false;
    const gen::ExperimentRow row = cell_through_cache(
        plan, def, value, ResultCache::cell_key(fp, value), budget, &cached);
    if (cached) ++cached_cells;

    if (req.op == Op::kAnalyze) {
      // Finding names contain spaces ("late sender"); key=value fields
      // must not, or the parser would truncate at the first space.
      std::string dominant = row.dominant;
      std::replace(dominant.begin(), dominant.end(), ' ', '_');
      std::vector<std::pair<std::string, std::string>> kv = {
          {"op", "analyze"},
          {"prop", req.prop},
          {"outcome", gen::to_string(row.outcome)},
          {"cached", cached ? "1" : "0"},
          {"severity_ns", std::to_string(row.severity.ns())},
          {"fraction", fmt_double(row.fraction, 6)},
          {"detected", row.detected ? "1" : "0"},
          {"dominant", dominant},
          {"total_ns", std::to_string(row.total_time.ns())},
          {"attempts", std::to_string(row.attempts)},
          {"fp", hex64(fp)},
      };
      if (!row.note.empty()) kv.emplace_back("msg", first_line(row.note));
      return format_fields(Status::kOk, kv);
    }
    rows.push_back(runner::format_journal_row(fp, i, row));
  }

  std::string out = format_fields(
      Status::kOk,
      {{"op", "sweep"},
       {"prop", req.prop},
       {"rows", std::to_string(rows.size())},
       {"cached", std::to_string(cached_cells)},
       {"fp", hex64(fp)}});
  for (const std::string& r : rows) {
    out += "\n";
    out += r;
  }
  out += "\nend";
  return out;
}

std::string Server::diff_response(const Request& req) {
  // Both sweeps must already be cached cell by cell; a missing cell is an
  // error, never a fresh simulation (the verb's contract: a diff reader
  // can't create load).
  std::vector<gen::ExperimentRow> rows_a, rows_b;
  for (const std::string& value : req.values) {
    gen::ExperimentRow row;
    if (!cache_->peek(ResultCache::cell_key(req.fp_a, value), &row)) {
      ctr_.errors.fetch_add(1, std::memory_order_relaxed);
      return error_response("not_cached",
                            "fp_a=" + hex64(req.fp_a) + " value=" + value +
                                " is not in the result cache");
    }
    rows_a.push_back(std::move(row));
    if (!cache_->peek(ResultCache::cell_key(req.fp_b, value), &row)) {
      ctr_.errors.fetch_add(1, std::memory_order_relaxed);
      return error_response("not_cached",
                            "fp_b=" + hex64(req.fp_b) + " value=" + value +
                                " is not in the result cache");
    }
    rows_b.push_back(std::move(row));
  }
  const std::vector<diff::RowDelta> deltas = diff::diff_rows(rows_a, rows_b);
  std::size_t changed = 0;
  bool regressed = false;
  double max_rel = 0.0;
  for (const diff::RowDelta& d : deltas) {
    if (!d.changed) continue;
    ++changed;
    if (d.delta() > 0 || d.outcome_changed) regressed = true;
    max_rel = std::max(max_rel, d.rel());
  }
  // Framed like a sweep response: rows= row lines, then "end".  Row format:
  //   value,a_ns,b_ns,delta_ns,rel,changed,outcome_changed
  std::string out = format_fields(
      Status::kOk, {{"op", "diff"},
                    {"fp_a", hex64(req.fp_a)},
                    {"fp_b", hex64(req.fp_b)},
                    {"rows", std::to_string(deltas.size())},
                    {"changed", std::to_string(changed)},
                    {"regressed", regressed ? "1" : "0"},
                    {"max_rel", fmt_double(max_rel, 4)}});
  for (const diff::RowDelta& d : deltas) {
    const auto ns = [](double sec) {
      return std::to_string(static_cast<std::int64_t>(sec * 1e9 + 0.5));
    };
    out += "\n" + d.value + "," + ns(d.a_sec) + "," + ns(d.b_sec) + "," +
           std::to_string(static_cast<std::int64_t>(d.delta() * 1e9 +
                                                    (d.delta() < 0 ? -0.5 : 0.5))) +
           "," + fmt_double(d.rel(), 4) + "," + (d.changed ? "1" : "0") + "," +
           (d.outcome_changed ? "1" : "0");
  }
  out += "\nend";
  return out;
}

std::string Server::status_response() {
  const auto up = std::chrono::duration_cast<std::chrono::milliseconds>(
      Clock::now() - started_at_);
  const ServerCounters c = counters();
  const ResultCache::Stats cs = cache_->stats();
  return format_fields(
      Status::kOk,
      {{"up_ms", std::to_string(up.count())},
       {"queued", std::to_string(admission_->queued())},
       {"accepted", std::to_string(c.accepted)},
       {"completed", std::to_string(c.completed)},
       {"shed", std::to_string(c.shed)},
       {"errors", std::to_string(c.errors)},
       {"deadline_expired", std::to_string(c.deadline_expired)},
       {"simulations", std::to_string(c.simulations)},
       {"recovered", std::to_string(c.recovered)},
       {"connections", std::to_string(c.connections)},
       {"cache_hits", std::to_string(cs.hits)},
       {"cache_misses", std::to_string(cs.misses)},
       {"cache_waits", std::to_string(cs.waits)},
       {"cache_entries", std::to_string(cs.entries)},
       {"retry_after_ms", std::to_string(admission_->retry_after_ms_estimate())},
       {"workers", std::to_string(opt_.workers)}});
}

ServerCounters Server::counters() const {
  ServerCounters c;
  c.accepted = ctr_.accepted.load(std::memory_order_relaxed);
  c.completed = ctr_.completed.load(std::memory_order_relaxed);
  c.shed = ctr_.shed.load(std::memory_order_relaxed);
  c.errors = ctr_.errors.load(std::memory_order_relaxed);
  c.deadline_expired = ctr_.deadline_expired.load(std::memory_order_relaxed);
  c.simulations = ctr_.simulations.load(std::memory_order_relaxed);
  c.recovered = ctr_.recovered.load(std::memory_order_relaxed);
  c.connections = ctr_.connections.load(std::memory_order_relaxed);
  return c;
}

ResultCache::Stats Server::cache_stats() const { return cache_->stats(); }

}  // namespace ats::service
