// The ATS analysis daemon (docs/SERVICE.md).
//
// A persistent server over a local Unix stream socket that accepts
// generate/analyze/sweep/status requests, runs them on a fixed set of
// worker threads behind an admission controller, and memoizes results in
// a crash-consistent cell cache.  The robustness
// contract:
//
//   * overload sheds (a "shed retry_after_ms=..." response, never an
//     unbounded wait, never a silent drop),
//   * every admitted request has a deadline; a pathological spec burns
//     its own budget and comes back as a classified hang/deadlock row,
//     not a stuck worker,
//   * repeated work is a cache hit (single simulation under concurrent
//     identical requests),
//   * a SIGKILL'd daemon restarts warm: completed cells reload from the
//     cache journal, interrupted requests re-admit exactly once from the
//     in-flight table (service/recovery.hpp) before the socket reopens.
//
// The server is embeddable (tests and bench run it in-process); the
// `ats_serve` example wraps it into the standalone daemon.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "runner/supervisor.hpp"
#include "service/admission.hpp"
#include "service/cache.hpp"
#include "service/protocol.hpp"
#include "service/recovery.hpp"

namespace ats::service {

struct ServerOptions {
  /// Filesystem path of the Unix stream socket (required).  A stale
  /// socket file from a killed daemon is replaced on start.
  std::string socket_path;
  /// Directory for the cache and in-flight journals; created if missing.
  /// Empty = fully in-memory (no warm restart, no recovery).
  std::string state_dir;
  /// Worker threads executing admitted requests, each draining the
  /// admission queue until shutdown.  <= 0 selects par::default_jobs().
  int workers = 0;
  /// Bounded queue depth; arrivals beyond it are shed.
  int queue_depth = 64;
  /// Per-class concurrency limits; <= 0 derives from `workers`
  /// (analyze/generate: workers, sweep: max(1, workers/2)).
  int analyze_slots = 0;
  int sweep_slots = 0;
  int generate_slots = 0;
  /// Cap on sweep request size; larger requests are rejected as
  /// too_large (one request must not monopolise the daemon).
  int max_sweep_values = 512;
  /// Deadline applied to requests that carry none; zero = unbounded
  /// (still subject to the supervision budgets below).
  std::chrono::milliseconds default_deadline{0};
  /// Idle connections are closed after this long without a request.
  std::chrono::milliseconds idle_timeout{30'000};
  /// Concurrent client connections; excess connections are shed at
  /// accept time.
  int max_connections = 64;
  /// Budgets/retries applied to every simulated cell (the per-request
  /// deadline additionally bounds host wall clock).
  runner::SupervisorOptions supervise{};
};

/// Monotonic counters exposed by the status request.
struct ServerCounters {
  std::uint64_t accepted = 0;          ///< work requests admitted
  std::uint64_t completed = 0;         ///< work requests answered ok
  std::uint64_t shed = 0;              ///< requests rejected under load
  std::uint64_t errors = 0;            ///< error responses (usage, too_large, ...)
  std::uint64_t deadline_expired = 0;  ///< requests that ran out of deadline
  std::uint64_t simulations = 0;       ///< cells actually simulated
  std::uint64_t recovered = 0;         ///< requests re-admitted at startup
  std::uint64_t connections = 0;       ///< connections ever accepted
};

class Server {
 public:
  explicit Server(ServerOptions opt);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Recovers interrupted work, then binds the socket and starts the
  /// acceptor and the workers.  Throws ats::Error on bind failure.
  void start();

  /// Blocks until a shutdown request or request_stop() arrives (returns
  /// at once if start() has not opened the wake pipe).
  void wait();

  /// Signals shutdown (safe to call from any thread; a signal handler
  /// may call it — it only sets an atomic and writes a pipe byte).
  void request_stop();

  /// Graceful shutdown: stops accepting, drains the queue, joins all
  /// threads, removes the socket file.  Idempotent.
  void stop();

  ServerCounters counters() const;
  ResultCache::Stats cache_stats() const;
  const ServerOptions& options() const { return opt_; }

 private:
  struct Conn;

  void recover();
  void acceptor_main();
  void connection_main(std::shared_ptr<Conn> conn);
  void worker_main();

  /// Handles one request line, returning the full response text
  /// (possibly multi-line, "end"-terminated) to write back.  Returns ""
  /// when the response was already written to `fd` (shutdown, which must
  /// acknowledge before signalling).
  std::string handle_line(const std::string& line, int fd);

  /// Executes one admitted work request to a rendered response.
  std::string execute(const QueuedRequest& task);
  std::string execute_analyze_or_sweep(const QueuedRequest& task);
  std::string execute_generate(const QueuedRequest& task);

  /// Runs one cell through the cache (single simulation under concurrent
  /// identical requests).  `wall_budget` bounds the simulation when
  /// positive.  Sets *cached when served without simulating.
  gen::ExperimentRow cell_through_cache(const gen::ExperimentPlan& plan,
                                        const gen::PropertyDef& def,
                                        const std::string& value,
                                        std::uint64_t key,
                                        std::chrono::milliseconds wall_budget,
                                        bool* cached);

  std::string status_response();
  /// Answers a diff request from cached cells only (never simulates);
  /// missing cells yield an error code=not_cached response.
  std::string diff_response(const Request& req);

  ServerOptions opt_;
  std::unique_ptr<AdmissionController> admission_;
  std::unique_ptr<ResultCache> cache_;
  std::unique_ptr<RecoveryLog> recovery_;
  std::unique_ptr<runner::SupervisedRunner> runner_;

  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};
  std::thread acceptor_;
  std::vector<std::thread> workers_;

  std::mutex conns_mu_;
  std::vector<std::shared_ptr<Conn>> conns_;

  std::atomic<bool> stopping_{false};
  std::atomic<bool> stopped_{false};
  std::atomic<bool> started_{false};

  struct Counters {
    std::atomic<std::uint64_t> accepted{0}, completed{0}, shed{0}, errors{0},
        deadline_expired{0}, simulations{0}, recovered{0}, connections{0};
  };
  Counters ctr_;
  std::chrono::steady_clock::time_point started_at_{};
};

}  // namespace ats::service
