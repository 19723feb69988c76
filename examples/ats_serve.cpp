// ats_serve — the analysis-as-a-service daemon (docs/SERVICE.md).
//
//   ats_serve --socket /tmp/ats.sock --state-dir /var/tmp/ats
//
// Listens on a local Unix socket for analyze/sweep/generate requests
// (send them with ats_client), schedules them behind an admission
// controller with per-class concurrency limits, memoizes results in a
// crash-consistent cache, and re-admits interrupted work on restart.
// SIGINT/SIGTERM drain gracefully; SIGKILL is the tested crash case —
// restart with the same --state-dir and the daemon comes back warm.
#include <csignal>
#include <iostream>
#include <string>

#include "common/strutil.hpp"
#include "gen/registry.hpp"
#include "service/server.hpp"

namespace {

constexpr const char* kUsage =
    "usage: ats_serve --socket <path> [options]\n"
    "\n"
    "  --socket <path>        Unix socket to listen on (required)\n"
    "  --state-dir <dir>      cache + in-flight journals; omit for in-memory\n"
    "  --workers <n>          worker threads (default: ATS_JOBS / cores)\n"
    "  --queue-depth <n>      admission queue bound (default 64)\n"
    "  --analyze-slots <n>    concurrent analyzes (default: workers)\n"
    "  --sweep-slots <n>      concurrent sweeps (default: workers/2)\n"
    "  --generate-slots <n>   concurrent generates (default: workers)\n"
    "  --deadline-ms <n>      default request deadline (0 = none)\n"
    "  --idle-timeout-ms <n>  close idle connections after (default 30000)\n"
    "  --max-connections <n>  concurrent clients (default 64)\n"
    "  --max-sweep-values <n> largest accepted sweep (default 512)\n"
    "  --help                 show this message\n";

ats::service::Server* g_server = nullptr;

void on_signal(int) {
  if (g_server != nullptr) g_server->request_stop();
}

int parse_int(const std::string& flag, const char* value) {
  if (const auto v = ats::parse_decimal<int>(value)) return *v;
  throw ats::UsageError("ats_serve: " + flag + " expects an integer, got '" +
                        value + "'");
}

}  // namespace

int main(int argc, char** argv) {
  ats::service::ServerOptions opt;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--help" || arg == "-h") {
        std::cout << kUsage;
        return ats::gen::kExitOk;
      }
      ats::require(i + 1 < argc, "ats_serve: " + arg + " expects a value");
      const char* v = argv[++i];
      if (arg == "--socket") {
        opt.socket_path = v;
      } else if (arg == "--state-dir") {
        opt.state_dir = v;
      } else if (arg == "--workers") {
        opt.workers = parse_int(arg, v);
      } else if (arg == "--queue-depth") {
        opt.queue_depth = parse_int(arg, v);
      } else if (arg == "--analyze-slots") {
        opt.analyze_slots = parse_int(arg, v);
      } else if (arg == "--sweep-slots") {
        opt.sweep_slots = parse_int(arg, v);
      } else if (arg == "--generate-slots") {
        opt.generate_slots = parse_int(arg, v);
      } else if (arg == "--deadline-ms") {
        opt.default_deadline = std::chrono::milliseconds(parse_int(arg, v));
      } else if (arg == "--idle-timeout-ms") {
        opt.idle_timeout = std::chrono::milliseconds(parse_int(arg, v));
      } else if (arg == "--max-connections") {
        opt.max_connections = parse_int(arg, v);
      } else if (arg == "--max-sweep-values") {
        opt.max_sweep_values = parse_int(arg, v);
      } else {
        throw ats::UsageError("ats_serve: unknown flag '" + arg + "'");
      }
    }
    ats::require(!opt.socket_path.empty(), "ats_serve: --socket is required");
  } catch (const ats::UsageError& e) {
    std::cerr << "error: " << e.what() << "\n" << kUsage;
    return ats::gen::kExitUsage;
  }

  try {
    ats::service::Server server(opt);
    g_server = &server;
    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);
    std::signal(SIGPIPE, SIG_IGN);

    server.start();
    const auto cs = server.cache_stats();
    std::cerr << "ats_serve: listening on " << opt.socket_path << " ("
              << server.options().workers << " workers, cache " << cs.entries
              << " entries";
    if (server.counters().recovered > 0) {
      std::cerr << ", recovered " << server.counters().recovered
                << " interrupted request(s)";
    }
    std::cerr << ")\n";

    server.wait();
    server.stop();
    const auto c = server.counters();
    std::cerr << "ats_serve: stopped (accepted=" << c.accepted
              << " completed=" << c.completed << " shed=" << c.shed
              << " simulations=" << c.simulations << ")\n";
    g_server = nullptr;
    return ats::gen::kExitOk;
  } catch (const ats::Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return ats::gen::kExitFailure;
  }
}
