// TAB-SL: load characteristics of the analysis service (docs/SERVICE.md).
//
// Runs an in-process Server on a real Unix socket and drives it with
// concurrent clients through three phases:
//
//   cold        distinct analyze requests — every one simulates; measures
//               raw service throughput and latency,
//   hot         the same request repeated from every client — measures
//               the memoized path (cache hits, zero re-simulation),
//   saturation  a deliberately small daemon (1 worker, depth-2 queue)
//               under a burst of slow requests — measures the shed rate
//               and verifies overload answers immediately instead of
//               queueing without bound.
//
// Prints the table and writes BENCH_service.json (the common context block
// with the client count, then one object per phase: requests, ok/shed/error
// counts, wall seconds, requests/s, p50/p95 latency ms, cache hits) for the
// ctest smoke gate and PR-to-PR diffing.
//
// Usage: tab_service_load [--out <path>] [--clients <n>] [--requests <n>]

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "service/client.hpp"
#include "service/server.hpp"

namespace {

using Clock = std::chrono::steady_clock;

struct PhaseResult {
  std::string name;
  int requests = 0;
  int ok = 0;
  int shed = 0;
  int errors = 0;
  double wall_s = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  std::uint64_t cache_hits = 0;
  std::uint64_t simulations = 0;
};

double percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(p * static_cast<double>(v.size() - 1));
  return v[idx];
}

/// Fires `lines[i % lines.size()]` from `clients` threads, `per_client`
/// requests each, against the server at `socket`.  Latencies are
/// end-to-end per request.
PhaseResult drive(const std::string& name, const std::string& socket,
                  const std::vector<std::string>& lines, int clients,
                  int per_client) {
  PhaseResult r;
  r.name = name;
  r.requests = clients * per_client;
  std::mutex mu;
  std::vector<double> latencies;
  std::atomic<int> ok{0}, shed{0}, errors{0};
  std::atomic<int> cursor{0};
  const auto t0 = Clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&] {
      ats::service::Client client(socket);
      std::vector<double> local;
      for (int i = 0; i < per_client; ++i) {
        const std::string& line =
            lines[static_cast<std::size_t>(cursor.fetch_add(1)) % lines.size()];
        const auto s = Clock::now();
        const ats::service::Response resp = client.call(line);
        local.push_back(std::chrono::duration<double, std::milli>(
                            Clock::now() - s).count());
        switch (resp.status) {
          case ats::service::Status::kOk: ok.fetch_add(1); break;
          case ats::service::Status::kShed: shed.fetch_add(1); break;
          case ats::service::Status::kError: errors.fetch_add(1); break;
        }
      }
      std::lock_guard<std::mutex> lk(mu);
      latencies.insert(latencies.end(), local.begin(), local.end());
    });
  }
  for (auto& t : threads) t.join();
  r.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  r.ok = ok.load();
  r.shed = shed.load();
  r.errors = errors.load();
  r.p50_ms = percentile(latencies, 0.50);
  r.p95_ms = percentile(latencies, 0.95);
  return r;
}

void print_row(const PhaseResult& r) {
  std::printf("%-12s %8d %6d %6d %6d %8.2f %9.1f %8.2f %8.2f %9llu %6llu\n",
              r.name.c_str(), r.requests, r.ok, r.shed, r.errors, r.wall_s,
              static_cast<double>(r.requests) / std::max(r.wall_s, 1e-9),
              r.p50_ms, r.p95_ms,
              static_cast<unsigned long long>(r.cache_hits),
              static_cast<unsigned long long>(r.simulations));
}

void write_json(const std::string& path, const std::vector<PhaseResult>& rs,
                int clients, int per_client) {
  std::ofstream out(path);
  out << "{\n  \"table\": \"TAB-SL\",\n  "
      << ats::benchutil::context_json(
             ", \"clients\": " + std::to_string(clients) +
             ", \"requests_per_client\": " + std::to_string(per_client))
      << ",\n  \"phases\": [\n";
  for (std::size_t i = 0; i < rs.size(); ++i) {
    const PhaseResult& r = rs[i];
    out << "    {\"phase\": \"" << r.name << "\", \"requests\": " << r.requests
        << ", \"ok\": " << r.ok << ", \"shed\": " << r.shed
        << ", \"errors\": " << r.errors << ", \"wall_s\": " << r.wall_s
        << ", \"rps\": "
        << static_cast<double>(r.requests) / std::max(r.wall_s, 1e-9)
        << ", \"p50_ms\": " << r.p50_ms << ", \"p95_ms\": " << r.p95_ms
        << ", \"cache_hits\": " << r.cache_hits
        << ", \"simulations\": " << r.simulations << "}"
        << (i + 1 < rs.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::printf("\nwrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_service.json";
  int clients = 4;
  int per_client = 25;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--out") == 0) out_path = argv[i + 1];
    if (std::strcmp(argv[i], "--clients") == 0) clients = std::atoi(argv[i + 1]);
    if (std::strcmp(argv[i], "--requests") == 0) {
      per_client = std::atoi(argv[i + 1]);
    }
  }

  ats::benchutil::heading(
      "TAB-SL: analysis service under load (docs/SERVICE.md)");
  std::printf("%-12s %8s %6s %6s %6s %8s %9s %8s %8s %9s %6s\n", "phase",
              "requests", "ok", "shed", "errors", "wall_s", "req/s", "p50_ms",
              "p95_ms", "cache_hit", "sims");
  std::vector<PhaseResult> results;

  {
    // cold + hot share one healthy daemon.
    ats::service::ServerOptions opt;
    opt.socket_path = "/tmp/ats_bench_sl.sock";
    opt.workers = 4;
    ats::service::Server server(opt);
    server.start();

    std::vector<std::string> cold_lines;
    for (int i = 0; i < clients * per_client; ++i) {
      cold_lines.push_back("analyze prop=late_sender np=" +
                           std::to_string(2 + i % 8) + " extrawork=0.0" +
                           std::to_string(1 + i / 8));
    }
    PhaseResult cold = drive("cold", opt.socket_path, cold_lines, clients,
                             per_client);
    cold.cache_hits = server.cache_stats().hits;
    cold.simulations = server.counters().simulations;
    print_row(cold);
    results.push_back(cold);

    const auto hits_before = server.cache_stats().hits;
    const auto sims_before = server.counters().simulations;
    PhaseResult hot =
        drive("hot", opt.socket_path,
              {"analyze prop=late_sender np=4 extrawork=0.01"}, clients,
              per_client);
    hot.cache_hits = server.cache_stats().hits - hits_before;
    hot.simulations = server.counters().simulations - sims_before;
    print_row(hot);
    results.push_back(hot);
    server.stop();
  }

  {
    // Saturation: one slow worker, a two-deep queue, a burst of slow
    // distinct requests.  Shedding is the *intended* behaviour here.
    ats::service::ServerOptions opt;
    opt.socket_path = "/tmp/ats_bench_sl_sat.sock";
    opt.workers = 1;
    opt.analyze_slots = 1;
    opt.queue_depth = 2;
    ats::service::Server server(opt);
    server.start();
    std::vector<std::string> slow_lines;
    for (int i = 0; i < 64; ++i) {
      slow_lines.push_back("analyze prop=late_sender r=400 np=" +
                           std::to_string(48 + i));
    }
    PhaseResult sat =
        drive("saturation", opt.socket_path, slow_lines, clients, 8);
    sat.cache_hits = server.cache_stats().hits;
    sat.simulations = server.counters().simulations;
    print_row(sat);
    results.push_back(sat);
    server.stop();
  }

  write_json(out_path, results, clients, per_client);
  const bool sane = results[0].ok == results[0].requests &&
                    results[1].ok == results[1].requests &&
                    results[1].simulations == 0 &&
                    results[2].shed + results[2].ok == results[2].requests;
  if (!sane) {
    std::printf("TAB-SL sanity FAILED\n");
    return 1;
  }
  return 0;
}
