// service: ats_serve's clients -- an in-process service::Server with
// in-memory state (no journal fsyncs on a shared disk), kServerWorkers
// workers, and kClients closed-loop clients on its Unix socket.
//
// The whole workload runs on one CPU.  A request hops threads four times
// (client, connection, worker, connection, client); spread over idle
// cores of a virtual machine each hop waits for a core to wake, which
// costs more than the daemon's own work and varies with the host's load.
// On one core the hops are plain context switches, so the run measures
// the daemon's CPU cost per request.
//
// Set-up starts the daemon and warms a seed-chosen hot set of analyze
// requests (each simulates once, then answers once more from the cache to
// fix its reference response).  The measured mix, fixed by the seed: every
// kColdEvery-th request is a distinct cold analyze that simulates, the
// rest are hot-set hits.  An op passes when its response is ok with
// outcome ok, a hit is byte-identical to its reference, and a cold
// request simulated and detected its property.
#include <sched.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <thread>

#include "bench.hpp"
#include "gen/registry.hpp"
#include "service/client.hpp"
#include "service/server.hpp"

namespace perfbench {
namespace {

constexpr int kClients = 2;
constexpr int kServerWorkers = 2;
constexpr std::uint64_t kColdEvery = 10;
constexpr int kHotNps[] = {4, 8, 16};
constexpr std::size_t kHotNpsPerConfig = 2;
constexpr int kColdNps[] = {8, 16};
/// Cold requests vary extrawork, which changes the plan fingerprint (so
/// the request simulates) but not the program's event count.
constexpr const char* kColdProps[] = {"late_sender", "late_receiver",
                                      "late_sender_wrong_order"};
constexpr const char* kDeadline = " deadline_ms=10000";

struct Hot {
  std::string line;
  bool positive = false;
  std::string reference;  ///< first cached answer
};

std::string analyze_line(const std::string& prop, int np,
                         const ats::gen::ParamMap& pm) {
  std::string line = "analyze prop=" + prop + " np=" + std::to_string(np);
  for (const std::string& k : pm.keys()) line += " " + k + "=" + pm.get_raw(k, "");
  return line + kDeadline;
}

/// One key per property configuration (positive and negative), at a
/// seed-chosen kHotNpsPerConfig of the kHotNps process counts, so every
/// seed warms the same number of keys of every property.
std::vector<Hot> hot_set(std::uint64_t seed) {
  const auto& reg = ats::gen::Registry::instance();
  SeedStream rng(ats::SplitSeed(seed).child("hot").value());
  std::vector<Hot> out;
  for (const std::string& name : reg.names()) {
    const ats::gen::PropertyDef& def = reg.find(name);
    for (const bool positive : {true, false}) {
      if (positive && !def.expected) continue;
      std::vector<int> nps(std::begin(kHotNps), std::end(kHotNps));
      shuffle(nps, rng);
      nps.resize(kHotNpsPerConfig);
      for (const int np : nps) {
        Hot h;
        h.line = analyze_line(name, std::max(np, def.min_procs),
                              positive ? def.positive : def.negative);
        h.positive = positive;
        out.push_back(std::move(h));
      }
    }
  }
  shuffle(out, rng);
  return out;
}

/// The registry's verdict on a simulated (uncached) analyze response.
bool fresh_ok(const ats::service::Response& resp, bool positive) {
  if (resp.status != ats::service::Status::kOk || resp.get("outcome") != "ok" ||
      resp.get("cached") != "0") {
    return false;
  }
  return positive ? resp.get("detected") == "1"
                  : resp.get("detected") == "0" && resp.get("dominant") == "-";
}

/// Restricts the calling thread, and every thread it starts from now on,
/// to the highest-numbered CPU it may run on.  Returns that CPU, or -1
/// when the affinity cannot be read or set.
int pin_to_one_cpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) != 0) return -1;
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpu = c;
  }
  if (cpu < 0) return -1;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return ::sched_setaffinity(0, sizeof set, &set) == 0 ? cpu : -1;
}

ats::service::ServerOptions server_options(const std::string& socket) {
  ats::service::ServerOptions o;
  o.socket_path = socket;
  o.workers = kServerWorkers;
  return o;
}

/// Warms `hot` from kClients clients: one simulating pass, then one
/// cached pass whose answers become the references.
bool warm(const std::string& socket, std::vector<Hot>& hot) {
  std::vector<char> ok(hot.size(), 0);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      try {
        ats::service::Client client(socket);
        for (std::size_t i = c; i < hot.size(); i += kClients) {
          const bool fresh = fresh_ok(client.call(hot[i].line), hot[i].positive);
          const ats::service::Response again = client.call(hot[i].line);
          hot[i].reference = again.first_line;
          ok[i] = fresh && again.status == ats::service::Status::kOk &&
                  again.get("cached") == "1";
        }
      } catch (const std::exception& e) {
        std::fprintf(stderr, "service warm-up: %s\n", e.what());
      }
    });
  }
  for (auto& t : threads) t.join();
  return std::all_of(ok.begin(), ok.end(), [](char v) { return v != 0; });
}

}  // namespace

RunResult run_service_workload(const Options& opt) {
  using namespace ats;
  RunResult r;
  r.info["cpu"] = std::to_string(pin_to_one_cpu());
  ::mkdir(opt.out_dir.c_str(), 0755);
  const std::string sock_stem =
      opt.out_dir + "/svc-" + std::to_string(::getpid()) + "-";

  // Events one cold request simulates, per (property, np); checked to be
  // independent of the varied extrawork value.
  std::map<std::string, std::uint64_t> cold_events;
  for (const char* prop : kColdProps) {
    const gen::PropertyDef& def = gen::Registry::instance().find(prop);
    for (const int np : kColdNps) {
      gen::RunConfig cfg;
      cfg.nprocs = np;
      gen::ParamMap pm = def.positive;
      const auto a = gen::run_single_property(def, pm, cfg).event_count();
      pm.set("extrawork", "0.041");
      if (gen::run_single_property(def, pm, cfg).event_count() != a) {
        throw std::runtime_error("service: cold event count depends on extrawork");
      }
      cold_events[std::string(prop) + "/" + std::to_string(np)] = a;
    }
  }

  // Set-up: start a fresh daemon and warm its hot set, kSetupReps times;
  // the last daemon serves the measured phase.
  SpanLog setup_log;
  std::unique_ptr<service::Server> server;
  std::vector<Hot> hot;
  const double setup_s = timed_setup(
      kSetupReps,
      [&](int rep) {
        hot = hot_set(opt.seed);
        server = std::make_unique<service::Server>(
            server_options(sock_stem + std::to_string(rep) + ".sock"));
        {
          Scope s("service.start");
          server->start();
        }
        Scope s("service.warm");
        if (!warm(server->options().socket_path, hot)) r.checks_ok = false;
      },
      opt.trace ? &setup_log : nullptr, [&] { server.reset(); });
  service::Server& srv = *server;
  if (!r.checks_ok) {
    std::fprintf(stderr, "service: warm-up answers failed their checks\n");
  }

  const service::ServerCounters c0 = srv.counters();
  const service::ResultCache::Stats s0 = srv.cache_stats();
  std::vector<std::unique_ptr<service::Client>> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.push_back(std::make_unique<service::Client>(srv.options().socket_path));
  }
  const std::uint64_t salt = SeedStream(opt.seed).next();
  // Latency by request kind, kept in traced runs only.
  std::vector<std::vector<double>> hot_ms(kClients), cold_ms(kClients);

  const OpFn op = [&](int w, std::uint64_t seq) {
    SeedStream pick(salt ^ (seq * 0x9e3779b97f4a7c15ULL));
    const bool cold = seq % kColdEvery == kColdEvery - 1;
    std::string line;
    std::string key;
    std::size_t hi = 0;
    if (cold) {
      const char* prop = kColdProps[pick.below(std::size(kColdProps))];
      const int np = kColdNps[pick.below(std::size(kColdNps))];
      char extra[32];
      std::snprintf(extra, sizeof extra, "%.9f",
                    0.04 + 1e-9 * static_cast<double>((salt % 1000000) + seq));
      line = std::string("analyze prop=") + prop + " np=" + std::to_string(np) +
             " basework=0.01 extrawork=" + extra + kDeadline;
      key = std::string(prop) + "/" + std::to_string(np);
    } else {
      hi = static_cast<std::size_t>(pick.below(hot.size()));
    }
    service::Response resp;
    const std::int64_t a = now_ns();
    {
      Scope s("service.call");
      resp = clients[static_cast<std::size_t>(w)]->call(cold ? line : hot[hi].line);
    }
    const double ms = static_cast<double>(now_ns() - a) / 1e6;
    Scope s("bench.check");
    if (opt.trace) {
      (cold ? cold_ms : hot_ms)[static_cast<std::size_t>(w)].push_back(ms);
    }
    if (cold) return OpOutcome{fresh_ok(resp, true), cold_events.at(key)};
    return OpOutcome{resp.first_line == hot[hi].reference, 0};
  };

  if (!opt.trace) {
    LoopStats loop = closed_loop(kClients, opt.seconds, op, nullptr);
    r.attempted = loop.attempted;
    r.failed = loop.failed;
    end_to_end(r, setup_s, loop);
  } else {
    const LoopStats plain = closed_loop(kClients, opt.seconds / 2, op, nullptr);
    std::vector<SpanLog> logs(kClients);
    for (SpanLog& l : logs) l.reserve(1u << 22);
    const LoopStats traced = closed_loop(
        kClients, opt.seconds / 2, op, &logs, plain.attempted);
    r.attempted = plain.attempted + traced.attempted;
    r.failed = plain.failed + traced.failed;
    finish_trace(opt, r, logs, setup_log, plain, traced);

    const service::ServerCounters c1 = srv.counters();
    const service::ResultCache::Stats s1 = srv.cache_stats();
    std::vector<double> hot_all, cold_all;
    for (int c = 0; c < kClients; ++c) {
      hot_all.insert(hot_all.end(), hot_ms[c].begin(), hot_ms[c].end());
      cold_all.insert(cold_all.end(), cold_ms[c].begin(), cold_ms[c].end());
    }
    const double hits = double(s1.hits - s0.hits);
    const double lookups = hits + double(s1.misses - s0.misses) +
                           double(s1.waits - s0.waits);
    auto& m = r.metrics;
    m["service.hot_p50_ms"] = median(hot_all);
    m["service.cold_p50_ms"] = median(cold_all);
    m["service.hit_ratio"] = lookups > 0 ? hits / lookups : 0.0;
    m["service.simulations"] = double(c1.simulations - c0.simulations);
    m["service.coalesced_waits"] = double(s1.waits - s0.waits);
    m["service.shed"] = double(c1.shed - c0.shed);
    m["service.errors"] = double(c1.errors - c0.errors);
    m["service.deadline_expired"] =
        double(c1.deadline_expired - c0.deadline_expired);
  }
  clients.clear();
  srv.stop();
  r.info["hot_keys"] = std::to_string(hot.size());
  r.info["cold_every"] = std::to_string(kColdEvery);
  return r;
}

}  // namespace perfbench
