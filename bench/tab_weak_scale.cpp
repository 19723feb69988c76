// TAB-WS: weak-scaling sweep of the simulation engine (ISSUE 6).
//
// Runs the same registry property (late_sender, canonical positive
// parameters) at N = 64 ... 100000 ranks (every rank a fiber) and records,
// per point:
//   * generation throughput (trace events per wall-clock second),
//   * a peak-RSS proxy (VmHWM delta of a forked child, so points do not
//     pollute each other) and the derived bytes/location,
//   * trace residency: spilled bytes and the binary trace file size,
//   * zero-copy replay throughput (mmap the binary file, walk the k-way
//     merge cursor).
//
// Every N runs in its own forked child with the trace spilling to disk past
// a 64 MiB watermark, exactly how a weak-scale user would run it; the
// parent only aggregates the per-point JSON lines into BENCH_scale.json.
//
// The "naive_stack_bytes" figure in the output is the cost of one fully
// committed 256 KiB fiber stack — the per-location floor the engine would
// pay without pooled, lazily committed stacks (see simt/stack_pool.hpp).
//
// Usage: tab_weak_scale [--max-n <ranks>] [--out <path>]
//   --max-n bounds the sweep (CI smoke uses 4096); --out defaults to
//   BENCH_scale.json in the working directory.

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "gen/registry.hpp"
#include "mpisim/world.hpp"
#include "trace/trace_binary.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Peak resident set of this process in bytes (VmHWM from /proc/self/status);
/// 0 where unavailable.  Forking a fresh child per point makes the delta
/// between "before run" and "after run" attributable to that run alone.
std::size_t peak_rss_bytes() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return static_cast<std::size_t>(
                 std::strtoull(line.c_str() + 6, nullptr, 10)) *
             1024;
    }
  }
  return 0;
}

struct Point {
  int n = 0;
  std::uint64_t events = 0;
  double gen_seconds = 0;
  std::size_t rss_bytes = 0;       // VmHWM delta across the run
  std::size_t spilled_bytes = 0;   // trace payload streamed to the spill file
  std::size_t file_bytes = 0;      // binary trace container size
  std::uint64_t peak_live = 0;     // peak simultaneously-live locations
  double replay_seconds = 0;
  std::uint64_t replay_events = 0;
};

std::string to_json(const Point& p) {
  const auto rate = [](double ev, double s) { return s > 0 ? ev / s : 0.0; };
  std::ostringstream os;
  os << "{\"n\":" << p.n << ",\"events\":" << p.events
     << ",\"events_per_sec\":" << rate(double(p.events), p.gen_seconds)
     << ",\"rss_bytes\":" << p.rss_bytes << ",\"bytes_per_loc\":"
     << (p.n > 0 ? p.rss_bytes / static_cast<std::size_t>(p.n) : 0)
     << ",\"spilled_bytes\":" << p.spilled_bytes
     << ",\"trace_file_bytes\":" << p.file_bytes
     << ",\"peak_live_locations\":" << p.peak_live
     << ",\"replay_events_per_sec\":"
     << rate(double(p.replay_events), p.replay_seconds) << "}";
  return os.str();
}

/// One weak-scale point, run inside the forked child.
Point run_point(int n) {
  using namespace ats;
  Point pt;
  pt.n = n;

  const gen::PropertyDef& def =
      gen::Registry::instance().find("late_sender");

  const std::string spill_path =
      "tab_weak_scale." + std::to_string(n) + ".spill";
  const std::string trace_path =
      "tab_weak_scale." + std::to_string(n) + ".atsbin";

  mpi::MpiRunOptions opt;
  opt.nprocs = n;
  opt.engine.max_locations = static_cast<std::size_t>(n) + 8;
  // The default supervision budgets (src/runner): the acceptance gate is
  // that 100k ranks finish inside them.
  opt.engine.virtual_time_limit = VDur::seconds(3600.0);
  opt.engine.yield_limit = 10'000'000;
  opt.trace_spill_path = spill_path;
  opt.trace_spill_watermark = 64u << 20;

  const gen::ParamMap& pm = def.positive;
  const std::size_t rss0 = peak_rss_bytes();
  const auto t0 = Clock::now();
  mpi::MpiRunResult run = mpi::run_mpi(opt, [&](mpi::Proc& p) {
    core::PropCtx ctx = core::PropCtx::from(p);
    def.invoke(ctx, pm);
  });
  pt.gen_seconds = seconds_since(t0);
  pt.events = run.trace.event_count();
  pt.spilled_bytes = run.trace.spilled_bytes();
  pt.peak_live = run.stats.peak_live_locations;

  {
    std::ofstream os(trace_path, std::ios::binary);
    run.trace.save_binary(os);
  }
  {
    std::ifstream sz(trace_path, std::ios::binary | std::ios::ate);
    pt.file_bytes = static_cast<std::size_t>(sz.tellg());
  }
  pt.rss_bytes = peak_rss_bytes() - rss0;

  // Zero-copy replay: mmap the container and walk the global merge order,
  // the same access pattern the analyzer's replay loop performs.
  const auto t1 = Clock::now();
  trace::Trace loaded = trace::load_trace_binary_file(trace_path).trace;
  std::uint64_t replayed = 0;
  loaded.for_each_merged([&](const trace::Event&) { ++replayed; });
  pt.replay_seconds = seconds_since(t1);
  pt.replay_events = replayed;
  std::remove(trace_path.c_str());
  return pt;
}

}  // namespace

int main(int argc, char** argv) {
  int max_n = 100000;
  std::string out_path = "BENCH_scale.json";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--max-n" && i + 1 < argc) {
      max_n = std::atoi(argv[++i]);
    } else if (a == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: tab_weak_scale [--max-n <ranks>] [--out <path>]\n");
      return 2;
    }
  }

  std::vector<int> ns;
  for (int n : {64, 1024, 4096, 16384, 100000}) {
    if (n <= max_n) ns.push_back(n);
  }

  std::printf("TAB-WS weak-scaling sweep: late_sender, fibers\n");
  std::printf("%8s %12s %14s %12s %14s %14s\n", "ranks", "events",
              "events/sec", "bytes/loc", "spilled", "replay ev/s");

  std::vector<std::string> lines;
  for (int n : ns) {
    int fds[2];
    if (pipe(fds) != 0) {
      std::perror("pipe");
      return 1;
    }
    const pid_t pid = fork();
    if (pid < 0) {
      std::perror("fork");
      return 1;
    }
    if (pid == 0) {
      close(fds[0]);
      int code = 0;
      try {
        const std::string json = to_json(run_point(n));
        const char* p = json.c_str();
        std::size_t left = json.size();
        while (left > 0) {
          const ssize_t w = write(fds[1], p, left);
          if (w <= 0) {
            code = 1;
            break;
          }
          p += w;
          left -= static_cast<std::size_t>(w);
        }
      } catch (const std::exception& e) {
        std::fprintf(stderr, "N=%d failed: %s\n", n, e.what());
        code = 1;
      }
      close(fds[1]);
      _exit(code);
    }
    close(fds[1]);
    std::string json;
    char buf[4096];
    ssize_t r;
    while ((r = read(fds[0], buf, sizeof buf)) > 0) {
      json.append(buf, static_cast<std::size_t>(r));
    }
    close(fds[0]);
    int status = 0;
    waitpid(pid, &status, 0);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || json.empty()) {
      std::fprintf(stderr, "weak-scale point N=%d failed\n", n);
      return 1;
    }
    lines.push_back(json);

    // Progress row for the console (re-parse the few fields we print).
    const auto field = [&](const char* key) -> double {
      const auto pos = json.find(key);
      return pos == std::string::npos
                 ? 0.0
                 : std::atof(json.c_str() + pos + std::strlen(key));
    };
    std::printf("%8d %12.0f %14.0f %12.0f %14.0f %14.0f\n", n,
                field("\"events\":"), field("\"events_per_sec\":"),
                field("\"bytes_per_loc\":"), field("\"spilled_bytes\":"),
                field("\"replay_events_per_sec\":"));
    std::fflush(stdout);
  }

  std::ofstream os(out_path);
  os << "{\n  \"bench\": \"weak_scale\",\n  \"property\": \"late_sender\",\n"
     << "  \"backend\": \"fiber\",\n  \"naive_stack_bytes\": 262144,\n"
     << "  \"points\": [\n";
  for (std::size_t i = 0; i < lines.size(); ++i) {
    os << "    " << lines[i] << (i + 1 < lines.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  std::printf("\nwrote %s (%zu points)\n", out_path.c_str(), lines.size());
  return 0;
}
