// Shared pieces of the perfbench workloads: options, the closed
// loop, set-up repetitions, and the metric tables every run prints.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "spans.hpp"
#include "stats.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";  ///< spans, stage tables, scratch files
  std::string commit = "unknown";
  std::string tree = "unknown";  ///< hash of the sources built
};

struct MetricDef {
  const char* name;
  const char* unit;
};

/// The six end-to-end metrics every untraced run prints, in order.
const std::vector<MetricDef>& end_to_end_defs();
/// The per-layer metrics every traced run prints, in order.  A layer that
/// a workload's ops never call reads 0 there.
const std::vector<MetricDef>& per_layer_defs();

struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// False when a run-level check failed (besides failed ops).
  bool checks_ok = true;
  std::map<std::string, double> metrics;
  /// Extra facts printed on the info line (already JSON values).
  std::map<std::string, std::string> info;
};

/// What one op reports back to the loop.
struct OpOutcome {
  bool ok = false;           ///< output check passed
  std::uint64_t events = 0;  ///< trace events simulated or analysed
};

using OpFn = std::function<OpOutcome(int worker, std::uint64_t seq)>;

struct LoopStats {
  int workers = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t events = 0;
  double wall_s = 0.0;
  std::vector<double> latency_ms;  ///< every attempted op
  double ops_per_s() const { return wall_s > 0 ? attempted / wall_s : 0.0; }
};

/// Runs `op` from `workers` closed-loop threads for `seconds`: a worker
/// sends its next op only when the previous one returned, and ops in
/// flight at the deadline finish and count.  `seq` numbers ops
/// first_seq, first_seq + 1, ... across workers.  An op that throws counts
/// as failed.  With `logs` (one per worker) every op is a root span "op"
/// tagged with its seq.
LoopStats closed_loop(int workers, double seconds, const OpFn& op,
                      std::vector<SpanLog>* logs, std::uint64_t first_seq = 0);

/// Runs `setup` `reps` times (rep = 0 ... reps-1) and returns the median
/// wall time in seconds.  With `log`, each repetition is a root span
/// "setup" on it.  `between`, when given, runs untimed before every
/// repetition but the first (to release the previous one's resources).
double timed_setup(int reps, const std::function<void(int rep)>& setup,
                   SpanLog* log, const std::function<void()>& between = {});

/// Set-up repetitions per run; their median is setup_s.
inline constexpr int kSetupReps = 9;

/// Fills the end-to-end metrics (and the tail's percentile and sample
/// count on the info line) from one loop; sorts loop.latency_ms.
void end_to_end(RunResult& r, double setup_s, LoopStats& loop);

/// Merges the worker and set-up logs, writes the spans and the stage
/// tables under opt.out_dir, prints the tables, and fills the span-derived
/// per-layer metrics shared by all workloads (coverage, overhead).
/// Fails the run's checks when spans cover < 95% of op wall time.
struct Traced {
  std::vector<Span> spans;
  std::vector<std::int64_t> self;
  StageTable ops;
  StageTable setup;
};
Traced finish_trace(const Options& opt, RunResult& r,
                    const std::vector<SpanLog>& workers, const SpanLog& setup,
                    const LoopStats& untraced, const LoopStats& traced);

/// Peak resident set of this process (VmHWM) in MiB.
double peak_rss_mb();

/// Median duration in ms of the op (or set-up) spans called `name`.
double median_span_ms(const Traced& t, const std::string& name,
                      bool setup = false);

/// Runs that each workload implements (sweep.cpp, large_trace.cpp,
/// service.cpp).
RunResult run_sweep_workload(const Options& opt);
RunResult run_large_trace_workload(const Options& opt);
RunResult run_service_workload(const Options& opt);

}  // namespace perfbench
