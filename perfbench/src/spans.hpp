// In-memory spans around the benchmark's calls into the ATS layers, and
// the per-layer stage table computed from them.
//
// Each worker thread records into its own SpanLog (no locks on the hot
// path); a Scope opened while the thread has no log costs one branch, so
// untraced runs execute the same op code.  Span names are "<layer>.<call>"
// with the layer named after its src/ module ("gen.simulate",
// "analyzer.analyze", ...); "op" is the root span of one measured op and
// "setup" the root of one set-up repetition.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Op id carried by set-up spans.
inline constexpr std::uint64_t kSetupOp = ~std::uint64_t{0};

struct Span {
  const char* name = "";  ///< string literal
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;  ///< index of the parent span, -1 for a root
  std::uint64_t op = 0;      ///< shared by every span of one op
};

/// One thread's spans, in opening order.
class SpanLog {
 public:
  /// Tags the spans opened from now on with `op`.
  void set_op(std::uint64_t op) { op_ = op; }
  /// Pre-sizes the log so recording does not reallocate inside an op.
  void reserve(std::size_t n) { spans_.reserve(n); }
  std::size_t open(const char* name);
  void close(std::size_t index);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::int64_t open_ = -1;
  std::uint64_t op_ = 0;
};

/// The calling thread's log; null while tracing is off.
SpanLog*& thread_log();

/// RAII span on the calling thread's log (no-op without one).
class Scope {
 public:
  explicit Scope(const char* name) : log_(thread_log()) {
    if (log_) index_ = log_->open(name);
  }
  ~Scope() {
    if (log_) log_->close(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog* log_;
  std::size_t index_ = 0;
};

/// Concatenates per-thread logs, rebasing parent indices.
std::vector<Span> merge_logs(const std::vector<const SpanLog*>& logs);

/// Length of the union of `intervals` clipped to [start, end).
std::int64_t covered_ns(std::int64_t start, std::int64_t end,
                        std::vector<std::pair<std::int64_t, std::int64_t>>
                            intervals);

/// Self time of every span: its duration minus the part of it covered by
/// its direct children (overlapping children count once).
std::vector<std::int64_t> self_times(const std::vector<Span>& spans);

/// Durations in milliseconds of the spans called `name`, taken from the
/// set-up spans when `setup` is set and from the op spans otherwise.
std::vector<double> durations_ms(const std::vector<Span>& spans,
                                 const std::string& name, bool setup = false);

struct StageRow {
  std::string name;  ///< span name, or "<layer>.*" for a layer total
  std::uint64_t calls = 0;
  double self_ms = 0.0;
  double share = 0.0;  ///< self time / summed root time
};

/// Per-layer breakdown of one phase (the measured ops, or set-up).
struct StageTable {
  std::vector<StageRow> spans;   ///< one row per span name, by self time
  std::vector<StageRow> layers;  ///< one row per layer prefix
  std::uint64_t roots = 0;       ///< ops (or set-up repetitions)
  double root_ms = 0.0;          ///< summed root wall time
  /// Share of root wall time covered by child spans, over all roots.
  double coverage = 0.0;
  double min_root_coverage = 0.0;
  /// Share of roots whose own coverage is at least 95%.
  double roots_covered_95 = 0.0;

  double self_ms(const std::string& name) const;
  double layer_share(const std::string& layer) const;
};

/// Stage table of the spans whose op id is (`setup` ? kSetupOp : any op).
StageTable stage_table(const std::vector<Span>& spans,
                       const std::vector<std::int64_t>& self, bool setup);

std::string render_stage_table(const StageTable& t, const std::string& title);
std::string stage_table_json(const StageTable& t);

/// Writes the spans as CSV: name,start_ns,end_ns,parent,op.
void write_spans_csv(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench
