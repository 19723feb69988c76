// large_trace: the analysts' use -- one big trace through the
// EXPERT-style analyzer.
//
// Set-up simulates late_sender (canonical positive parameters) at
// kRanks simulated ranks through mpi::run_mpi, as TAB-WS does, saves the
// trace with save_binary, and keeps the baseline severity CSV and
// diff::Snapshot of its analysis.  One op -- always the same work -- is
// load_trace_binary_file -> analyze -> severity_csv + render_analysis ->
// Snapshot::from_result + diff_snapshots against the baseline; it passes
// when the CSV is byte-identical to the baseline and the diff is empty.
// No simulation happens inside an op.
//
// kWorkers analysts run ops side by side, one per core: a single thread
// inherits the speed of whichever core it lands on, and on a shared host
// that swung ops/s by 15% between runs, against 7% with four.
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <optional>

#include "bench.hpp"
#include "core/propctx.hpp"
#include "diff/diff.hpp"
#include "gen/registry.hpp"
#include "mpisim/world.hpp"
#include "report/cube_view.hpp"
#include "trace/trace_binary.hpp"

namespace perfbench {
namespace {

constexpr int kRanks = 8192;
constexpr int kWorkers = 4;
constexpr int kMergeWalks = 5;

struct Baseline {
  std::string path;
  std::string csv;
  ats::diff::Snapshot snapshot;
  std::uint64_t events = 0;
  std::uint64_t record_bytes = 0;
  std::uint64_t file_bytes = 0;
  ats::simt::EngineStats stats;
};

Baseline make_baseline(const std::string& path) {
  using namespace ats;
  Baseline b;
  b.path = path;
  const gen::PropertyDef& def = gen::Registry::instance().find("late_sender");
  mpi::MpiRunOptions opt;
  opt.nprocs = kRanks;
  opt.engine.max_locations = static_cast<std::size_t>(kRanks) + 8;
  std::optional<mpi::MpiRunResult> run;
  {
    Scope s("mpisim.run_mpi");
    run = mpi::run_mpi(opt, [&](mpi::Proc& p) {
      core::PropCtx ctx = core::PropCtx::from(p);
      def.invoke(ctx, def.positive);
    });
  }
  b.events = run->trace.event_count();
  b.record_bytes = run->trace.memory_bytes();
  b.stats = run->stats;
  {
    Scope s("trace.save_binary");
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    run->trace.save_binary(os);
    os.flush();
    if (!os) throw std::runtime_error("cannot write " + path);
    b.file_bytes = static_cast<std::uint64_t>(os.tellp());
  }
  {
    Scope s("trace.free");
    run.reset();
  }
  std::optional<trace::LoadResult> lr;
  {
    Scope s("trace.load");
    lr = trace::load_trace_binary_file(path);
  }
  if (!lr->ok() || lr->trace.event_count() != b.events) {
    throw std::runtime_error("large_trace: saved trace does not reload");
  }
  std::optional<analyze::AnalysisResult> res;
  {
    Scope s("analyzer.analyze");
    res = analyze::analyze(lr->trace);
  }
  {
    Scope s("report.severity_csv");
    b.csv = report::severity_csv(*res, lr->trace);
  }
  {
    Scope s("diff.snapshot");
    b.snapshot = diff::Snapshot::from_result(*res, lr->trace);
  }
  Scope s("bench.free");
  res.reset();
  lr.reset();
  return b;
}

/// Per-worker facts behind the per-layer metrics (identical for every op).
struct OpFacts {
  std::uint64_t report_bytes = 0;
  std::uint64_t cube_cells = 0;
  std::uint64_t deltas = 0;
};

}  // namespace

RunResult run_large_trace_workload(const Options& opt) {
  using namespace ats;
  RunResult r;
  ::mkdir(opt.out_dir.c_str(), 0755);
  const std::string path = opt.out_dir + "/large_trace." +
                           std::to_string(::getpid()) + ".atsbin";
  SpanLog setup_log;
  Baseline base;
  const double setup_s = timed_setup(
      kSetupReps, [&](int) { base = make_baseline(path); },
      opt.trace ? &setup_log : nullptr);

  std::vector<OpFacts> facts(kWorkers);
  const OpFn op = [&](int w, std::uint64_t) {
    std::optional<trace::LoadResult> lr;
    {
      Scope s("trace.load");
      lr = trace::load_trace_binary_file(base.path);
    }
    std::optional<analyze::AnalysisResult> res;
    {
      Scope s("analyzer.analyze");
      res = analyze::analyze(lr->trace);
    }
    std::string csv, text;
    {
      Scope s("report.severity_csv");
      csv = report::severity_csv(*res, lr->trace);
    }
    {
      Scope s("report.render_analysis");
      text = report::render_analysis(*res, lr->trace);
    }
    std::optional<diff::Snapshot> snap;
    std::optional<diff::DiffResult> d;
    {
      Scope s("diff.snapshot");
      snap = diff::Snapshot::from_result(*res, lr->trace);
    }
    {
      Scope s("diff.diff_snapshots");
      d = diff::diff_snapshots(base.snapshot, *snap);
    }
    Scope s("bench.check");
    const std::uint64_t events = lr->trace.event_count();
    const bool ok = lr->ok() && events == base.events && csv == base.csv &&
                    d->empty() && !text.empty();
    OpFacts& f = facts[static_cast<std::size_t>(w)];
    f.report_bytes = csv.size() + text.size();
    f.cube_cells = snap->cells.size();
    f.deltas += d->cells.size();
    // Freeing the op's outputs is part of its cost; keep it inside a span.
    snap.reset();
    d.reset();
    res.reset();
    lr.reset();
    return OpOutcome{ok, events};
  };

  if (!opt.trace) {
    LoopStats loop = closed_loop(kWorkers, opt.seconds, op, nullptr);
    r.attempted = loop.attempted;
    r.failed = loop.failed;
    end_to_end(r, setup_s, loop);
  } else {
    const LoopStats plain = closed_loop(kWorkers, opt.seconds / 2, op, nullptr);
    std::vector<SpanLog> logs(kWorkers);
    for (SpanLog& l : logs) l.reserve(1u << 16);
    const LoopStats traced = closed_loop(
        kWorkers, opt.seconds / 2, op, &logs, plain.attempted);
    r.attempted = plain.attempted + traced.attempted;
    r.failed = plain.failed + traced.failed;
    const Traced t = finish_trace(opt, r, logs, setup_log, plain, traced);

    // The bare k-way merge walk over the mapped trace.
    std::vector<double> walk_s;
    {
      const trace::LoadResult lr = trace::load_trace_binary_file(base.path);
      for (int i = 0; i < kMergeWalks; ++i) {
        std::uint64_t n = 0;
        const std::int64_t a = now_ns();
        lr.trace.for_each_merged([&](const trace::Event&) { ++n; });
        walk_s.push_back(static_cast<double>(now_ns() - a) / 1e9);
        if (n != base.events) r.checks_ok = false;
      }
    }

    const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    const double events = static_cast<double>(base.events);
    const double ops = static_cast<double>(t.ops.roots);
    auto& m = r.metrics;
    m["simt.yields_per_event"] = ratio(double(base.stats.yields), events);
    m["simt.blocks_per_event"] = ratio(double(base.stats.blocks), events);
    m["simt.peak_live_locations"] = double(base.stats.peak_live_locations);
    m["trace.record_bytes_per_event"] = ratio(double(base.record_bytes), events);
    m["trace.save_ms"] = median_span_ms(t, "trace.save_binary", true);
    m["trace.file_bytes"] = double(base.file_bytes);
    m["trace.load_ms"] = median_span_ms(t, "trace.load");
    m["trace.merge_events_per_s"] = ratio(events, median(walk_s));
    m["analyzer.analyze_ms"] = median_span_ms(t, "analyzer.analyze");
    m["analyzer.events_per_s"] =
        ratio(events * ops, t.ops.self_ms("analyzer.analyze") / 1e3);
    m["analyzer.share"] = t.ops.layer_share("analyzer");
    std::uint64_t deltas = 0;
    for (const OpFacts& f : facts) deltas += f.deltas;
    m["analyzer.cube_cells"] = double(facts[0].cube_cells);
    m["report.render_ms"] = median_span_ms(t, "report.severity_csv") +
                            median_span_ms(t, "report.render_analysis");
    m["report.bytes"] = double(facts[0].report_bytes);
    m["report.share"] = t.ops.layer_share("report");
    m["diff.ms"] = median_span_ms(t, "diff.snapshot") +
                   median_span_ms(t, "diff.diff_snapshots");
    m["diff.deltas"] = double(deltas);
  }
  std::remove(path.c_str());
  r.info["ranks"] = std::to_string(kRanks);
  r.info["events_per_op"] = std::to_string(base.events);
  return r;
}

}  // namespace perfbench
