#include "bench.hpp"

#include <sys/stat.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <mutex>
#include <thread>

namespace perfbench {

const std::vector<MetricDef>& end_to_end_defs() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},         {"ops_per_s", "1/s"},
      {"events_per_s", "1/s"},  {"op_p50_ms", "ms"},
      {"op_tail_ms", "ms"},     {"peak_rss_mb", "MiB"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_defs() {
  static const std::vector<MetricDef> defs = {
      {"gen.simulate_ms", "ms"},
      {"gen.simulate_share", "ratio"},
      {"par.pool_efficiency", "ratio"},
      {"runner.attempts_per_cell", "ratio"},
      {"runner.failed_cells", "count"},
      {"simt.yields_per_event", "ratio"},
      {"simt.blocks_per_event", "ratio"},
      {"simt.peak_live_locations", "count"},
      {"trace.record_bytes_per_event", "B/event"},
      {"trace.save_ms", "ms"},
      {"trace.file_bytes", "B"},
      {"trace.load_ms", "ms"},
      {"trace.merge_events_per_s", "1/s"},
      {"analyzer.analyze_ms", "ms"},
      {"analyzer.events_per_s", "1/s"},
      {"analyzer.share", "ratio"},
      {"analyzer.cube_cells", "count"},
      {"report.render_ms", "ms"},
      {"report.bytes", "B"},
      {"report.share", "ratio"},
      {"diff.ms", "ms"},
      {"diff.deltas", "count"},
      {"service.hot_p50_ms", "ms"},
      {"service.cold_p50_ms", "ms"},
      {"service.hit_ratio", "ratio"},
      {"service.simulations", "count"},
      {"service.coalesced_waits", "count"},
      {"service.shed", "count"},
      {"service.errors", "count"},
      {"service.deadline_expired", "count"},
      {"bench.span_coverage", "ratio"},
      {"bench.tracing_overhead", "ratio"},
  };
  return defs;
}

LoopStats closed_loop(int workers, double seconds, const OpFn& op,
                      std::vector<SpanLog>* logs, std::uint64_t first_seq) {
  LoopStats out;
  out.workers = workers;
  std::atomic<std::uint64_t> next{first_seq};
  std::mutex mu;  // guards out's counters and latencies at worker exit
  const std::int64_t t0 = now_ns();
  const std::int64_t deadline =
      t0 + static_cast<std::int64_t>(seconds * 1e9);
  const auto worker = [&](int w) {
    if (logs) thread_log() = &(*logs)[static_cast<std::size_t>(w)];
    std::vector<double> lat;
    lat.reserve(1u << 16);
    std::uint64_t failed = 0, events = 0;
    while (now_ns() < deadline) {
      const std::uint64_t seq = next.fetch_add(1, std::memory_order_relaxed);
      if (logs) (*logs)[static_cast<std::size_t>(w)].set_op(seq);
      const std::int64_t a = now_ns();
      OpOutcome o;
      {
        Scope root("op");
        try {
          o = op(w, seq);
        } catch (const std::exception& e) {
          std::fprintf(stderr, "op %llu failed: %s\n",
                       static_cast<unsigned long long>(seq), e.what());
          o = OpOutcome{};
        }
      }
      lat.push_back(static_cast<double>(now_ns() - a) / 1e6);
      if (!o.ok) ++failed;
      events += o.events;
    }
    thread_log() = nullptr;
    std::lock_guard<std::mutex> lk(mu);
    out.attempted += lat.size();
    out.failed += failed;
    out.events += events;
    out.latency_ms.insert(out.latency_ms.end(), lat.begin(), lat.end());
    // Release now: the process's peak RSS is a reported metric.
    std::vector<double>().swap(lat);
  };
  std::vector<std::thread> threads;
  for (int w = 0; w < workers; ++w) threads.emplace_back(worker, w);
  for (auto& t : threads) t.join();
  out.wall_s = static_cast<double>(now_ns() - t0) / 1e9;
  return out;
}

double timed_setup(int reps, const std::function<void(int rep)>& setup,
                   SpanLog* log, const std::function<void()>& between) {
  std::vector<double> secs;
  for (int rep = 0; rep < reps; ++rep) {
    if (rep > 0 && between) between();
    thread_log() = log;
    if (log) log->set_op(kSetupOp);
    const std::int64_t a = now_ns();
    {
      Scope root("setup");
      setup(rep);
    }
    secs.push_back(static_cast<double>(now_ns() - a) / 1e9);
    thread_log() = nullptr;
  }
  return median(secs);
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

void end_to_end(RunResult& r, double setup_s, LoopStats& loop) {
  std::vector<double>& lat = loop.latency_ms;
  const Tail t = tail(lat);
  r.metrics["setup_s"] = setup_s;
  r.metrics["ops_per_s"] = loop.ops_per_s();
  r.metrics["events_per_s"] =
      loop.wall_s > 0 ? static_cast<double>(loop.events) / loop.wall_s : 0.0;
  r.metrics["op_p50_ms"] = median(lat);
  r.metrics["op_tail_ms"] = t.value;
  r.metrics["peak_rss_mb"] = peak_rss_mb();
  r.info["op_tail_percentile"] = std::to_string(t.percentile);
  r.info["op_tail_beyond"] = std::to_string(t.beyond);
  r.info["op_samples"] = std::to_string(t.samples);
  r.info["workers"] = std::to_string(loop.workers);
  r.info["wall_s"] = std::to_string(loop.wall_s);
}

double median_span_ms(const Traced& t, const std::string& name,
                      bool setup) {
  std::vector<double> d = durations_ms(t.spans, name, setup);
  return median(d);
}

Traced finish_trace(const Options& opt, RunResult& r,
                    const std::vector<SpanLog>& workers, const SpanLog& setup,
                    const LoopStats& untraced, const LoopStats& traced) {
  std::vector<const SpanLog*> logs{&setup};
  for (const SpanLog& l : workers) logs.push_back(&l);
  Traced t;
  t.spans = merge_logs(logs);
  t.self = self_times(t.spans);
  t.ops = stage_table(t.spans, t.self, false);
  t.setup = stage_table(t.spans, t.self, true);

  const double overhead =
      traced.ops_per_s() > 0 ? untraced.ops_per_s() / traced.ops_per_s() - 1.0
                             : 0.0;
  r.metrics["bench.span_coverage"] = t.ops.coverage;
  r.metrics["bench.tracing_overhead"] = overhead;
  if (t.ops.coverage < 0.95) {
    std::fprintf(stderr, "spans cover %.2f%% of op wall time (< 95%%)\n",
                 100.0 * t.ops.coverage);
    r.checks_ok = false;
  }

  const std::string stem = opt.out_dir + "/" + opt.workload;
  ::mkdir(opt.out_dir.c_str(), 0755);
  write_spans_csv(stem + ".spans.csv", t.spans);
  const std::string ops_txt =
      render_stage_table(t.ops, opt.workload + " ops (traced phase)");
  const std::string setup_txt =
      render_stage_table(t.setup, opt.workload + " set-up");
  {
    std::ofstream os(stem + ".stages.json");
    os.precision(10);
    os << "{\"workload\":\"" << opt.workload << "\",\"seed\":" << opt.seed
       << ",\"untraced_ops_per_s\":" << untraced.ops_per_s()
       << ",\"traced_ops_per_s\":" << traced.ops_per_s()
       << ",\"tracing_overhead\":" << overhead
       << ",\"ops\":" << stage_table_json(t.ops)
       << ",\"setup\":" << stage_table_json(t.setup) << "}\n";
  }
  std::printf("%s%s", ops_txt.c_str(), setup_txt.c_str());
  std::printf("tracing overhead: %.2f%% (untraced %.1f ops/s, traced %.1f "
              "ops/s); spans and tables in %s.*\n",
              100.0 * overhead, untraced.ops_per_s(), traced.ops_per_s(),
              stem.c_str());
  return t;
}

}  // namespace perfbench
