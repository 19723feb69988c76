// sweep: the tool tester's grid (paper §3.2 experiment management).
//
// Every registry property expected to complete, in its positive and its
// negative configuration, at np = 8, 16, 32 and 64 simulated ranks.  The
// grid is walked pass after pass, each pass in a seed-derived order, by
// kWorkers closed-loop workers.  One op is one grid cell: a one-cell plan
// through runner::SupervisedRunner::run_sweep plus its CSV row, checked
// against the registry (positive detected, negative quiet, outcome ok).
//
// Traced ops run the same cell through the public calls that run_sweep
// makes (gen::run_single_property, analyze::analyze) so simulation and
// analysis get their own spans.
#include <sstream>

#include "bench.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "gen/experiment.hpp"
#include "runner/supervisor.hpp"

namespace perfbench {
namespace {

constexpr int kWorkers = 4;
constexpr int kNps[] = {8, 16, 32, 64};

struct Cell {
  const ats::gen::PropertyDef* def = nullptr;
  bool positive = false;
  ats::gen::ExperimentPlan plan;  ///< one-cell plan: axis np = {np}
  int np = 0;
  std::uint64_t events = 0;  ///< trace events one run simulates
};

std::vector<Cell> make_grid() {
  const auto& reg = ats::gen::Registry::instance();
  std::vector<Cell> grid;
  for (const std::string& name : reg.names()) {
    const ats::gen::PropertyDef& def = reg.find(name);
    for (const bool positive : {true, false}) {
      if (positive && !def.expected) continue;
      for (const int np : kNps) {
        if (np < def.min_procs) continue;
        Cell c;
        c.def = &def;
        c.positive = positive;
        c.np = np;
        c.plan.property = name;
        c.plan.base = positive ? def.positive : def.negative;
        c.plan.axis = {"np", {std::to_string(np)}};
        c.plan.jobs = 1;
        grid.push_back(std::move(c));
      }
    }
  }
  return grid;
}

ats::runner::SupervisorOptions supervisor_options() {
  ats::runner::SupervisorOptions o;
  o.retry.max_attempts = 2;
  o.retry.perturb_seed = true;
  o.wall_clock_limit = std::chrono::milliseconds(20'000);
  return o;
}

/// The registry's verdict for a cell: positive runs detect the expected
/// property, negative runs report no finding at all.
bool verdict_ok(const Cell& c, const ats::gen::ExperimentRow& row) {
  if (row.outcome != ats::gen::RunOutcome::kOk) return false;
  if (c.positive) return row.detected;
  return !row.detected && row.dominant == "-";
}

/// The CSV a tool tester exports: header plus one row whose detected
/// column agrees with the row.
bool csv_ok(const std::string& csv, const ats::gen::ExperimentRow& row) {
  std::istringstream is(csv);
  std::string header, line, extra;
  if (!std::getline(is, header) || !std::getline(is, line) ||
      std::getline(is, extra)) {
    return false;
  }
  std::vector<std::string> f;
  std::string field;
  std::istringstream ls(line);
  while (std::getline(ls, field, ',')) f.push_back(field);
  return f.size() >= 6 && f[0] == row.value &&
         f[3] == (row.detected ? "1" : "0");
}

/// Cell of op `seq`: pass seq / n walks the grid in its own seed order.
class Order {
 public:
  Order(std::uint64_t seed, std::size_t n) : seed_(seed), n_(n) {}
  std::size_t cell(std::uint64_t seq) {
    const std::uint64_t pass = seq / n_;
    if (pass != pass_ || idx_.empty()) {
      idx_.resize(n_);
      for (std::size_t i = 0; i < n_; ++i) idx_[i] = i;
      SeedStream rng(ats::SplitSeed(seed_).child(pass).value());
      shuffle(idx_, rng);
      pass_ = pass;
    }
    return idx_[seq % n_];
  }

 private:
  std::uint64_t seed_;
  std::size_t n_;
  std::uint64_t pass_ = 0;
  std::vector<std::size_t> idx_;
};

/// Per-worker counts behind the per-layer metrics.
struct Counts {
  std::uint64_t cells = 0, attempts = 0, failed_cells = 0;
  std::uint64_t sim_events = 0, record_bytes = 0, cube_cells = 0;
};

/// The traced cell: SupervisedRunner::run_cell's budgets and retries
/// around gen::run_experiment_cell's simulate/analyze/classify steps,
/// each call in its own span.  Sets *events to the last simulated trace's
/// event count.
ats::gen::ExperimentRow traced_cell(const Cell& c,
                                    const ats::runner::SupervisorOptions& so,
                                    Counts& k, std::uint64_t* events) {
  using namespace ats;
  {
    Scope s("runner.plan_fingerprint");
    (void)runner::SupervisedRunner::plan_fingerprint(c.plan);
  }
  gen::RunConfig cfg = c.plan.config;
  cfg.nprocs = c.np;
  cfg.engine.virtual_time_limit = so.virtual_time_limit;
  cfg.engine.yield_limit = so.yield_limit;
  cfg.engine.wall_clock_limit = so.wall_clock_limit;
  gen::ExperimentRow row;
  for (int attempt = 1; attempt <= so.retry.max_attempts; ++attempt) {
    if (attempt > 1) {
      cfg.engine.seed = SplitSeed(c.plan.config.engine.seed)
                            .child("retry")
                            .child(static_cast<std::uint64_t>(attempt - 1))
                            .value();
    }
    ++k.attempts;
    row = gen::ExperimentRow{};
    row.value = c.plan.axis.values[0];
    row.dominant.assign(1, '-');
    row.attempts = attempt;
    try {
      trace::Trace tr;
      {
        Scope s("gen.simulate");
        tr = gen::run_single_property(*c.def, c.plan.base, cfg);
      }
      *events = tr.event_count();
      k.sim_events += *events;
      k.record_bytes += tr.memory_bytes();
      analyze::AnalysisResult result = [&] {
        Scope s("analyzer.analyze");
        return analyze::analyze(tr, c.plan.analyzer);
      }();
      Scope s("gen.classify");
      row.total_time = result.total_time;
      if (c.def->expected) {
        row.severity = result.cube.total(*c.def->expected);
        row.fraction = result.total_time > VDur::zero()
                           ? row.severity / result.total_time
                           : 0.0;
      }
      const auto dom = result.dominant();
      row.dominant = dom ? analyze::property_name(dom->prop) : "-";
      row.detected = c.def->expected && dom && dom->prop == *c.def->expected;
      result.cube.for_each(
          [&](analyze::PropertyId, analyze::NodeId, trace::LocId, VDur) {
            ++k.cube_cells;
          });
    } catch (const Error& e) {
      row.outcome = gen::RunOutcome::kMpiError;
      row.note = e.what();
    }
    if (row.outcome == gen::RunOutcome::kOk) break;
  }
  ++k.cells;
  if (row.outcome != gen::RunOutcome::kOk) ++k.failed_cells;
  return row;
}

}  // namespace

RunResult run_sweep_workload(const Options& opt) {
  using namespace ats;
  RunResult r;
  std::vector<Cell> grid;
  SpanLog setup_log;
  // Set-up: build the grid and count each cell's trace events (one
  // simulation per cell, across the pool) -- the unit events_per_s needs.
  const double setup_s = timed_setup(
      kSetupReps,
      [&](int) {
        std::vector<Cell> g;
        {
          Scope s("gen.make_grid");
          g = make_grid();
        }
        Scope s("par.count_events");
        par::ThreadPool pool(kWorkers);
        pool.parallel_for(g.size(), [&](std::size_t i) {
          gen::RunConfig cfg = g[i].plan.config;
          cfg.nprocs = g[i].np;
          g[i].events =
              gen::run_single_property(*g[i].def, g[i].plan.base, cfg)
                  .event_count();
        });
        grid = std::move(g);
      },
      opt.trace ? &setup_log : nullptr);

  const runner::SupervisorOptions so = supervisor_options();
  const runner::SupervisedRunner sup(so);
  std::vector<Order> orders(kWorkers, Order(opt.seed, grid.size()));
  std::vector<Counts> counts(kWorkers);

  const OpFn untraced_op = [&](int w, std::uint64_t seq) {
    const Cell& c = grid[orders[static_cast<std::size_t>(w)].cell(seq)];
    const std::vector<gen::ExperimentRow> rows = sup.run_sweep(c.plan);
    const std::string csv = gen::experiment_csv(c.plan, rows);
    const bool ok = rows.size() == 1 && verdict_ok(c, rows[0]) &&
                    rows[0].attempts == 1 && csv_ok(csv, rows[0]);
    return OpOutcome{ok, c.events};
  };
  const OpFn traced_op = [&](int w, std::uint64_t seq) {
    const Cell& c = grid[orders[static_cast<std::size_t>(w)].cell(seq)];
    std::uint64_t events = 0;
    const gen::ExperimentRow row =
        traced_cell(c, so, counts[static_cast<std::size_t>(w)], &events);
    std::string csv;
    {
      Scope s("gen.experiment_csv");
      csv = gen::experiment_csv(c.plan, {row});
    }
    Scope s("bench.check");
    // A cell simulates the same events every time it runs.
    const bool ok = verdict_ok(c, row) && row.attempts == 1 &&
                    events == c.events && csv_ok(csv, row);
    return OpOutcome{ok, c.events};
  };

  if (!opt.trace) {
    LoopStats loop =
        closed_loop(kWorkers, opt.seconds, untraced_op, nullptr);
    r.attempted = loop.attempted;
    r.failed = loop.failed;
    end_to_end(r, setup_s, loop);
  } else {
    const LoopStats plain =
        closed_loop(kWorkers, opt.seconds / 2, untraced_op, nullptr);
    std::vector<SpanLog> logs(kWorkers);
    for (SpanLog& l : logs) l.reserve(1u << 20);
    const LoopStats traced =
        closed_loop(kWorkers, opt.seconds / 2, traced_op, &logs,
                    plain.attempted);
    r.attempted = plain.attempted + traced.attempted;
    r.failed = plain.failed + traced.failed;
    const Traced t = finish_trace(opt, r, logs, setup_log, plain, traced);

    Counts k;
    for (const Counts& c : counts) {
      k.cells += c.cells;
      k.attempts += c.attempts;
      k.failed_cells += c.failed_cells;
      k.sim_events += c.sim_events;
      k.record_bytes += c.record_bytes;
      k.cube_cells += c.cube_cells;
    }
    const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    auto& m = r.metrics;
    m["gen.simulate_ms"] = median_span_ms(t, "gen.simulate");
    m["gen.simulate_share"] = ratio(t.ops.self_ms("gen.simulate"), t.ops.root_ms);
    m["par.pool_efficiency"] =
        ratio(t.ops.root_ms, kWorkers * traced.wall_s * 1e3);
    m["runner.attempts_per_cell"] = ratio(double(k.attempts), double(k.cells));
    m["runner.failed_cells"] = double(k.failed_cells);
    m["trace.record_bytes_per_event"] =
        ratio(double(k.record_bytes), double(k.sim_events));
    m["analyzer.analyze_ms"] = median_span_ms(t, "analyzer.analyze");
    m["analyzer.events_per_s"] =
        ratio(double(k.sim_events), t.ops.self_ms("analyzer.analyze") / 1e3);
    m["analyzer.share"] = t.ops.layer_share("analyzer");
    m["analyzer.cube_cells"] = ratio(double(k.cube_cells), double(k.cells));
  }
  r.info["grid_cells"] = std::to_string(grid.size());
  return r;
}

}  // namespace perfbench
