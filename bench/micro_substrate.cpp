// MICRO — google-benchmark microbenchmarks of the substrate: scheduler
// handoff cost, engine set-up and teardown, p2p message rate (eager and
// rendezvous), collective rate (all-to-all and rooted skeletons), trace
// recording and serialisation, distribution evaluation, analyzer replay
// rate, and one whole sweep cell with its page faults.  These quantify the
// simulator's own performance (events/second), which bounds how large a
// synthetic test program the suite can generate per second of host time.
#include <benchmark/benchmark.h>
#include <sys/resource.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "analyzer/analyzer.hpp"
#include "core/distribution.hpp"
#include "core/properties.hpp"
#include "gen/experiment.hpp"
#include "gen/registry.hpp"
#include "mpisim/world.hpp"
#include "report/timeline.hpp"
#include "runner/supervisor.hpp"
#include "simt/engine.hpp"

namespace {

using namespace ats;

// A lone location is always first, so every one of its yields keeps the
// token: this measures a yield that changes no order (a counted turn, the
// budget check and no switch), not a handoff.
void BM_SchedulerHandoff(benchmark::State& state) {
  const int yields_per_run = 1000;
  for (auto _ : state) {
    simt::Engine eng;
    eng.add_location("a", [&](simt::Context& c) {
      for (int i = 0; i < yields_per_run; ++i) c.yield();
    });
    eng.run();
  }
  state.SetItemsProcessed(state.iterations() * yields_per_run);
}
BENCHMARK(BM_SchedulerHandoff)->Unit(benchmark::kMillisecond);

// A real handoff: `locations` locations each advance 1 ns per step, so the
// yielder is never first and every yield passes the token round-robin
// (one sift-down and one fiber switch).
void BM_YieldHandoff(benchmark::State& state) {
  const auto locations = static_cast<int>(state.range(0));
  const int steps = 1000;
  for (auto _ : state) {
    simt::Engine eng;
    for (int i = 0; i < locations; ++i) {
      eng.add_location("loc", [&](simt::Context& c) {
        for (int k = 0; k < steps; ++k) c.advance(VDur::nanos(1));
      });
    }
    eng.run();
  }
  state.SetItemsProcessed(state.iterations() * locations * steps);
}
BENCHMARK(BM_YieldHandoff)->ArgName("locations")->Arg(2)->Arg(64)
    ->Unit(benchmark::kMillisecond);

// The fixed cost a sweep cell pays per engine: build it, give each of
// `locations` locations a fiber stack for one advance, tear it down.
// Back-to-back engines on one thread reuse the previous engine's stacks.
void BM_EngineLifecycle(benchmark::State& state) {
  const auto locations = static_cast<int>(state.range(0));
  for (auto _ : state) {
    simt::Engine eng;
    for (int i = 0; i < locations; ++i) {
      eng.add_location("loc", [i](simt::Context& c) {
        c.advance(VDur::micros(1 + i % 7));
      });
    }
    eng.run();
    benchmark::DoNotOptimize(eng.horizon());
  }
  state.SetItemsProcessed(state.iterations() * locations);
}
BENCHMARK(BM_EngineLifecycle)->Arg(16)->Arg(64)->Arg(256)
    ->Unit(benchmark::kMicrosecond);

/// `msgs` blocking send/recv pairs of `count` ints from rank 0 to rank 1.
void run_messages(int msgs, int count) {
  std::vector<int> buf(static_cast<std::size_t>(count));
  mpi::MpiRunOptions opt;
  opt.nprocs = 2;
  mpi::run_mpi(opt, [&](mpi::Proc& p) {
    if (p.world_rank() == 0) {
      for (int i = 0; i < msgs; ++i) {
        p.send(buf.data(), count, mpi::Datatype::kInt32, 1, 0, p.comm_world());
      }
    } else {
      for (int i = 0; i < msgs; ++i) {
        p.recv(buf.data(), count, mpi::Datatype::kInt32, 0, 0, p.comm_world());
      }
    }
  });
}

void BM_P2PMessageRate(benchmark::State& state) {
  // One-int messages: the eager protocol.
  const int msgs = static_cast<int>(state.range(0));
  for (auto _ : state) run_messages(msgs, 1);
  state.SetItemsProcessed(state.iterations() * msgs);
}
BENCHMARK(BM_P2PMessageRate)->Arg(500)->Unit(benchmark::kMillisecond);

void BM_P2PRendezvousRate(benchmark::State& state) {
  // Messages of `bytes` above the default 16 KiB eager threshold: every
  // send waits for its receive (the rendezvous protocol).
  const int msgs = static_cast<int>(state.range(0));
  const int count = static_cast<int>(state.range(1) / 4);
  for (auto _ : state) run_messages(msgs, count);
  state.SetItemsProcessed(state.iterations() * msgs);
}
BENCHMARK(BM_P2PRendezvousRate)
    ->ArgNames({"msgs", "bytes"})
    ->Args({500, 32 << 10})
    ->Unit(benchmark::kMillisecond);

void BM_CollectiveRate(benchmark::State& state) {
  // Barriers: the all-to-all skeleton.
  const int np = static_cast<int>(state.range(0));
  const int colls = 50;
  for (auto _ : state) {
    mpi::MpiRunOptions opt;
    opt.nprocs = np;
    mpi::run_mpi(opt, [&](mpi::Proc& p) {
      for (int i = 0; i < colls; ++i) p.barrier(p.comm_world());
    });
  }
  state.SetItemsProcessed(state.iterations() * colls * np);
}
BENCHMARK(BM_CollectiveRate)->Arg(4)->Arg(16)->Unit(benchmark::kMillisecond);

void BM_RootedCollectiveRate(benchmark::State& state) {
  // One bcast (root-source skeleton) and one reduce (root-sink skeleton)
  // per round, rooted at rank 0.
  const int np = static_cast<int>(state.range(0));
  const int rounds = 25;
  for (auto _ : state) {
    mpi::MpiRunOptions opt;
    opt.nprocs = np;
    mpi::run_mpi(opt, [&](mpi::Proc& p) {
      double v = 1.0, sum = 0.0;
      for (int i = 0; i < rounds; ++i) {
        p.bcast(&v, 1, mpi::Datatype::kDouble, 0, p.comm_world());
        p.reduce(&v, &sum, 1, mpi::Datatype::kDouble, mpi::ReduceOp::kSum, 0,
                 p.comm_world());
      }
    });
  }
  state.SetItemsProcessed(state.iterations() * rounds * 2 * np);
}
BENCHMARK(BM_RootedCollectiveRate)
    ->Arg(4)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond);

// The N×N data collectives at the sweep grid's largest shape: np ranks,
// `count` doubles per block, as in imbalance_at_mpi_alltoall and
// imbalance_at_mpi_reduce_scatter.  Items are collective calls.
constexpr int kNxNRounds = 4;

void BM_AlltoallRate(benchmark::State& state) {
  const int np = static_cast<int>(state.range(0));
  const int count = static_cast<int>(state.range(1));
  for (auto _ : state) {
    mpi::MpiRunOptions opt;
    opt.nprocs = np;
    mpi::run_mpi(opt, [&](mpi::Proc& p) {
      std::vector<double> s(static_cast<std::size_t>(count * np), 1.0);
      std::vector<double> r(s.size());
      for (int i = 0; i < kNxNRounds; ++i) {
        p.alltoall(s.data(), count, r.data(), count, mpi::Datatype::kDouble,
                   p.comm_world());
      }
    });
  }
  state.SetItemsProcessed(state.iterations() * kNxNRounds);
}
BENCHMARK(BM_AlltoallRate)
    ->ArgNames({"np", "count"})
    ->Args({64, 256})
    ->Unit(benchmark::kMillisecond);

void BM_ReduceScatterRate(benchmark::State& state) {
  const int np = static_cast<int>(state.range(0));
  const int count = static_cast<int>(state.range(1));
  for (auto _ : state) {
    mpi::MpiRunOptions opt;
    opt.nprocs = np;
    mpi::run_mpi(opt, [&](mpi::Proc& p) {
      std::vector<double> s(static_cast<std::size_t>(count * np), 1.0);
      std::vector<double> r(static_cast<std::size_t>(count));
      for (int i = 0; i < kNxNRounds; ++i) {
        p.reduce_scatter_block(s.data(), r.data(), count,
                               mpi::Datatype::kDouble, mpi::ReduceOp::kSum,
                               p.comm_world());
      }
    });
  }
  state.SetItemsProcessed(state.iterations() * kNxNRounds);
}
BENCHMARK(BM_ReduceScatterRate)
    ->ArgNames({"np", "count"})
    ->Args({64, 256})
    ->Unit(benchmark::kMillisecond);

void BM_DistributionEval(benchmark::State& state) {
  const core::Distribution d = core::Distribution::linear(0.01, 0.05);
  int me = 0;
  double acc = 0;
  for (auto _ : state) {
    acc += d(me, 64);
    me = (me + 1) % 64;
  }
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_DistributionEval);

/// late_sender then an imbalanced barrier, `reps` times each, at `np`
/// ranks.  Many ranks and one rep give the lockstep shape of the
/// large_trace benchmark: every rank steps through the same few
/// timestamps, so nearly every event ties with thousands of others.
trace::Trace make_trace(int np, int reps) {
  mpi::MpiRunOptions opt;
  opt.nprocs = np;
  opt.engine.max_locations = static_cast<std::size_t>(np) + 8;
  return mpi::run_mpi(opt,
                      [&](mpi::Proc& p) {
                        core::PropCtx ctx = core::PropCtx::from(p);
                        core::late_sender(ctx, 0.001, 0.002, reps,
                                          p.comm_world());
                        core::imbalance_at_mpi_barrier(
                            ctx, core::Distribution::linear(0.001, 0.004),
                            reps, p.comm_world());
                      })
      .trace;
}

/// (ranks, reps) cases of the merge benchmarks: 8 ranks with a growing
/// rep count, and the 8192-rank lockstep trace with one rep.
void merge_cases(benchmark::internal::Benchmark* b) {
  b->ArgNames({"ranks", "reps"});
  b->Args({8, 20})->Args({8, 200})->Args({8, 2000})->Args({8192, 1});
}

trace::Trace make_trace(const benchmark::State& state) {
  return make_trace(static_cast<int>(state.range(0)),
                    static_cast<int>(state.range(1)));
}

void BM_AnalyzerReplay(benchmark::State& state) {
  const trace::Trace tr = make_trace(state);
  for (auto _ : state) {
    const auto result = analyze::analyze(tr);
    benchmark::DoNotOptimize(result.total_time);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(tr.event_count()));
  state.counters["events"] = static_cast<double>(tr.event_count());
}
BENCHMARK(BM_AnalyzerReplay)
    ->ArgNames({"ranks", "reps"})
    ->Args({8, 20})
    ->Args({8192, 1})
    ->Unit(benchmark::kMillisecond);

void BM_TraceMerge(benchmark::State& state) {
  // The radix merge order over the per-location buffers (the routine that
  // also orders the replay's communication records); compare with
  // BM_TraceMergeStableSort below.
  const trace::Trace tr = make_trace(state);
  for (auto _ : state) {
    std::size_t n = 0;
    VTime last = VTime::zero();
    tr.for_each_merged([&](const trace::Event& e) {
      ++n;
      last = e.t;
    });
    benchmark::DoNotOptimize(n);
    benchmark::DoNotOptimize(last);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(tr.event_count()));
}
BENCHMARK(BM_TraceMerge)->Apply(merge_cases)->Unit(benchmark::kMillisecond);

void BM_TraceMergeStableSort(benchmark::State& state) {
  // The seed's merged(): collect every event pointer, stable_sort by
  // (t, loc).  Kept as the O(n log n) comparison-sort reference for the
  // radix merge order.
  const trace::Trace tr = make_trace(state);
  for (auto _ : state) {
    std::vector<const trace::Event*> out;
    out.reserve(tr.event_count());
    for (std::size_t l = 0; l < tr.location_count(); ++l) {
      for (const auto& e : tr.events_of(static_cast<trace::LocId>(l))) {
        out.push_back(&e);
      }
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const trace::Event* a, const trace::Event* b) {
                       if (a->t != b->t) return a->t < b->t;
                       return a->loc < b->loc;
                     });
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(tr.event_count()));
}
BENCHMARK(BM_TraceMergeStableSort)
    ->Apply(merge_cases)
    ->Unit(benchmark::kMillisecond);

void BM_SeverityCubeAdd(benchmark::State& state) {
  // The replay's hot severity-attribution path: one add() per event,
  // hitting a few dozen distinct (property, node) cells.
  const int adds = 4096;
  const int nodes = 48;
  const int nlocs = 16;
  for (auto _ : state) {
    analyze::SeverityCube cube(nlocs);
    for (int i = 0; i < adds; ++i) {
      cube.add(analyze::PropertyId::kLateSender,
               static_cast<analyze::NodeId>(i % nodes),
               static_cast<trace::LocId>(i % nlocs), VDur::nanos(i + 1));
    }
    benchmark::DoNotOptimize(
        cube.total(analyze::PropertyId::kLateSender));
  }
  state.SetItemsProcessed(state.iterations() * adds);
}
BENCHMARK(BM_SeverityCubeAdd);

void BM_ExperimentGrid(benchmark::State& state) {
  // A full sweep (grid of independent simulations) at a given worker
  // count; results are bit-identical across counts, only wall time moves.
  gen::ExperimentPlan plan;
  plan.property = "late_sender";
  plan.base.set("basework", "0.005");
  plan.base.set("r", "2");
  plan.axis = {"extrawork",
               {"0.005", "0.01", "0.015", "0.02", "0.025", "0.03", "0.035",
                "0.04"}};
  plan.config.nprocs = 4;
  plan.jobs = static_cast<int>(state.range(0));
  const runner::SupervisedRunner sweep(
      {.virtual_time_limit = VDur::zero(), .yield_limit = 0});
  for (auto _ : state) {
    const auto rows = sweep.run_sweep(plan);
    benchmark::DoNotOptimize(rows.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(plan.axis.values.size()));
}
BENCHMARK(BM_ExperimentGrid)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

/// Minor page faults of this process so far.
double minor_faults() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_minflt);
}

// One sweep cell, as the perfbench `sweep` workload runs it (a one-cell
// plan through the supervised runner: simulate, analyze, classify), back
// to back on one thread.  The collective cells at np 64 allocate megabytes
// of simulated-MPI buffers per cell; `faults_per_cell` counts the cell's
// minor page faults.
void BM_PropertyCell(benchmark::State& state, const char* property) {
  const gen::PropertyDef& def = gen::Registry::instance().find(property);
  gen::ExperimentPlan plan;
  plan.property = property;
  plan.base = def.positive;
  plan.axis = {"np", {std::to_string(state.range(0))}};
  plan.jobs = 1;
  const runner::SupervisedRunner sup;
  const double faults0 = minor_faults();
  for (auto _ : state) {
    const auto rows = sup.run_sweep(plan);
    benchmark::DoNotOptimize(rows.size());
  }
  state.counters["faults_per_cell"] = benchmark::Counter(
      minor_faults() - faults0, benchmark::Counter::kAvgIterations);
}
BENCHMARK_CAPTURE(BM_PropertyCell, imbalance_at_mpi_alltoall,
                  "imbalance_at_mpi_alltoall")
    ->ArgName("np")
    ->Arg(64)
    ->Unit(benchmark::kMillisecond);

void BM_TraceSerialise(benchmark::State& state) {
  const trace::Trace tr = make_trace(8, 20);
  for (auto _ : state) {
    std::ostringstream os;
    tr.save(os);
    benchmark::DoNotOptimize(os.str().size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(tr.event_count()));
}
BENCHMARK(BM_TraceSerialise)->Unit(benchmark::kMillisecond);

void BM_TraceParse(benchmark::State& state) {
  const trace::Trace tr = make_trace(8, 20);
  std::ostringstream os;
  tr.save(os);
  const std::string text = os.str();
  for (auto _ : state) {
    std::istringstream is(text);
    const trace::Trace loaded = trace::Trace::load(is);
    benchmark::DoNotOptimize(loaded.event_count());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(tr.event_count()));
}
BENCHMARK(BM_TraceParse)->Unit(benchmark::kMillisecond);

void BM_TimelineRender(benchmark::State& state) {
  const trace::Trace tr = make_trace(8, 20);
  for (auto _ : state) {
    benchmark::DoNotOptimize(report::render_timeline(tr).size());
  }
}
BENCHMARK(BM_TimelineRender)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
