// Shared helpers for ATS tests: zero-overhead cost models so virtual-time
// assertions are exact, and one-call runners for property functions and
// experiment plans.
#pragma once

#include <vector>

#include "analyzer/analyzer.hpp"
#include "core/composite.hpp"
#include "core/properties.hpp"
#include "mpisim/world.hpp"
#include "ompsim/omp.hpp"
#include "runner/supervisor.hpp"
#include "trace/trace.hpp"

namespace ats::testutil {

inline mpi::CostModel clean_mpi_cost() {
  mpi::CostModel cm;
  cm.p2p_latency = VDur::zero();
  cm.bandwidth_bytes_per_sec = 1e15;
  cm.send_overhead = VDur::zero();
  cm.recv_overhead = VDur::zero();
  cm.coll_stage = VDur::zero();
  cm.init_cost = VDur::zero();
  cm.finalize_cost = VDur::zero();
  return cm;
}

inline omp::OmpCostModel clean_omp_cost() {
  omp::OmpCostModel cm;
  cm.fork_cost = VDur::zero();
  cm.barrier_cost = VDur::zero();
  cm.sched_chunk_cost = VDur::zero();
  cm.lock_cost = VDur::zero();
  return cm;
}

/// Runs an MPI body with clean costs and returns the trace.
inline trace::Trace run_mpi_traced(int nprocs,
                                   const std::function<void(mpi::Proc&)>& body) {
  mpi::MpiRunOptions opt;
  opt.nprocs = nprocs;
  opt.cost = clean_mpi_cost();
  return mpi::run_mpi(opt, body).trace;
}

/// Runs an MPI property-function body (PropCtx-based) with clean costs.
inline trace::Trace run_prop(
    int nprocs, const std::function<void(core::PropCtx&)>& body) {
  return run_mpi_traced(nprocs, [&](mpi::Proc& p) {
    core::PropCtx ctx = core::PropCtx::from(p);
    body(ctx);
  });
}

/// Runs an MPI+OpenMP (hybrid) property body with clean costs.
inline trace::Trace run_prop_hybrid(
    int nprocs, const std::function<void(core::PropCtx&)>& body) {
  mpi::MpiRunOptions opt;
  opt.nprocs = nprocs;
  opt.cost = clean_mpi_cost();
  return mpi::run_mpi(opt,
                      [&](mpi::Proc& p) {
                        omp::Runtime rt(p.world().trace(), clean_omp_cost());
                        core::PropCtx ctx = core::PropCtx::from(p, &rt);
                        body(ctx);
                      })
      .trace;
}

/// Runs a pure-OpenMP property body with clean costs.
inline trace::Trace run_prop_omp(
    const std::function<void(core::PropCtx&)>& body) {
  omp::OmpRunOptions opt;
  opt.cost = clean_omp_cost();
  return omp::run_omp(opt,
                      [&](simt::Context& ctx, omp::Runtime& rt) {
                        core::PropCtx pc = core::PropCtx::from(ctx, rt);
                        body(pc);
                      })
      .trace;
}

/// The plain sweep: SupervisedRunner::run_sweep with every budget zero.
inline std::vector<gen::ExperimentRow> plain_sweep(
    const gen::ExperimentPlan& plan) {
  return runner::SupervisedRunner(
             {.virtual_time_limit = VDur::zero(), .yield_limit = 0})
      .run_sweep(plan);
}

/// The rows of `plan` from one gen::run_experiment_cell per axis value, in
/// order: the unsupervised cell path with no sweep loop around it.
inline std::vector<gen::ExperimentRow> cell_rows(
    const gen::ExperimentPlan& plan) {
  const gen::PropertyDef& def = gen::Registry::instance().find(plan.property);
  std::vector<gen::ExperimentRow> rows;
  for (const std::string& v : plan.axis.values) {
    rows.push_back(gen::run_experiment_cell(plan, def, v));
  }
  return rows;
}

/// Every event of `t` in the analyzer's merge order (Trace::for_each_merged).
inline std::vector<const trace::Event*> merged(const trace::Trace& t) {
  std::vector<const trace::Event*> out;
  out.reserve(t.event_count());
  t.for_each_merged([&](const trace::Event& e) { out.push_back(&e); });
  return out;
}

/// Analyzer severity (subtree) of `p` as a fraction of total time.
inline double severity_frac(const analyze::AnalysisResult& r,
                            analyze::PropertyId p) {
  return r.severity_fraction(p);
}

}  // namespace ats::testutil
