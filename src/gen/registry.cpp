#include "gen/registry.hpp"

#include <algorithm>

#include "common/strutil.hpp"

namespace ats::gen {

const char* to_string(Paradigm p) {
  switch (p) {
    case Paradigm::kMpi: return "mpi";
    case Paradigm::kOmp: return "omp";
    case Paradigm::kHybrid: return "hybrid";
    case Paradigm::kSeq: return "sequential";
  }
  return "?";
}

const char* to_string(RunOutcome o) {
  switch (o) {
    case RunOutcome::kOk: return "ok";
    case RunOutcome::kDeadlock: return "deadlock";
    case RunOutcome::kHang: return "hang";
    case RunOutcome::kMpiError: return "mpi_error";
    case RunOutcome::kAnalysisError: return "analysis_error";
  }
  return "?";
}

int exit_code(RunOutcome o) {
  switch (o) {
    case RunOutcome::kOk: return kExitOk;
    case RunOutcome::kDeadlock: return kExitDeadlock;
    case RunOutcome::kHang: return kExitHang;
    case RunOutcome::kMpiError: return kExitMpiError;
    case RunOutcome::kAnalysisError: return kExitAnalysisError;
  }
  return kExitFailure;
}

std::span<const ExitCodeEntry> exit_code_table() {
  static constexpr ExitCodeEntry kTable[] = {
      {kExitOk, "ok", "clean run / clean analysis"},
      {kExitFailure, "failure", "generic failure (unreadable input, I/O)"},
      {kExitUsage, "usage", "bad command line or API misuse"},
      {kExitDeadlock, "deadlock", "simulation deadlocked (all ranks blocked)"},
      {kExitHang, "hang", "a supervision budget was exhausted"},
      {kExitMpiError, "mpi_error", "simulated-runtime violation or injected crash"},
      {kExitAnalysisError, "analysis_error", "trace produced but the analyzer failed"},
      {kExitDefectsFound, "defects_found",
       "structural collective defects reported (docs/DEFECTS.md)"},
      {kExitShed, "shed", "analysis service shed the request; retry later"},
      {kExitDiffRegression, "diff_regression",
       "cross-run diff found above-threshold deltas (docs/DIFF.md)"},
  };
  return kTable;
}

std::string exit_code_help() {
  std::string out = "exit codes:\n";
  for (const ExitCodeEntry& e : exit_code_table()) {
    out += "  " + std::to_string(e.code) + "  " + pad_right(e.name, 16) +
           e.meaning + "\n";
  }
  return out;
}

namespace {

using analyze::PropertyId;
using core::PropCtx;

ParamMap pm(std::initializer_list<std::pair<const char*, const char*>> kv) {
  ParamMap m;
  for (const auto& [k, v] : kv) m.set(k, v);
  return m;
}

std::vector<ParamSpec> work_params() {
  return {
      {"basework", ParamKind::kDouble, "0.01",
       "seconds of computation every rank performs per iteration"},
      {"extrawork", ParamKind::kDouble, "0.05",
       "additional seconds injected to create the wait state"},
      {"r", ParamKind::kInt, "3", "repetition count"},
  };
}

std::vector<ParamSpec> root_params() {
  auto p = work_params();
  p.push_back({"root", ParamKind::kInt, "0", "root rank of the collective"});
  return p;
}

std::vector<ParamSpec> distr_params() {
  return {
      {"df", ParamKind::kDistr, "linear:low=0.01,high=0.06",
       "work distribution over the ranks/threads"},
      {"r", ParamKind::kInt, "3", "repetition count"},
  };
}

std::vector<ParamSpec> omp_extra(std::vector<ParamSpec> p) {
  p.push_back({"nthreads", ParamKind::kInt, "4", "OpenMP team size"});
  return p;
}

}  // namespace

Registry::Registry() {
  const char* kDfPositive = "linear:low=0.01,high=0.06";
  const char* kDfNegative = "same:val=0.02";

  auto add = [&](PropertyDef def) { defs_.push_back(std::move(def)); };

  // ------------------------------------------------- MPI point-to-point
  add({.name = "late_sender",
       .paradigm = Paradigm::kMpi,
       .brief = "receives block because matching sends start late",
       .params = work_params(),
       .expected = PropertyId::kLateSender,
       .positive = pm({{"basework", "0.01"}, {"extrawork", "0.05"}}),
       .negative = pm({{"basework", "0.02"}, {"extrawork", "0"}}),
       .min_procs = 2,
       .invoke =
           [](PropCtx& c, const ParamMap& m) {
             core::late_sender(c, m.get_double("basework", 0.01),
                               m.get_double("extrawork", 0.05),
                               m.get_int("r", 3), c.mpi_proc().comm_world());
           }});
  add({.name = "late_receiver",
       .paradigm = Paradigm::kMpi,
       .brief = "rendezvous sends block because receivers post late",
       .params = work_params(),
       .expected = PropertyId::kLateReceiver,
       .positive = pm({{"basework", "0.01"}, {"extrawork", "0.05"}}),
       .negative = pm({{"basework", "0.02"}, {"extrawork", "0"}}),
       .min_procs = 2,
       .invoke =
           [](PropCtx& c, const ParamMap& m) {
             core::late_receiver(c, m.get_double("basework", 0.01),
                                 m.get_double("extrawork", 0.05),
                                 m.get_int("r", 3),
                                 c.mpi_proc().comm_world());
           }});
  add({.name = "late_sender_wrong_order",
       .paradigm = Paradigm::kMpi,
       .brief = "late sender with messages arriving out of order",
       .params = work_params(),
       .expected = PropertyId::kLateSenderWrongOrder,
       .positive = pm({{"basework", "0.01"}, {"extrawork", "0.05"}}),
       .negative = pm({{"basework", "0.02"}, {"extrawork", "0"}}),
       .min_procs = 2,
       .invoke =
           [](PropCtx& c, const ParamMap& m) {
             core::late_sender_wrong_order(
                 c, m.get_double("basework", 0.01),
                 m.get_double("extrawork", 0.05), m.get_int("r", 3),
                 c.mpi_proc().comm_world());
           }});

  // ---------------------------------------------------- MPI collectives
  auto add_nxn = [&](const char* name, PropertyId expected, auto fn) {
    add({.name = name,
         .paradigm = Paradigm::kMpi,
         .brief = "imbalanced work before an N-to-N collective",
         .params = distr_params(),
         .expected = expected,
         .positive = pm({{"df", kDfPositive}}),
         .negative = pm({{"df", kDfNegative}}),
         .min_procs = 2,
         .invoke = [fn](PropCtx& c, const ParamMap& m) {
           fn(c, m.get_distr("df", "linear:low=0.01,high=0.06"),
              m.get_int("r", 3), c.mpi_proc().comm_world());
         }});
  };
  add_nxn("imbalance_at_mpi_barrier", PropertyId::kWaitAtBarrier,
          [](PropCtx& c, const core::Distribution& d, int r, mpi::Comm& cm) {
            core::imbalance_at_mpi_barrier(c, d, r, cm);
          });
  add_nxn("imbalance_at_mpi_alltoall", PropertyId::kWaitAtNxN,
          [](PropCtx& c, const core::Distribution& d, int r, mpi::Comm& cm) {
            core::imbalance_at_mpi_alltoall(c, d, r, cm);
          });
  add_nxn("imbalance_at_mpi_allreduce", PropertyId::kWaitAtNxN,
          [](PropCtx& c, const core::Distribution& d, int r, mpi::Comm& cm) {
            core::imbalance_at_mpi_allreduce(c, d, r, cm);
          });
  add_nxn("imbalance_at_mpi_allgather", PropertyId::kWaitAtNxN,
          [](PropCtx& c, const core::Distribution& d, int r, mpi::Comm& cm) {
            core::imbalance_at_mpi_allgather(c, d, r, cm);
          });
  add_nxn("imbalance_at_mpi_scan", PropertyId::kWaitAtNxN,
          [](PropCtx& c, const core::Distribution& d, int r, mpi::Comm& cm) {
            core::imbalance_at_mpi_scan(c, d, r, cm);
          });
  add_nxn("imbalance_at_mpi_reduce_scatter", PropertyId::kWaitAtNxN,
          [](PropCtx& c, const core::Distribution& d, int r, mpi::Comm& cm) {
            core::imbalance_at_mpi_reduce_scatter(c, d, r, cm);
          });

  auto add_rooted = [&](const char* name, PropertyId expected,
                        const char* brief, auto fn) {
    add({.name = name,
         .paradigm = Paradigm::kMpi,
         .brief = brief,
         .params = root_params(),
         .expected = expected,
         .positive = pm({{"basework", "0.01"}, {"extrawork", "0.05"}}),
         .negative = pm({{"basework", "0.02"}, {"extrawork", "0"}}),
         .min_procs = 2,
         .invoke = [fn](PropCtx& c, const ParamMap& m) {
           fn(c, m.get_double("basework", 0.01),
              m.get_double("extrawork", 0.05), m.get_int("root", 0),
              m.get_int("r", 3), c.mpi_proc().comm_world());
         }});
  };
  add_rooted("late_broadcast", PropertyId::kLateBroadcast,
             "non-roots wait in MPI_Bcast for a late root",
             [](PropCtx& c, double b, double e, int root, int r,
                mpi::Comm& cm) { core::late_broadcast(c, b, e, root, r, cm); });
  add_rooted("late_scatter", PropertyId::kLateScatter,
             "non-roots wait in MPI_Scatter for a late root",
             [](PropCtx& c, double b, double e, int root, int r,
                mpi::Comm& cm) { core::late_scatter(c, b, e, root, r, cm); });
  add_rooted("late_scatterv", PropertyId::kLateScatter,
             "non-roots wait in MPI_Scatterv for a late root",
             [](PropCtx& c, double b, double e, int root, int r,
                mpi::Comm& cm) { core::late_scatterv(c, b, e, root, r, cm); });
  add_rooted("early_reduce", PropertyId::kEarlyReduce,
             "the root waits in MPI_Reduce for late contributors",
             [](PropCtx& c, double b, double e, int root, int r,
                mpi::Comm& cm) { core::early_reduce(c, b, e, root, r, cm); });
  add_rooted("early_gather", PropertyId::kEarlyGather,
             "the root waits in MPI_Gather for late contributors",
             [](PropCtx& c, double b, double e, int root, int r,
                mpi::Comm& cm) { core::early_gather(c, b, e, root, r, cm); });
  add_rooted("early_gatherv", PropertyId::kEarlyGather,
             "the root waits in MPI_Gatherv for late contributors",
             [](PropCtx& c, double b, double e, int root, int r,
                mpi::Comm& cm) { core::early_gatherv(c, b, e, root, r, cm); });

  // ------------------------------------------------------------- OpenMP
  auto add_omp_distr = [&](const char* name, PropertyId expected, auto fn) {
    add({.name = name,
         .paradigm = Paradigm::kOmp,
         .brief = "imbalanced work inside an OpenMP construct",
         .params = omp_extra(distr_params()),
         .expected = expected,
         .positive = pm({{"df", kDfPositive}}),
         .negative = pm({{"df", kDfNegative}}),
         .min_procs = 1,
         .uses_openmp = true,
         .invoke = [fn](PropCtx& c, const ParamMap& m) {
           fn(c, m.get_distr("df", "linear:low=0.01,high=0.06"),
              m.get_int("r", 3), m.get_int("nthreads", 4));
         }});
  };
  add_omp_distr("imbalance_in_omp_pregion",
                PropertyId::kImbalanceInParallelRegion,
                [](PropCtx& c, const core::Distribution& d, int r, int n) {
                  core::imbalance_in_omp_pregion(c, d, r, n);
                });
  add_omp_distr("imbalance_at_omp_barrier", PropertyId::kWaitAtOmpBarrier,
                [](PropCtx& c, const core::Distribution& d, int r, int n) {
                  core::imbalance_at_omp_barrier(c, d, r, n);
                });
  add_omp_distr("imbalance_in_omp_loop", PropertyId::kImbalanceInOmpLoop,
                [](PropCtx& c, const core::Distribution& d, int r, int n) {
                  core::imbalance_in_omp_loop(c, d, r, n);
                });
  add_omp_distr("imbalance_in_omp_sections",
                PropertyId::kImbalanceInOmpSections,
                [](PropCtx& c, const core::Distribution& d, int r, int n) {
                  core::imbalance_in_omp_sections(c, d, r, n);
                });

  add({.name = "omp_lock_contention",
       .paradigm = Paradigm::kOmp,
       .brief = "threads contend for one critical section",
       .params = omp_extra({{"holdwork", ParamKind::kDouble, "0.02",
                             "seconds the critical section is held"},
                            {"r", ParamKind::kInt, "3", "repetitions"}}),
       .expected = PropertyId::kOmpLockContention,
       .positive = pm({{"holdwork", "0.02"}}),
       .negative = pm({{"holdwork", "0.02"}, {"nthreads", "1"}}),
       .min_procs = 1,
       .uses_openmp = true,
       .invoke =
           [](PropCtx& c, const ParamMap& m) {
             core::omp_lock_contention(c, m.get_double("holdwork", 0.02),
                                       m.get_int("r", 3),
                                       m.get_int("nthreads", 4));
           }});
  add({.name = "serialization_in_omp_single",
       .paradigm = Paradigm::kOmp,
       .brief = "one thread works in a single construct, the team waits",
       .params = omp_extra({{"singlework", ParamKind::kDouble, "0.03",
                             "seconds of work inside the single construct"},
                            {"r", ParamKind::kInt, "3", "repetitions"}}),
       .expected = PropertyId::kImbalanceInOmpSingle,
       .positive = pm({{"singlework", "0.03"}}),
       .negative = pm({{"singlework", "0.03"}, {"nthreads", "1"}}),
       .min_procs = 1,
       .uses_openmp = true,
       .invoke =
           [](PropCtx& c, const ParamMap& m) {
             core::serialization_in_omp_single(
                 c, m.get_double("singlework", 0.03), m.get_int("r", 3),
                 m.get_int("nthreads", 4));
           }});

  add({.name = "omp_idle_threads",
       .paradigm = Paradigm::kOmp,
       .brief = "serial master phases leave the worker CPUs idle",
       .params = omp_extra({{"serialwork", ParamKind::kDouble, "0.04",
                             "seconds of serial (master-only) work"},
                            {"parallelwork", ParamKind::kDouble, "0.01",
                             "seconds of parallel work per thread"},
                            {"r", ParamKind::kInt, "3", "repetitions"}}),
       .expected = PropertyId::kOmpIdleThreads,
       .positive = pm({{"serialwork", "0.04"}, {"parallelwork", "0.01"}}),
       .negative = pm({{"serialwork", "0.04"},
                       {"parallelwork", "0.01"},
                       {"nthreads", "1"}}),
       .min_procs = 1,
       .uses_openmp = true,
       .invoke =
           [](PropCtx& c, const ParamMap& m) {
             core::omp_idle_threads(c, m.get_double("serialwork", 0.04),
                                    m.get_double("parallelwork", 0.01),
                                    m.get_int("r", 3),
                                    m.get_int("nthreads", 4));
           }});

  // ------------------------------------------------------------- hybrid
  add({.name = "hybrid_mpi_in_omp_master",
       .paradigm = Paradigm::kHybrid,
       .brief = "MPI exchange in the OpenMP master while the team waits",
       .params = omp_extra({{"basework", ParamKind::kDouble, "0.01",
                             "per-thread compute seconds"},
                            {"masterextra", ParamKind::kDouble, "0.04",
                             "seconds of master-only MPI-phase work"},
                            {"r", ParamKind::kInt, "3", "repetitions"}}),
       .expected = PropertyId::kWaitAtOmpBarrier,
       .positive = pm({{"basework", "0.01"}, {"masterextra", "0.04"}}),
       .negative = pm({{"basework", "0.02"}, {"masterextra", "0"}}),
       .min_procs = 2,
       .uses_openmp = true,
       .invoke =
           [](PropCtx& c, const ParamMap& m) {
             core::hybrid_mpi_in_omp_master(
                 c, m.get_double("basework", 0.01),
                 m.get_double("masterextra", 0.04), m.get_int("r", 3),
                 c.mpi_proc().comm_world(), m.get_int("nthreads", 4));
           }});
  add({.name = "hybrid_late_sender_in_pregion",
       .paradigm = Paradigm::kHybrid,
       .brief = "late sender whose delay stems from an OpenMP phase",
       .params = omp_extra(work_params()),
       .expected = PropertyId::kLateSender,
       .positive = pm({{"basework", "0.01"}, {"extrawork", "0.05"}}),
       .negative = pm({{"basework", "0.02"}, {"extrawork", "0"}}),
       .min_procs = 2,
       .uses_openmp = true,
       .invoke =
           [](PropCtx& c, const ParamMap& m) {
             core::hybrid_late_sender_in_pregion(
                 c, m.get_double("basework", 0.01),
                 m.get_double("extrawork", 0.05), m.get_int("r", 3),
                 c.mpi_proc().comm_world(), m.get_int("nthreads", 4));
           }});

  // --------------------------------------------------------- sequential
  auto add_seq = [&](const char* name, const char* brief, auto fn) {
    add({.name = name,
         .paradigm = Paradigm::kSeq,
         .brief = brief,
         .params = {{"work", ParamKind::kDouble, "0.02",
                     "seconds per repetition"},
                    {"r", ParamKind::kInt, "3", "repetitions"}},
         .expected = std::nullopt,  // no wait state; a counter-based
                                    // sequential pattern would be needed
         .positive = pm({{"work", "0.02"}}),
         .negative = pm({{"work", "0.02"}}),
         .min_procs = 1,
         .invoke = [fn](PropCtx& c, const ParamMap& m) {
           fn(c, m.get_double("work", 0.02), m.get_int("r", 3));
         }});
  };
  add_seq("sequential_memory_bound",
          "memory-latency-bound compute phase (busy mode: pointer chase)",
          [](PropCtx& c, double w, int r) {
            core::sequential_memory_bound(c, w, r);
          });
  add_seq("sequential_compute_bound",
          "compute-bound phase (busy mode: register FP chain)",
          [](PropCtx& c, double w, int r) {
            core::sequential_compute_bound(c, w, r);
          });

  // -------------------------------------------- negative (well-tuned)
  add({.name = "balanced_mpi_stencil",
       .paradigm = Paradigm::kMpi,
       .brief = "well-tuned nearest-neighbour exchange (no property)",
       .params = {{"work", ParamKind::kDouble, "0.02",
                   "balanced per-rank compute seconds"},
                  {"r", ParamKind::kInt, "3", "repetitions"}},
       .expected = std::nullopt,
       .positive = pm({{"work", "0.02"}}),
       .negative = pm({{"work", "0.02"}}),
       .min_procs = 2,
       .invoke =
           [](PropCtx& c, const ParamMap& m) {
             core::balanced_mpi_stencil(c, m.get_double("work", 0.02),
                                        m.get_int("r", 3),
                                        c.mpi_proc().comm_world());
           }});
  add({.name = "balanced_collectives",
       .paradigm = Paradigm::kMpi,
       .brief = "well-tuned barrier + allreduce phases (no property)",
       .params = {{"work", ParamKind::kDouble, "0.02",
                   "balanced per-rank compute seconds"},
                  {"r", ParamKind::kInt, "3", "repetitions"}},
       .expected = std::nullopt,
       .positive = pm({{"work", "0.02"}}),
       .negative = pm({{"work", "0.02"}}),
       .min_procs = 2,
       .invoke =
           [](PropCtx& c, const ParamMap& m) {
             core::balanced_collectives(c, m.get_double("work", 0.02),
                                        m.get_int("r", 3),
                                        c.mpi_proc().comm_world());
           }});
  add({.name = "balanced_omp_loop",
       .paradigm = Paradigm::kOmp,
       .brief = "well-tuned OpenMP loop (no property)",
       .params = omp_extra({{"work", ParamKind::kDouble, "0.02",
                             "balanced per-thread compute seconds"},
                            {"r", ParamKind::kInt, "3", "repetitions"}}),
       .expected = std::nullopt,
       .positive = pm({{"work", "0.02"}}),
       .negative = pm({{"work", "0.02"}}),
       .min_procs = 1,
       .uses_openmp = true,
       .invoke =
           [](PropCtx& c, const ParamMap& m) {
             core::balanced_omp_loop(c, m.get_double("work", 0.02),
                                     m.get_int("r", 3),
                                     m.get_int("nthreads", 4));
           }});

  // ------------------------------------- pathological (fault scenarios)
  // Programs that exhibit a known *failure* instead of a known property:
  // the paper's negative-test idea extended to fault classes a tool (and
  // this suite's own runner) must survive and classify.  expected_outcome
  // declares the failure; Registry::names() excludes these, so only
  // supervised callers (src/runner, bench/tab_detection_matrix) reach
  // them.
  add({.name = "pathological_deadlock",
       .paradigm = Paradigm::kMpi,
       .brief = "every rank receives from its neighbour; nobody sends",
       .params = {{"tag", ParamKind::kInt, "0",
                   "message tag of the never-matched receive"}},
       .expected = std::nullopt,
       .positive = pm({}),
       .negative = pm({}),
       .min_procs = 2,
       .expected_outcome = RunOutcome::kDeadlock,
       .invoke =
           [](PropCtx& c, const ParamMap& m) {
             mpi::Proc& p = c.mpi_proc();
             mpi::Comm& cm = p.comm_world();
             int buf = 0;
             const int peer = (p.rank(cm) + 1) % cm.size();
             p.recv(&buf, 1, mpi::Datatype::kInt32, peer,
                    m.get_int("tag", 0), cm);
           }});
  add({.name = "pathological_hang",
       .paradigm = Paradigm::kMpi,
       .brief = "an infinite compute loop; virtual time grows unbounded",
       .params = {{"step", ParamKind::kDouble, "0.001",
                   "virtual seconds advanced per loop iteration"}},
       .expected = std::nullopt,
       .positive = pm({}),
       .negative = pm({}),
       .min_procs = 1,
       .expected_outcome = RunOutcome::kHang,
       .invoke =
           [](PropCtx& c, const ParamMap& m) {
             const VDur step = VDur::seconds(m.get_double("step", 0.001));
             for (;;) c.sim->advance(step);
           }});
  // --------------------------------- defect program family (collectives)
  // Structurally incorrect programs for the collective-correctness checker
  // (docs/DEFECTS.md).  expected_defect names the StructuralDefect the
  // checker must report; expected_outcome states how the *runtime* reacts.
  // Like the pathological entries they are excluded from names(); the
  // golden defect sweep (ats_validate --defects) and the checker unit
  // tests reach them via defect_names().
  const auto defect_work =
      std::vector<ParamSpec>{{"work", ParamKind::kDouble, "0.01",
                              "seconds of computation before the miscall"}};
  add({.name = "defect_collective_op_mismatch",
       .paradigm = Paradigm::kMpi,
       .brief = "even ranks call allreduce, odd ranks call barrier",
       .params = defect_work,
       .expected = std::nullopt,
       .positive = pm({}),
       .negative = pm({}),
       .min_procs = 2,
       .expected_outcome = RunOutcome::kMpiError,
       .expected_defect = analyze::DefectKind::kOperationMismatch,
       .invoke =
           [](PropCtx& c, const ParamMap& m) {
             core::defect_collective_op_mismatch(
                 c, m.get_double("work", 0.01), c.mpi_proc().comm_world());
           }});
  add({.name = "defect_conditional_collective",
       .paradigm = Paradigm::kMpi,
       .brief = "only even ranks call the barrier; odd ranks skip it",
       .params = defect_work,
       .expected = std::nullopt,
       .positive = pm({}),
       .negative = pm({}),
       .min_procs = 2,
       .expected_outcome = RunOutcome::kDeadlock,
       .expected_defect = analyze::DefectKind::kMissingCall,
       .invoke =
           [](PropCtx& c, const ParamMap& m) {
             core::defect_conditional_collective(
                 c, m.get_double("work", 0.01), c.mpi_proc().comm_world());
           }});
  add({.name = "defect_collective_root_mismatch",
       .paradigm = Paradigm::kMpi,
       .brief = "bcast where every rank names rank%2 as the root",
       .params = defect_work,
       .expected = std::nullopt,
       .positive = pm({}),
       .negative = pm({}),
       .min_procs = 2,
       .expected_outcome = RunOutcome::kMpiError,
       .expected_defect = analyze::DefectKind::kRootMismatch,
       .invoke =
           [](PropCtx& c, const ParamMap& m) {
             core::defect_collective_root_mismatch(
                 c, m.get_double("work", 0.01), c.mpi_proc().comm_world());
           }});
  add({.name = "defect_reduce_op_mismatch",
       .paradigm = Paradigm::kMpi,
       .brief = "allreduce with kMin on even ranks, kMax on odd ranks",
       .params = defect_work,
       .expected = std::nullopt,
       .positive = pm({}),
       .negative = pm({}),
       .min_procs = 2,
       .expected_outcome = RunOutcome::kOk,
       .expected_defect = analyze::DefectKind::kReduceOpMismatch,
       .invoke =
           [](PropCtx& c, const ParamMap& m) {
             core::defect_reduce_op_mismatch(c, m.get_double("work", 0.01),
                                             c.mpi_proc().comm_world());
           }});
  add({.name = "defect_split_comm_color",
       .paradigm = Paradigm::kMpi,
       .brief = "parity split; only half of each sub-comm joins its barrier",
       .params = defect_work,
       .expected = std::nullopt,
       .positive = pm({}),
       .negative = pm({}),
       .min_procs = 4,
       .expected_outcome = RunOutcome::kDeadlock,
       .expected_defect = analyze::DefectKind::kMissingCall,
       .invoke =
           [](PropCtx& c, const ParamMap& m) {
             core::defect_split_comm_color(c, m.get_double("work", 0.01),
                                           c.mpi_proc().comm_world());
           }});

  add({.name = "pathological_livelock",
       .paradigm = Paradigm::kMpi,
       .brief = "an infinite yield loop; virtual time never advances",
       .params = {{"poll", ParamKind::kDouble, "0",
                   "virtual seconds advanced between yields (0 = pure "
                   "livelock)"}},
       .expected = std::nullopt,
       .positive = pm({}),
       .negative = pm({}),
       .min_procs = 1,
       .expected_outcome = RunOutcome::kHang,
       .invoke =
           [](PropCtx& c, const ParamMap& m) {
             const VDur poll = VDur::seconds(m.get_double("poll", 0.0));
             for (;;) {
               c.sim->yield();
               if (poll > VDur::zero()) c.sim->advance(poll);
             }
           }});
}

const Registry& Registry::instance() {
  static const Registry reg;
  return reg;
}

const PropertyDef& Registry::find(const std::string& name) const {
  for (const auto& d : defs_) {
    if (d.name == name) return d;
  }
  throw UsageError("unknown property function '" + name +
                   "' (see Registry::names())");
}

bool Registry::contains(const std::string& name) const {
  return std::any_of(defs_.begin(), defs_.end(),
                     [&](const PropertyDef& d) { return d.name == name; });
}

std::vector<std::string> Registry::names() const {
  std::vector<std::string> out;
  out.reserve(defs_.size());
  for (const auto& d : defs_) {
    // The defect family is excluded even when the runtime survives the
    // miscall (defect_reduce_op_mismatch completes kOk): the safe set must
    // stay structurally sound for the zero-false-positive guarantees.
    if (d.expected_outcome == RunOutcome::kOk && !d.expected_defect) {
      out.push_back(d.name);
    }
  }
  return out;
}

std::vector<std::string> Registry::pathological_names() const {
  std::vector<std::string> out;
  for (const auto& d : defs_) {
    if (d.expected_outcome != RunOutcome::kOk && !d.expected_defect) {
      out.push_back(d.name);
    }
  }
  return out;
}

std::vector<std::string> Registry::defect_names() const {
  std::vector<std::string> out;
  for (const auto& d : defs_) {
    if (d.expected_defect) out.push_back(d.name);
  }
  return out;
}

std::optional<RunFailure> classify_run_failure(const std::exception& e) {
  const auto failure = [&e](RunOutcome o) {
    return std::optional<RunFailure>({o, first_line(e.what())});
  };
  if (dynamic_cast<const DeadlockError*>(&e) != nullptr) {
    return failure(RunOutcome::kDeadlock);
  }
  if (dynamic_cast<const HangError*>(&e) != nullptr) {
    return failure(RunOutcome::kHang);
  }
  // MpiError and OmpError derive from UsageError, which on its own is not
  // a run outcome: only the derived types classify.
  if (dynamic_cast<const MpiError*>(&e) != nullptr ||
      dynamic_cast<const OmpError*>(&e) != nullptr) {
    return failure(RunOutcome::kMpiError);
  }
  return std::nullopt;
}

RanksRun run_ranks(
    const RunConfig& cfg, bool openmp, trace::Trace& trace,
    const std::function<void(core::PropCtx&)>& body) {
  mpi::MpiRunOptions opt;
  opt.nprocs = cfg.nprocs;
  opt.cost = cfg.mpi_cost;
  opt.engine = cfg.engine;
  opt.trace_enabled = cfg.trace_enabled;
  opt.faults = cfg.faults;
  opt.external_trace = &trace;
  const auto bind = [&](mpi::Proc& p) {
    std::optional<omp::Runtime> rt;
    if (openmp) rt.emplace(p.world().trace(), cfg.omp_cost);
    core::PropCtx ctx = core::PropCtx::from(p, rt ? &*rt : nullptr);
    body(ctx);
  };
  mpi::MpiRunResult r = mpi::run_mpi(opt, bind);
  return {std::move(r.fault_report), r.stats};
}

namespace {

/// Checks `pmap` and cfg.nprocs against `def`, then runs it into `trace`.
void run_property(const PropertyDef& def, const ParamMap& pmap,
                  const RunConfig& cfg, trace::Trace& trace) {
  pmap.check_against(def.params);
  require(cfg.nprocs >= def.min_procs,
          "property '" + def.name + "' needs at least " +
              std::to_string(def.min_procs) + " processes");
  run_ranks(cfg, def.uses_openmp, trace,
            [&](core::PropCtx& ctx) { def.invoke(ctx, pmap); });
}

}  // namespace

trace::Trace run_single_property(const PropertyDef& def, const ParamMap& pmap,
                                 const RunConfig& cfg) {
  trace::Trace trace;
  run_property(def, pmap, cfg, trace);
  return trace;
}

trace::Trace run_single_property(const std::string& name, const ParamMap& pm_,
                                 const RunConfig& cfg) {
  return run_single_property(Registry::instance().find(name), pm_, cfg);
}

SalvagedRun run_single_property_salvaged(const PropertyDef& def,
                                         const ParamMap& pmap,
                                         const RunConfig& cfg) {
  SalvagedRun out;
  try {
    run_property(def, pmap, cfg, out.trace);
  } catch (const std::exception& e) {
    std::optional<RunFailure> failure = classify_run_failure(e);
    if (!failure) throw;
    out.outcome = failure->outcome;
    out.error = std::move(failure->error);
  }
  return out;
}

}  // namespace ats::gen
