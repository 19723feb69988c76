// Unit tests for the collective-correctness verification layer
// (docs/DEFECTS.md): one test per DefectKind driven through the registry's
// defect program family, a hand-built trace for the kind no program family
// member can produce deterministically (unfinished collective), the
// and the zero-false-positive guarantee on structurally sound programs.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "analyzer/analyzer.hpp"
#include "gen/registry.hpp"
#include "report/cube_view.hpp"
#include "trace/trace.hpp"

namespace ats {
namespace {

using analyze::AnalysisResult;
using analyze::AnalyzerOptions;
using analyze::DefectKind;
using analyze::StructuralDefect;
using gen::RunOutcome;

/// Runs one defect-family entry at `nprocs` and analyses the salvaged
/// trace leniently (it ends mid-operation whenever the runtime aborts).
struct DefectRun {
  gen::SalvagedRun run;
  AnalysisResult analysis;
};

DefectRun run_defect(const std::string& name, int nprocs) {
  const gen::PropertyDef& def = gen::Registry::instance().find(name);
  gen::RunConfig cfg;
  cfg.nprocs = nprocs;
  cfg.engine.virtual_time_limit = VDur::seconds(120.0);
  cfg.engine.yield_limit = 2'000'000;
  gen::SalvagedRun run = gen::run_single_property_salvaged(def, def.positive, cfg);
  AnalyzerOptions aopt;
  aopt.lenient = true;
  AnalysisResult analysis = analyze::analyze(run.trace, aopt);
  return DefectRun{std::move(run), std::move(analysis)};
}

const StructuralDefect* find_kind(const AnalysisResult& r, DefectKind kind) {
  const auto it =
      std::find_if(r.defects.begin(), r.defects.end(),
                   [&](const StructuralDefect& d) { return d.kind == kind; });
  return it == r.defects.end() ? nullptr : &*it;
}

// ------------------------------------------------------ one test per kind

TEST(CollCheck, OperationMismatchIsReported) {
  const DefectRun r = run_defect("defect_collective_op_mismatch", 4);
  EXPECT_EQ(r.run.outcome, RunOutcome::kMpiError);
  const StructuralDefect* d =
      find_kind(r.analysis, DefectKind::kOperationMismatch);
  ASSERT_NE(d, nullptr) << report::render_defects(r.analysis, r.run.trace);
  // The runtime aborts at the second arriver, so at least the two
  // conflicting participants (one allreduce, one barrier) are on record.
  ASSERT_GE(d->participants.size(), 2u);
  const bool has_allreduce =
      std::any_of(d->participants.begin(), d->participants.end(),
                  [](const auto& p) { return p.op == trace::CollOp::kAllreduce; });
  const bool has_barrier =
      std::any_of(d->participants.begin(), d->participants.end(),
                  [](const auto& p) { return p.op == trace::CollOp::kBarrier; });
  EXPECT_TRUE(has_allreduce && has_barrier);
}

TEST(CollCheck, MissingCallIsReportedWithTheSkippingRanks) {
  const DefectRun r = run_defect("defect_conditional_collective", 4);
  EXPECT_EQ(r.run.outcome, RunOutcome::kDeadlock);
  const StructuralDefect* d = find_kind(r.analysis, DefectKind::kMissingCall);
  ASSERT_NE(d, nullptr) << report::render_defects(r.analysis, r.run.trace);
  // Even ranks call the barrier, odd ranks skip it.
  std::vector<int> called;
  for (const auto& p : d->participants) called.push_back(p.comm_rank);
  EXPECT_EQ(called, (std::vector<int>{0, 2}));
  EXPECT_EQ(d->missing, (std::vector<int>{1, 3}));
}

TEST(CollCheck, RootMismatchIsReported) {
  const DefectRun r = run_defect("defect_collective_root_mismatch", 4);
  EXPECT_EQ(r.run.outcome, RunOutcome::kMpiError);
  const StructuralDefect* d = find_kind(r.analysis, DefectKind::kRootMismatch);
  ASSERT_NE(d, nullptr) << report::render_defects(r.analysis, r.run.trace);
  ASSERT_GE(d->participants.size(), 2u);
  EXPECT_NE(d->participants[0].root, d->participants[1].root);
}

TEST(CollCheck, ReduceOpMismatchIsReportedFromACompletedRun) {
  // The runtime cannot see this one: the collective completes normally and
  // only the checker notices the disagreement — the PARCOACH-style case.
  const DefectRun r = run_defect("defect_reduce_op_mismatch", 4);
  EXPECT_EQ(r.run.outcome, RunOutcome::kOk);
  const StructuralDefect* d =
      find_kind(r.analysis, DefectKind::kReduceOpMismatch);
  ASSERT_NE(d, nullptr) << report::render_defects(r.analysis, r.run.trace);
  ASSERT_EQ(d->participants.size(), 4u);
  for (const auto& p : d->participants) {
    EXPECT_TRUE(p.completed);
    EXPECT_EQ(trace::reduce_op_name(p.rop),
              p.comm_rank % 2 == 0 ? std::string("min") : std::string("max"));
  }
}

TEST(CollCheck, SplitColorDefectIsReportedPerSubCommunicator) {
  const DefectRun r = run_defect("defect_split_comm_color", 4);
  EXPECT_EQ(r.run.outcome, RunOutcome::kDeadlock);
  // One missing-call defect per parity sub-communicator; the world-level
  // split itself is sound and must not be flagged.
  std::size_t missing = 0;
  for (const auto& d : r.analysis.defects) {
    EXPECT_EQ(d.kind, DefectKind::kMissingCall);
    EXPECT_NE(r.run.trace.comm(d.comm).name, "MPI_COMM_WORLD");
    ++missing;
  }
  EXPECT_EQ(missing, 2u);
}

TEST(CollCheck, UnfinishedCollectiveIsReported) {
  // No generator program can end with "everyone called, someone never
  // finished" deterministically, so this kind is pinned on a hand-built
  // trace: both ranks record the call, only rank 0 records completion.
  trace::Trace t;
  for (int i = 0; i < 2; ++i) {
    trace::LocationInfo li;
    li.id = i;
    li.rank = i;
    li.name = "rank " + std::to_string(i);
    t.add_location(std::move(li));
  }
  const trace::CommId world =
      t.add_comm(trace::CommKind::kMpiComm, {0, 1}, "MPI_COMM_WORLD");
  const trace::RegionId reg =
      t.regions().intern("MPI_Barrier", trace::RegionKind::kMpiColl);
  for (trace::LocId loc = 0; loc < 2; ++loc) {
    t.enter(loc, VTime(100), reg);
    t.coll_begin(loc, VTime(100), world, 0, trace::CollOp::kBarrier,
                 trace::kNone, trace::kNone, reg);
  }
  t.coll_end(0, VTime(200), VTime(100), world, 0, trace::CollOp::kBarrier,
             trace::kNone, 0, 0);
  t.exit(0, VTime(200), reg);

  AnalyzerOptions aopt;
  aopt.lenient = true;
  const AnalysisResult r = analyze::analyze(t, aopt);
  const StructuralDefect* d =
      find_kind(r, DefectKind::kUnfinishedCollective);
  ASSERT_NE(d, nullptr) << report::render_defects(r, t);
  ASSERT_EQ(d->participants.size(), 2u);
  EXPECT_TRUE(d->participants[0].completed);
  EXPECT_FALSE(d->participants[1].completed);
  EXPECT_TRUE(d->missing.empty());
}

// ------------------------------------------------- report-layer contracts

TEST(CollCheck, ReportsCiteCommRanksAndCallIndex) {
  const DefectRun r = run_defect("defect_conditional_collective", 4);
  const std::string text = report::render_defects(r.analysis, r.run.trace);
  EXPECT_NE(text.find("missing-call"), std::string::npos) << text;
  EXPECT_NE(text.find("MPI_COMM_WORLD"), std::string::npos) << text;
  EXPECT_NE(text.find("call #"), std::string::npos) << text;
  EXPECT_NE(text.find("never called"), std::string::npos) << text;

  const std::string csv = report::defect_csv(r.analysis, r.run.trace);
  EXPECT_NE(csv.find("kind,comm,call_index,rank,loc,op,root,reduce_op,status"),
            std::string::npos)
      << csv;
  EXPECT_NE(csv.find(",missing"), std::string::npos) << csv;
}

TEST(CollCheck, DefectsNeverTouchTheSeverityCube) {
  // Structural defects are reported alongside the severity tree, never
  // inside it: disabling the checker must not change a single severity.
  const gen::PropertyDef& def =
      gen::Registry::instance().find("defect_reduce_op_mismatch");
  gen::RunConfig cfg;
  cfg.nprocs = 4;
  const gen::SalvagedRun run =
      gen::run_single_property_salvaged(def, def.positive, cfg);
  ASSERT_EQ(run.outcome, RunOutcome::kOk);
  AnalyzerOptions with;
  AnalyzerOptions without;
  without.check_collectives = false;
  const AnalysisResult a = analyze::analyze(run.trace, with);
  const AnalysisResult b = analyze::analyze(run.trace, without);
  EXPECT_FALSE(a.defects.empty());
  EXPECT_TRUE(b.defects.empty());
  EXPECT_EQ(report::severity_csv(a, run.trace),
            report::severity_csv(b, run.trace));
}

// ------------------------------------------------------- false positives

TEST(CollCheck, CleanRegistryProgramsProduceNoDefects) {
  const auto& reg = gen::Registry::instance();
  for (const std::string& name : reg.names()) {
    const gen::PropertyDef& def = reg.find(name);
    gen::RunConfig cfg;
    cfg.nprocs = std::max(def.min_procs, 4);
    const trace::Trace tr = gen::run_single_property(def, def.positive, cfg);
    const AnalysisResult r = analyze::analyze(tr);
    EXPECT_TRUE(r.defects.empty())
        << name << ": " << report::render_defects(r, tr);
  }
}

}  // namespace
}  // namespace ats
