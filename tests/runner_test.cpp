// Tests for the supervised experiment runner: outcome classification under
// injected faults, bounded retries, journaling, and bit-identical resume.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "common/strutil.hpp"
#include "runner/supervisor.hpp"
#include "test_util.hpp"

namespace ats::runner {
namespace {

using gen::ExperimentPlan;
using gen::ExperimentRow;
using gen::RunOutcome;

ExperimentPlan late_sender_plan() {
  ExperimentPlan plan;
  plan.property = "late_sender";
  plan.base.set("basework", "0.01");
  plan.base.set("r", "2");
  plan.axis = {"extrawork", {"0.01", "0.02", "0.04"}};
  plan.config.nprocs = 4;
  plan.jobs = 1;
  return plan;
}

std::string temp_journal(const char* tag) {
  return testing::TempDir() + "ats_runner_" + tag + "_journal.tsv";
}

TEST(Runner, CleanSupervisedSweepMatchesPlainSweep) {
  // Supervision must be invisible on healthy sweeps: same rows, same bytes.
  const ExperimentPlan plan = late_sender_plan();
  const auto plain = testutil::cell_rows(plan);
  const auto supervised = SupervisedRunner().run_sweep(plan);
  EXPECT_EQ(gen::experiment_csv(plan, plain),
            gen::experiment_csv(plan, supervised));
  EXPECT_EQ(gen::experiment_table(plan, plain),
            gen::experiment_table(plan, supervised));
  for (const auto& r : supervised) {
    EXPECT_EQ(r.outcome, RunOutcome::kOk);
    EXPECT_EQ(r.attempts, 1);
  }
}

TEST(Runner, CrashedCellRetriesExactlyNTimesThenReportsMpiError) {
  ExperimentPlan plan = late_sender_plan();
  plan.axis = {"extrawork", {"0.05"}};
  plan.config.faults.crash(1, VTime::zero());

  SupervisorOptions opt;
  opt.retry.max_attempts = 3;
  opt.retry.perturb_seed = true;  // deterministic crash fires regardless
  const auto rows = SupervisedRunner(opt).run_sweep(plan);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].outcome, RunOutcome::kMpiError);
  EXPECT_EQ(rows[0].attempts, 3);
  EXPECT_NE(rows[0].note.find("injected fault: rank 1 crashed"),
            std::string::npos)
      << rows[0].note;
  EXPECT_EQ(rows[0].severity, VDur::zero());
  EXPECT_EQ(rows[0].dominant, "-");
}

TEST(Runner, DeadlockCellClassified) {
  ExperimentPlan plan;
  plan.property = "pathological_deadlock";
  plan.axis = {"tag", {"0"}};
  plan.config.nprocs = 2;
  plan.jobs = 1;
  const auto rows = SupervisedRunner().run_sweep(plan);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].outcome, RunOutcome::kDeadlock);
  EXPECT_NE(rows[0].note.find("simulated deadlock"), std::string::npos);
}

TEST(Runner, HangCellClassifiedUnderVirtualTimeBudget) {
  ExperimentPlan plan;
  plan.property = "pathological_hang";
  plan.base.set("step", "0.001");
  plan.axis = {"step", {"0.001"}};
  plan.config.nprocs = 1;
  plan.jobs = 1;
  SupervisorOptions opt;
  opt.virtual_time_limit = VDur::millis(100);  // trip fast in the test
  const auto rows = SupervisedRunner(opt).run_sweep(plan);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].outcome, RunOutcome::kHang);
  EXPECT_NE(rows[0].note.find("virtual-time budget"), std::string::npos);
}

TEST(Runner, LivelockCellClassifiedUnderYieldBudget) {
  ExperimentPlan plan;
  plan.property = "pathological_livelock";
  plan.axis = {"poll", {"0"}};
  plan.config.nprocs = 1;
  plan.jobs = 1;
  SupervisorOptions opt;
  opt.yield_limit = 10'000;
  const auto rows = SupervisedRunner(opt).run_sweep(plan);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].outcome, RunOutcome::kHang);
  EXPECT_NE(rows[0].note.find("yield budget"), std::string::npos);
}

TEST(Runner, MixedSweepCompletesWithPerCellOutcomes) {
  // The crash triggers at 1s of virtual time: the short cell finishes
  // before it, the long cell hits it.  The sweep must not abort.
  ExperimentPlan plan = late_sender_plan();
  plan.axis = {"r", {"1", "30"}};
  plan.base.set("extrawork", "0.05");
  plan.config.faults.crash(1, VTime::zero() + VDur::seconds(1.0));
  const auto rows = SupervisedRunner().run_sweep(plan);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].outcome, RunOutcome::kOk);
  EXPECT_TRUE(rows[0].detected);
  EXPECT_EQ(rows[1].outcome, RunOutcome::kMpiError);
}

TEST(Runner, JournalRecordsEveryCompletedCell) {
  const std::string path = temp_journal("records");
  std::remove(path.c_str());
  const ExperimentPlan plan = late_sender_plan();
  SupervisorOptions opt;
  opt.journal_path = path;
  const auto rows = SupervisedRunner(opt).run_sweep(plan);
  ASSERT_EQ(rows.size(), 3u);

  std::ifstream in(path);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    if (!line.empty()) ++lines;
  }
  EXPECT_EQ(lines, 3u);
  std::remove(path.c_str());
}

TEST(Runner, ResumeLoadsJournaledCellsInsteadOfRerunning) {
  const std::string path = temp_journal("resume");
  std::remove(path.c_str());
  const ExperimentPlan plan = late_sender_plan();
  const std::uint64_t fp = SupervisedRunner::plan_fingerprint(plan);

  // Hand-write a journal entry for cell 0 with a sentinel dominant name no
  // real analysis would produce: if resume loads it, cell 0 was skipped.
  {
    std::ofstream out(path);
    std::ostringstream os;
    os << std::hex << fp << std::dec
       << "\t0\t0.01\t1000000\t1\tjournaled-sentinel\t2000000\tok\t1\t";
    out << os.str() << "\n";
  }

  SupervisorOptions opt;
  opt.journal_path = path;
  opt.resume = true;
  const auto rows = SupervisedRunner(opt).run_sweep(plan);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].dominant, "journaled-sentinel");
  EXPECT_EQ(rows[0].severity, VDur::millis(1));
  // Cells 1 and 2 were computed fresh.
  EXPECT_EQ(rows[1].dominant, "late sender");
  EXPECT_EQ(rows[2].dominant, "late sender");
  std::remove(path.c_str());
}

TEST(Runner, InterruptedSweepResumesBitIdentical) {
  const std::string path = temp_journal("bitident");
  std::remove(path.c_str());
  const ExperimentPlan plan = late_sender_plan();

  // Reference: one uninterrupted supervised sweep.
  SupervisorOptions opt;
  opt.journal_path = path;
  const auto full = SupervisedRunner(opt).run_sweep(plan);

  // Simulate an interruption after the first completed cell: keep only the
  // journal's first line, then resume.
  {
    std::ifstream in(path);
    std::string first;
    std::getline(in, first);
    in.close();
    std::ofstream out(path, std::ios::trunc);
    out << first << "\n";
  }
  SupervisorOptions ropt = opt;
  ropt.resume = true;
  const auto resumed = SupervisedRunner(ropt).run_sweep(plan);

  EXPECT_EQ(gen::experiment_csv(plan, full),
            gen::experiment_csv(plan, resumed));
  // The resumed run re-journals the two recomputed cells.
  std::ifstream in(path);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    if (!line.empty()) ++lines;
  }
  EXPECT_EQ(lines, 3u);
  std::remove(path.c_str());
}

TEST(Runner, ResumeIgnoresJournalOfDifferentPlan) {
  const std::string path = temp_journal("wrongplan");
  std::remove(path.c_str());
  ExperimentPlan plan = late_sender_plan();
  {
    // Journal keyed to a *different* plan (other axis values -> other
    // fingerprint).
    ExperimentPlan other = plan;
    other.axis.values = {"0.08"};
    const std::uint64_t fp = SupervisedRunner::plan_fingerprint(other);
    std::ofstream out(path);
    std::ostringstream os;
    os << std::hex << fp << std::dec
       << "\t0\t0.01\t1000000\t1\tjournaled-sentinel\t2000000\tok\t1\t";
    out << os.str() << "\n";
  }
  SupervisorOptions opt;
  opt.journal_path = path;
  opt.resume = true;
  const auto rows = SupervisedRunner(opt).run_sweep(plan);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].dominant, "late sender");  // recomputed, not loaded
  std::remove(path.c_str());
}

TEST(Runner, PlanFingerprintTracksEverySweepIngredient) {
  const ExperimentPlan plan = late_sender_plan();
  const std::uint64_t base = SupervisedRunner::plan_fingerprint(plan);
  EXPECT_EQ(base, SupervisedRunner::plan_fingerprint(plan));  // stable

  ExperimentPlan p1 = plan;
  p1.property = "late_receiver";
  EXPECT_NE(SupervisedRunner::plan_fingerprint(p1), base);

  ExperimentPlan p2 = plan;
  p2.axis.values.push_back("0.08");
  EXPECT_NE(SupervisedRunner::plan_fingerprint(p2), base);

  ExperimentPlan p3 = plan;
  p3.config.nprocs = 8;
  EXPECT_NE(SupervisedRunner::plan_fingerprint(p3), base);

  ExperimentPlan p4 = plan;
  p4.config.engine.seed += 1;
  EXPECT_NE(SupervisedRunner::plan_fingerprint(p4), base);

  ExperimentPlan p5 = plan;
  p5.config.faults.crash(0, VTime::zero());
  EXPECT_NE(SupervisedRunner::plan_fingerprint(p5), base);

  ExperimentPlan p6 = plan;
  p6.analyzer.threshold = 0.25;
  EXPECT_NE(SupervisedRunner::plan_fingerprint(p6), base);
}

TEST(Runner, UsageErrorsStillPropagate) {
  // Plan-level misuse is not a runtime fault; the runner must not swallow
  // it into an outcome row.
  ExperimentPlan plan;
  plan.property = "late_sender";
  EXPECT_THROW(SupervisedRunner().run_sweep(plan), UsageError);  // no axis
  plan.axis = {"extrawork", {"0.01"}};
  plan.property = "nope";
  EXPECT_THROW(SupervisedRunner().run_sweep(plan), UsageError);
}

TEST(Runner, Fnv1a64MatchesReferenceVectors) {
  // Published FNV-1a test vectors.
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ULL);
}

TEST(Runner, JournalRowRoundTripsThroughTheSharedFormat) {
  ExperimentRow row;
  row.value = "0.04";
  row.severity = VDur::seconds(0.25);
  row.detected = true;
  row.dominant = "late sender";
  row.total_time = VDur::seconds(1.0);
  row.outcome = RunOutcome::kOk;
  row.attempts = 2;
  row.note = "retried once";
  const std::uint64_t fp = 0xdeadbeefcafef00dULL;
  const std::string line = format_journal_row(fp, 7, row);
  std::size_t index = 0;
  ExperimentRow parsed;
  ASSERT_TRUE(parse_journal_row(line, fp, &index, &parsed));
  EXPECT_EQ(index, 7u);
  EXPECT_EQ(parsed.value, row.value);
  EXPECT_EQ(parsed.severity.ns(), row.severity.ns());
  EXPECT_EQ(parsed.detected, row.detected);
  EXPECT_EQ(parsed.dominant, row.dominant);
  EXPECT_EQ(parsed.total_time.ns(), row.total_time.ns());
  EXPECT_EQ(parsed.outcome, row.outcome);
  EXPECT_EQ(parsed.attempts, row.attempts);
  EXPECT_EQ(parsed.note, row.note);
  // A row journaled under another plan must not parse for this one.
  EXPECT_FALSE(parse_journal_row(line, fp + 1, &index, &parsed));
}

TEST(Runner, JournalRowRejectsMalformedFields) {
  // Every numeric field must parse as a whole; a line that only starts
  // with a number, carries blanks or a sign where none belongs, or holds
  // an impossible detected/attempts value is malformed, not a cached row.
  ExperimentRow row;
  row.value = "0.04";
  row.severity = VDur::nanos(12);
  row.dominant = "late sender";
  row.total_time = VDur::nanos(40);
  const std::uint64_t fp = 0xdeadbeefcafef00dULL;
  const std::vector<std::string> good =
      split(format_journal_row(fp, 7, row), '\t');
  ASSERT_EQ(good.size(), 10u);
  const struct {
    std::size_t field;
    const char* text;
  } bad[] = {
      {1, "7junk"},  // index with trailing characters
      {1, "-1"},     // negative index
      {1, " 7"},     // leading blank
      {1, ""},       // empty index
      {3, " 12"},    // severity with a leading blank
      {3, "12x"},    // severity with trailing characters
      {6, "40 "},    // total with a trailing blank
      {4, "2"},      // detected outside {0,1}
      {4, "01"},     // detected not exactly 0 or 1
      {8, "0"},      // no attempt at all
      {8, "-3"},     // negative attempts
      {8, "1.5"},    // fractional attempts
      {0, "deadbeefcafef00dz"},  // key with trailing characters
  };
  for (const auto& b : bad) {
    std::vector<std::string> f = good;
    f[b.field] = b.text;
    std::size_t index = 99;
    ExperimentRow parsed;
    parsed.note = "untouched";
    EXPECT_FALSE(parse_journal_row(join(f, "\t"), fp, &index, &parsed))
        << "field " << b.field << " = '" << b.text << "'";
    EXPECT_EQ(index, 99u);
    EXPECT_EQ(parsed.note, "untouched");
  }
  std::size_t index = 0;
  ExperimentRow parsed;
  ASSERT_TRUE(parse_journal_row(join(good, "\t"), fp, &index, &parsed));
  EXPECT_EQ(index, 7u);
  EXPECT_EQ(parsed.severity.ns(), 12);
  EXPECT_EQ(parsed.attempts, 1);
}

TEST(Runner, ResumeToleratesTornTrailingJournalLine) {
  // A journal produced by a run killed mid-cell may legitimately end in
  // anything *only* if appends are not atomic; with common/fsatomic.hpp
  // they are, but resume must still survive a torn file (foreign writer,
  // partial copy): the fragment is dropped, complete lines are kept.
  const ExperimentPlan plan = late_sender_plan();
  const std::string path = temp_journal("torn");
  std::remove(path.c_str());
  SupervisorOptions first;
  first.journal_path = path;
  const auto rows = SupervisedRunner(first).run_sweep(plan);
  ASSERT_EQ(rows.size(), 3u);
  {
    std::ofstream f(path, std::ios::app);
    f << "ffffffff\t9\ttorn-fragment-no-newline";
  }
  SupervisorOptions second;
  second.journal_path = path;
  second.resume = true;
  const auto resumed = SupervisedRunner(second).run_sweep(plan);
  EXPECT_EQ(gen::experiment_csv(plan, rows),
            gen::experiment_csv(plan, resumed));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ats::runner
