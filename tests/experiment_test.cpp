// Tests for the experiment-management module (parameter sweeps).
#include <gtest/gtest.h>

#include "common/strutil.hpp"
#include "gen/experiment.hpp"
#include "test_util.hpp"

namespace ats::gen {
namespace {

TEST(Experiment, SweepOverPropertyParameter) {
  ExperimentPlan plan;
  plan.property = "late_sender";
  plan.base.set("basework", "0.01");
  plan.base.set("r", "2");
  plan.axis = {"extrawork", {"0.01", "0.02", "0.04"}};
  plan.config.nprocs = 4;
  const auto rows = testutil::plain_sweep(plan);
  ASSERT_EQ(rows.size(), 3u);
  for (const auto& r : rows) {
    EXPECT_TRUE(r.detected) << r.value;
    EXPECT_EQ(r.dominant, "late sender");
  }
  // Severity doubles with the axis value (up to the constant p2p overheads
  // of the default cost model, well under a millisecond here).
  EXPECT_NEAR(rows[1].severity.sec(), 2 * rows[0].severity.sec(), 5e-4);
  EXPECT_NEAR(rows[2].severity.sec(), 4 * rows[0].severity.sec(), 5e-4);
}

TEST(Experiment, SweepOverProcessCount) {
  ExperimentPlan plan;
  plan.property = "imbalance_at_mpi_barrier";
  plan.base.set("df", "linear:low=0.01,high=0.05");
  plan.base.set("r", "2");
  plan.axis = {"np", {"2", "4", "8"}};
  const auto rows = testutil::plain_sweep(plan);
  ASSERT_EQ(rows.size(), 3u);
  for (const auto& r : rows) EXPECT_TRUE(r.detected) << "np=" << r.value;
  // More ranks waiting -> more total severity.
  EXPECT_LT(rows[0].severity, rows[1].severity);
  EXPECT_LT(rows[1].severity, rows[2].severity);
}

TEST(Experiment, NegativePropertySweepNeverDetects) {
  ExperimentPlan plan;
  plan.property = "balanced_mpi_stencil";
  plan.axis = {"work", {"0.01", "0.05"}};
  plan.config.nprocs = 4;
  const auto rows = testutil::plain_sweep(plan);
  for (const auto& r : rows) {
    EXPECT_FALSE(r.detected);
    EXPECT_EQ(r.severity, VDur::zero());
  }
}

TEST(Experiment, CrippledAnalyzerSweepShowsMisses) {
  ExperimentPlan plan;
  plan.property = "late_sender";
  plan.axis = {"extrawork", {"0.05"}};
  plan.config.nprocs = 4;
  plan.analyzer.disabled_patterns = {analyze::PropertyId::kLateSender};
  const auto rows = testutil::plain_sweep(plan);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_FALSE(rows[0].detected);
  EXPECT_EQ(rows[0].severity, VDur::zero());
}

TEST(Experiment, CsvFormat) {
  ExperimentPlan plan;
  plan.property = "late_sender";
  plan.axis = {"extrawork", {"0.02", "0.04"}};
  plan.config.nprocs = 4;
  const auto rows = testutil::plain_sweep(plan);
  const std::string csv = experiment_csv(plan, rows);
  const auto lines = split(csv, '\n');
  ASSERT_GE(lines.size(), 3u);
  EXPECT_EQ(lines[0],
            "extrawork,severity_sec,fraction,detected,dominant,total_sec");
  EXPECT_TRUE(starts_with(lines[1], "0.02,"));
  EXPECT_NE(lines[1].find(",1,late sender,"), std::string::npos);
}

TEST(Experiment, TableFormat) {
  ExperimentPlan plan;
  plan.property = "late_sender";
  plan.axis = {"extrawork", {"0.02"}};
  plan.config.nprocs = 4;
  const auto rows = testutil::plain_sweep(plan);
  const std::string table = experiment_table(plan, rows);
  EXPECT_NE(table.find("sweep of 'late_sender'"), std::string::npos);
  EXPECT_NE(table.find("yes"), std::string::npos);
}

TEST(Experiment, FailedCellsDegradeToOutcomeRows) {
  // A crash injected into every cell must not abort the sweep: rows come
  // back classified, with zero severity and the error note attached.
  ExperimentPlan plan;
  plan.property = "late_sender";
  plan.axis = {"extrawork", {"0.02", "0.04"}};
  plan.config.nprocs = 4;
  plan.config.faults.crash(0, VTime::zero());
  const auto rows = testutil::plain_sweep(plan);
  ASSERT_EQ(rows.size(), 2u);
  for (const auto& r : rows) {
    EXPECT_EQ(r.outcome, RunOutcome::kMpiError);
    EXPECT_EQ(r.severity, VDur::zero());
    EXPECT_FALSE(r.detected);
    EXPECT_EQ(r.dominant, "-");
    EXPECT_NE(r.note.find("injected fault"), std::string::npos);
  }
  EXPECT_TRUE(any_cell_failed(rows));
}

TEST(Experiment, OutcomeColumnAppearsOnlyWhenSomeCellFailed) {
  ExperimentPlan plan;
  plan.property = "late_sender";
  plan.axis = {"extrawork", {"0.02"}};
  plan.config.nprocs = 4;

  const auto clean = testutil::plain_sweep(plan);
  EXPECT_FALSE(any_cell_failed(clean));
  const std::string clean_csv = experiment_csv(plan, clean);
  EXPECT_EQ(split(clean_csv, '\n')[0],
            "extrawork,severity_sec,fraction,detected,dominant,total_sec");
  EXPECT_EQ(experiment_csv(plan, clean).find("outcome"), std::string::npos);
  EXPECT_EQ(experiment_table(plan, clean).find("outcome"),
            std::string::npos);

  plan.config.faults.crash(0, VTime::zero());
  const auto failed = testutil::plain_sweep(plan);
  const std::string csv = experiment_csv(plan, failed);
  const auto lines = split(csv, '\n');
  EXPECT_EQ(lines[0],
            "extrawork,severity_sec,fraction,detected,dominant,total_sec,"
            "outcome,attempts");
  EXPECT_NE(lines[1].find(",mpi_error,1"), std::string::npos) << lines[1];
  const std::string table = experiment_table(plan, failed);
  EXPECT_NE(table.find("outcome"), std::string::npos);
  EXPECT_NE(table.find("mpi_error"), std::string::npos);
}

TEST(Experiment, PathologicalEntriesClassifiedNotThrown) {
  ExperimentPlan plan;
  plan.property = "pathological_deadlock";
  plan.axis = {"tag", {"0"}};
  plan.config.nprocs = 2;
  const auto rows = testutil::plain_sweep(plan);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].outcome, RunOutcome::kDeadlock);
  EXPECT_NE(rows[0].note.find("simulated deadlock"), std::string::npos);
}

TEST(Experiment, RegistrySeparatesSafeFromPathologicalNames) {
  const auto& reg = Registry::instance();
  for (const auto& name : reg.names()) {
    EXPECT_EQ(reg.find(name).expected_outcome, RunOutcome::kOk) << name;
  }
  const auto patho = reg.pathological_names();
  EXPECT_GE(patho.size(), 3u);
  for (const auto& name : patho) {
    EXPECT_NE(reg.find(name).expected_outcome, RunOutcome::kOk) << name;
  }
}

TEST(Experiment, ErrorsOnBadPlans) {
  ExperimentPlan plan;
  plan.property = "late_sender";
  EXPECT_THROW(testutil::plain_sweep(plan), UsageError);  // no axis
  plan.axis = {"extrawork", {}};
  EXPECT_THROW(testutil::plain_sweep(plan), UsageError);  // no values
  plan.axis = {"extrawork", {"0.01"}};
  plan.property = "nope";
  EXPECT_THROW(testutil::plain_sweep(plan), UsageError);  // unknown property
}

}  // namespace
}  // namespace ats::gen
