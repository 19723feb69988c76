// Parameter-sweep experiment management (paper §3.2).
//
// "More extensive experiments based on these synthetic test programs can
// then be executed through scripting languages or through automatic
// experiment management systems, such as ZENTURIO."  This module is that
// facility in-library: an ExperimentPlan names a property function, a base
// configuration and one sweep axis; run_experiment_cell runs one point of
// the grid and reports the measured severity of the expected property and
// whether the analyzer detected it — ready for CSV export.  The sweep
// itself (parallel cells, budgets, retries, journal) is
// runner::SupervisedRunner::run_sweep; with every budget zero it is the
// plain unsupervised sweep.
#pragma once

#include <string>
#include <vector>

#include "gen/registry.hpp"

namespace ats::gen {

/// One swept parameter: a property parameter name (or "np" for the process
/// count) and the values to try.
struct SweepAxis {
  std::string param;
  std::vector<std::string> values;
};

struct ExperimentPlan {
  std::string property;
  /// Base parameters; the axis value overrides its key per run.
  ParamMap base;
  SweepAxis axis;
  RunConfig config{};
  analyze::AnalyzerOptions analyzer{};
  /// Worker threads for the sweep: every grid cell is an independent
  /// deterministic simulation, so cells fan out across a thread pool and
  /// write into pre-sized row slots — output is bit-identical to a
  /// sequential run.  0 = ATS_JOBS / hardware_concurrency (par::default_jobs),
  /// 1 = forced sequential (the determinism-test reference path).
  int jobs = 0;
};

struct ExperimentRow {
  std::string value;          ///< the axis value of this run
  VDur severity;              ///< measured severity of the expected property
  double fraction = 0.0;      ///< severity / total time
  bool detected = false;      ///< dominant finding == expected property
  std::string dominant;       ///< name of the dominant finding ("-" if none)
  VDur total_time;
  /// How the cell ended.  Failed cells (outcome != kOk) keep zero severity
  /// and dominant "-"; `note` carries the first line of the error.
  RunOutcome outcome = RunOutcome::kOk;
  /// Simulation attempts spent on the cell (1 without a retrying runner).
  int attempts = 1;
  std::string note;
};

/// True iff any row failed — the condition under which the CSV/table
/// renderers append the outcome column (clean sweeps keep the historical,
/// byte-identical format).
bool any_cell_failed(const std::vector<ExperimentRow>& rows);

/// Runs one grid cell: applies `value` to the axis parameter, simulates,
/// analyzes, classifies.  Deadlocks, hangs and runtime faults are caught
/// and recorded in the row's outcome; plan-level misuse (unknown
/// parameters, nprocs below the property minimum) still throws UsageError.
ExperimentRow run_experiment_cell(const ExperimentPlan& plan,
                                  const PropertyDef& def,
                                  const std::string& value);

/// Renders rows as CSV (header + one line per row).
std::string experiment_csv(const ExperimentPlan& plan,
                           const std::vector<ExperimentRow>& rows);

/// Renders rows as an aligned text table.
std::string experiment_table(const ExperimentPlan& plan,
                             const std::vector<ExperimentRow>& rows);

}  // namespace ats::gen
