// Supervised experiment execution (DESIGN.md §8).
//
// A large parameter sweep over the ATS property functions must survive the
// very pathologies the suite generates on purpose: deadlocks, runaway
// loops, injected rank crashes.  The SupervisedRunner wraps every
// experiment cell with
//
//   * supervision budgets (virtual time / yields / host wall clock) filled
//     into the cell's EngineOptions so hangs terminate as HangError,
//   * outcome classification (gen::RunOutcome) instead of sweep abortion,
//   * a bounded retry policy with optional seed perturbation,
//   * a crash-safe journal of completed cells, so an interrupted sweep can
//     be resumed without re-simulating finished work.
//
// run_sweep is the one sweep loop.  With every budget zero (and the default
// single attempt, no journal) it is exactly the unsupervised sweep: each
// row is gen::run_experiment_cell's; a clean sweep produces the same rows,
// and therefore the same CSV/table bytes, under any budgets.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "gen/experiment.hpp"

namespace ats::runner {

struct RetryPolicy {
  /// Total simulation attempts per cell (>= 1).  A cell whose outcome is
  /// still non-kOk after the last attempt keeps that outcome.
  int max_attempts = 1;
  /// Derive a fresh engine seed per retry (SplitSeed child of the base
  /// seed, keyed by attempt number), so a retry explores a different
  /// deterministic schedule instead of replaying the identical failure.
  bool perturb_seed = false;
};

struct SupervisorOptions {
  RetryPolicy retry{};

  // Budgets filled into each cell's EngineOptions where the plan leaves
  // them zero (a nonzero value in the plan wins).  The defaults bound any
  // property-function run by a wide margin: one virtual hour, ten million
  // scheduler yields.
  VDur virtual_time_limit = VDur::seconds(3600.0);
  std::uint64_t yield_limit = 10'000'000;
  /// Per-cell host wall-clock budget (zero = none).  Enforced by the
  /// engine's scheduler loop itself between handoffs — no watchdog
  /// thread — so it can only trip while locations still yield.
  std::chrono::milliseconds wall_clock_limit{0};

  /// Journal file: completed cells are appended as they finish, each
  /// append one fdatasync'd line (common/fsatomic.hpp); a line torn by a
  /// kill mid-write is dropped when the journal is loaded, never
  /// misparsed by a resumed sweep.  Empty = no journal.
  std::string journal_path{};
  /// Load journaled cells (matching this plan's fingerprint) instead of
  /// re-running them.
  bool resume = false;
};

class SupervisedRunner {
 public:
  explicit SupervisedRunner(SupervisorOptions opt = {}) : opt_(std::move(opt)) {}

  const SupervisorOptions& options() const { return opt_; }

  /// Runs one cell under supervision: budgets applied, retries spent,
  /// outcome classified.  `attempts` in the returned row is the number of
  /// simulation attempts actually consumed.
  gen::ExperimentRow run_cell(const gen::ExperimentPlan& plan,
                              const gen::PropertyDef& def,
                              const std::string& value) const;

  /// Runs the whole sweep, one row per axis value in order, cells in
  /// parallel per plan.jobs (the rows do not depend on the worker count),
  /// journaling completed cells and skipping journaled ones when resuming.
  /// Never throws for runtime faults; rows carry the outcome.
  std::vector<gen::ExperimentRow> run_sweep(const gen::ExperimentPlan& plan) const;

  /// Stable 64-bit fingerprint of everything that determines a sweep's
  /// rows (property, axis, base parameters, run configuration, fault
  /// plan).  Journal entries are keyed by it, so a journal written for a
  /// different plan is ignored on resume.
  static std::uint64_t plan_fingerprint(const gen::ExperimentPlan& plan);

 private:
  SupervisorOptions opt_;
};

/// FNV-1a 64-bit over a byte string (the journal/fingerprint hash).
std::uint64_t fnv1a64(std::string_view bytes);

/// One completed cell as a journal line: tab-separated
///   fp(hex) \t index \t value \t severity_ns \t detected \t dominant
///   \t total_ns \t outcome \t attempts \t note
/// This is the one persistent row format shared by the sweep journal and
/// the analysis service's result cache (docs/SERVICE.md §cache); numeric
/// fields are exact integers so a reloaded row is bit-identical to the
/// freshly computed one.
std::string format_journal_row(std::uint64_t fp, std::size_t index,
                               const gen::ExperimentRow& row);

/// Parses a journal line keyed by `fp`.  Returns false (and leaves the
/// outputs untouched) for torn, malformed, or differently-keyed lines —
/// resume and cache loads skip those instead of failing.  Every numeric
/// field must be an integer over the whole field (no sign on the index,
/// no blanks, no trailing characters), `detected` 0 or 1 and `attempts`
/// at least 1.
bool parse_journal_row(const std::string& line, std::uint64_t fp,
                       std::size_t* index, gen::ExperimentRow* row);

}  // namespace ats::runner
