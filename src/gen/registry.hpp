// The ATS property registry and single-property test-program driver.
//
// Every property function is registered with typed parameter metadata, a
// canonical *positive* configuration (clearly exhibits the property), a
// canonical *negative* configuration (severity ~ 0), and the analyzer
// property it is expected to trigger.  From this single table the library
// derives:
//   * the CLI driver (run any property with key=value arguments — the
//     "generated" single-property test programs of paper §3.2),
//   * the detection-matrix experiment (bench/tab_detection_matrix),
//   * standalone C++ driver source generation (source_gen.hpp).
#pragma once

#include <exception>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "analyzer/analyzer.hpp"
#include "core/composite.hpp"
#include "core/properties.hpp"
#include "gen/params.hpp"

namespace ats::gen {

enum class Paradigm : std::uint8_t { kMpi, kOmp, kHybrid, kSeq };

const char* to_string(Paradigm p);

/// How a simulated run of a property function ended.  kOk means the
/// simulation and the analysis both completed; the failure classes mirror
/// the pathologies a supervised runner must survive (src/runner), and
/// pathological registry entries declare which one they provoke.
enum class RunOutcome : std::uint8_t {
  kOk,             ///< simulation and analysis completed
  kDeadlock,       ///< simt::DeadlockError — all unfinished ranks blocked
  kHang,           ///< ats::HangError — a supervision budget exhausted
  kMpiError,       ///< MpiError/OmpError — runtime violation or injected crash
  kAnalysisError,  ///< the trace was produced but the analyzer failed
};

inline constexpr std::size_t kRunOutcomeCount = 5;

const char* to_string(RunOutcome o);

/// Process exit code for one outcome class, shared by the generated
/// drivers and the CLI tools: ok = 0, deadlock = 3, hang = 4,
/// mpi_error = 5, analysis_error = 6 (1 stays generic failure, 2 usage).
int exit_code(RunOutcome o);

// ---------------------------------------------------------------- exit codes
// The complete process exit-code contract of every ATS tool (trace_analyze,
// gen_driver_tool, ats_validate, ats_serve/ats_client, and the generated
// single-property drivers).  This table is the single source of truth: the
// RunOutcome codes above are rows 0/3/4/5/6 of it, the collective checker's
// defect signal is row 7, the service's load-shed signal is row 8, and the
// cross-run diff's regression signal is row 9.  Tested (codes distinct,
// outcome codes consistent) in tests/gen_test.cpp, pinned byte-for-byte in
// tests/exit_code_test.cpp, and rendered into --help via exit_code_help().

inline constexpr int kExitOk = 0;             ///< clean run / clean analysis
inline constexpr int kExitFailure = 1;        ///< generic failure (bad input)
inline constexpr int kExitUsage = 2;          ///< bad command line / misuse
inline constexpr int kExitDeadlock = 3;       ///< RunOutcome::kDeadlock
inline constexpr int kExitHang = 4;           ///< RunOutcome::kHang
inline constexpr int kExitMpiError = 5;       ///< RunOutcome::kMpiError
inline constexpr int kExitAnalysisError = 6;  ///< RunOutcome::kAnalysisError
/// Structural collective defects found (docs/DEFECTS.md): the tool worked,
/// the analyzed *program* is broken.  Distinct from kExitAnalysisError.
inline constexpr int kExitDefectsFound = 7;
/// The analysis service shed the request under load (docs/SERVICE.md):
/// transient, retry after the server-suggested delay.
inline constexpr int kExitShed = 8;
/// ats_diff found above-threshold deltas between two runs (docs/DIFF.md):
/// the comparison itself worked, the results genuinely differ.
inline constexpr int kExitDiffRegression = 9;

struct ExitCodeEntry {
  int code;
  const char* name;     ///< stable machine-readable label, e.g. "deadlock"
  const char* meaning;  ///< one-line human description
};

/// All defined exit codes, ascending.  Codes not in this table are not
/// used by any ATS tool.
std::span<const ExitCodeEntry> exit_code_table();

/// The table rendered as indented help text (one "  N  name  meaning"
/// line per code), appended to the CLI tools' --help output.
std::string exit_code_help();

struct PropertyDef {
  std::string name;       ///< function name, e.g. "late_sender"
  Paradigm paradigm = Paradigm::kMpi;
  std::string brief;      ///< one-line description
  std::vector<ParamSpec> params;
  /// Analyzer property this function must trigger; empty for negative
  /// (well-tuned) functions.
  std::optional<analyze::PropertyId> expected;
  /// Canonical parameter sets for the detection matrix.
  ParamMap positive;
  ParamMap negative;
  /// Minimum number of MPI processes for a meaningful run.
  int min_procs = 1;
  bool uses_openmp = false;
  /// How a run of this function is expected to end.  kOk for every normal
  /// property function; the pathological entries (deadlock / hang /
  /// livelock generators) declare their failure class here, the same way
  /// `expected` declares the property a positive test must trigger.  Run
  /// non-kOk entries only under supervision budgets (see src/runner).
  RunOutcome expected_outcome = RunOutcome::kOk;
  /// Structural defect the collective checker must report for this entry
  /// (docs/DEFECTS.md).  Set only on the defect program family — registry
  /// entries that deliberately miscall collectives; they are excluded from
  /// names() and pathological_names() like the pathological entries, and
  /// swept by their own golden defect-report test.  Their expected_outcome
  /// states how the *runtime* reacts (a reduce-op mismatch completes kOk,
  /// an operation mismatch aborts with kMpiError, a conditional collective
  /// deadlocks); the checker must report the defect in every case.
  std::optional<analyze::DefectKind> expected_defect{};
  /// Invokes the property function with parameters from `pm`.
  std::function<void(core::PropCtx&, const ParamMap&)> invoke;
};

/// The one table every generator-side facility derives from.
///
/// Reentrancy contract (relied on by the analysis service, which serves
/// many requests from one process — docs/SERVICE.md):
///   * instance() is safe under concurrent first use: the function-local
///     static is initialised exactly once (C++11 [stmt.dcl]p4), and the
///     constructor touches no other mutable global state.  Long-running
///     servers should still construct it eagerly (call instance() once
///     before accepting work, as ats_serve does) so the one-time build
///     cost and any construction failure happen at startup, not on the
///     first unlucky request.
///   * The Registry is immutable after construction; every public method
///     is const and safe to call from any number of threads.
///   * The PropertyDef::invoke lambdas are stateless (they capture
///     nothing and write only through the PropCtx they are handed), so
///     one PropertyDef may drive any number of concurrent simulations.
/// Registry::instance() is the one function-local static on the request
/// path: par::ThreadPool keeps no process-wide state (each grid starts and
/// joins its own threads).
class Registry {
 public:
  static const Registry& instance();

  const std::vector<PropertyDef>& all() const { return defs_; }
  const PropertyDef& find(const std::string& name) const;
  bool contains(const std::string& name) const;
  /// Names of the functions expected to complete (expected_outcome == kOk)
  /// — the safe set for unsupervised sweeps and parameterised tests.
  std::vector<std::string> names() const;
  /// Names of the pathological entries (expected_outcome != kOk); run them
  /// only under supervision budgets.
  std::vector<std::string> pathological_names() const;
  /// Names of the defect program family (expected_defect set) — programs
  /// that miscall collectives so the structural checker has something to
  /// find.  Disjoint from names() and pathological_names().
  std::vector<std::string> defect_names() const;

 private:
  Registry();
  std::vector<PropertyDef> defs_;
};

/// Run configuration for a generated single-property program.
struct RunConfig {
  int nprocs = 4;
  mpi::CostModel mpi_cost{};
  omp::OmpCostModel omp_cost{};
  simt::EngineOptions engine{};
  bool trace_enabled = true;
  /// Seeded rank faults injected into the simulated runtime (crash / stall
  /// / drop sends); empty = clean run.
  mpi::RankFaultPlan faults{};
};

/// How a run ended when it threw: the outcome class and the first line of
/// the message.
struct RunFailure {
  RunOutcome outcome = RunOutcome::kOk;
  std::string error;
};

/// Classifies an exception thrown by a simulated run: DeadlockError ->
/// kDeadlock, HangError -> kHang, MpiError and OmpError -> kMpiError.
/// Anything else, plain UsageError included, has no run outcome (nullopt);
/// the caller decides whether to rethrow it.
std::optional<RunFailure> classify_run_failure(const std::exception& e);

/// What a completed run_ranks call reports beside the trace.
struct RanksRun {
  mpi::RankFaultReport fault_report;  ///< what the armed rank faults did
  simt::EngineStats stats;            ///< the engine's counters
};

/// Runs `body` on each of cfg.nprocs simulated ranks, bound to one PropCtx
/// per rank (with an OpenMP runtime when `openmp`), recording into `trace`.
/// The caller owns the trace, so the events recorded up to a failure
/// survive the exception the run ends with.
RanksRun run_ranks(
    const RunConfig& cfg, bool openmp, trace::Trace& trace,
    const std::function<void(core::PropCtx&)>& body);

/// Executes one property function as a complete simulated program (the
/// generated single-property test program): launches `nprocs` ranks, binds
/// PropCtx (with an OpenMP runtime when needed), runs the property with the
/// given parameters, returns the trace.
trace::Trace run_single_property(const PropertyDef& def, const ParamMap& pm,
                                 const RunConfig& cfg);
trace::Trace run_single_property(const std::string& name, const ParamMap& pm,
                                 const RunConfig& cfg);

/// Result of a salvaged run: the trace recorded up to the failure (the
/// complete trace when the run ends kOk) plus the classified outcome.
struct SalvagedRun {
  trace::Trace trace;
  RunOutcome outcome = RunOutcome::kOk;
  std::string error;  ///< first line of the failure message, when any
};

/// Like run_single_property, but survives the declared failure of a
/// pathological or defect entry: the engine exception is classified into
/// `outcome` (classify_run_failure; unclassified exceptions propagate) and
/// the events recorded up to the failure are kept instead of being lost
/// with the engine — exactly what the structural collective checker needs
/// (docs/DEFECTS.md).
/// Callers running deadlock/hang candidates should arm supervision budgets
/// in cfg.engine.
SalvagedRun run_single_property_salvaged(const PropertyDef& def,
                                         const ParamMap& pm,
                                         const RunConfig& cfg);

}  // namespace ats::gen
