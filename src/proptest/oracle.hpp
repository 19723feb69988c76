// The oracle layer of the metamorphic fuzzing harness (DESIGN.md §10).
//
// A randomly generated ProgramSpec has no hand-written expected output; the
// harness instead checks *relations* any correct pipeline must satisfy:
//
//   metamorphic   — severity is monotone in the spec's delay knob; the
//                   order of disabled analyzer patterns never changes the
//                   surviving severities; a negative spec stays quiet.
//   determinism   — the same spec run twice in one process ends in the
//                   same outcome, serialises byte-identical traces and
//                   renders identical defect reports.
//   differential  — the strict and lenient trace loaders agree on whether
//                   a byte stream is pristine, and both round-trip it
//                   exactly; the binary and text containers agree.
//   invariant     — a trace corrupted by the seeded FaultInjector is
//                   analysed leniently without throwing, and structural
//                   duplications are either diagnosed in DataQuality or
//                   leave the severity cube untouched (never silently
//                   wrong).  Timing faults (skew/jitter) are exempt from
//                   the equality check: a self-consistent retimed trace is
//                   indistinguishable from a real run by construction.
//   crash/hang    — every run ends in a classified gen::RunOutcome that
//                   matches the spec (injected crash => kMpiError, ...);
//                   no exception ever escapes unclassified.
//
// check_spec runs them all and returns the violations; ats_fuzz drives it
// over seed ranges, and shrink.hpp minimises any spec that fails.
#pragma once

#include <string>
#include <vector>

#include "analyzer/analyzer.hpp"
#include "gen/registry.hpp"
#include "proptest/progspec.hpp"

namespace ats::proptest {

/// Which oracle a violation came from.
enum class Oracle : std::uint8_t {
  kOutcome,              ///< run ended in the wrong/unclassified outcome
  kDetection,            ///< positive spec: expected property not found
  kNegativeQuiet,        ///< negative spec: a wait state dominates anyway
  kMonotone,             ///< severity shrank when the delay grew
  kMaskPermutation,      ///< disabled-pattern order changed the result
  kDeterminism,          ///< two runs of the same spec disagree
  kLoaderDifferential,   ///< strict and lenient loaders disagree
  kFormatDifferential,   ///< binary and text containers disagree: the
                         ///< binary writer + zero-copy loader must
                         ///< reproduce the text pipeline bit for bit
  kCorruptionInvariant,  ///< corrupted trace crashed the pipeline or was
                         ///< silently mis-analysed
  kCollectiveCheck,      ///< the structural collective checker missed an
                         ///< injected defect, or flagged a sound program
  kDiffSelf,             ///< diff(run, same run) was not empty, or a
                         ///< snapshot changed across its severity-CSV
                         ///< round-trip (docs/DIFF.md)
  kDiffMonotone,         ///< added delay did not diff as a regression, or
                         ///< the diff attributed it outside the expected
                         ///< property's subtree family
};

const char* to_string(Oracle o);

struct Violation {
  Oracle oracle = Oracle::kOutcome;
  std::string message;

  /// "[monotone] severity fell from ... to ..."
  std::string str() const;
};

/// One simulated execution of a spec's program.
struct RunResult {
  gen::RunOutcome outcome = gen::RunOutcome::kOk;
  /// A non-ATS exception escaped the run — itself an oracle violation.
  bool unclassified = false;
  std::string error;   ///< first line of the exception, when any
  /// Complete when outcome == kOk; otherwise the partial trace salvaged up
  /// to the failure (MpiRunOptions::external_trace), which is what the
  /// structural collective checker inspects for injected-defect specs.
  trace::Trace trace;
  mpi::RankFaultReport fault_report;
};

/// Executes the spec's program (single property, mix, or split-communicator
/// composite).  Every sub-seed — engine schedule, rank faults — derives
/// from spec.seed via SplitSeed children.  Supervision budgets are always
/// armed, so pathological specs terminate as kDeadlock / kHang instead of
/// wedging the fuzzer.
RunResult run_program(const ProgramSpec& spec);

struct CheckOptions {
  /// Injected analyzer defect (ats_fuzz --defect): the fuzzer must then
  /// report detection-oracle violations for specs exercising the pattern —
  /// the suite-validates-the-tool experiment (TAB-FZ) at fuzz scale.
  std::vector<analyze::PropertyId> disabled_patterns;
};

struct CheckResult {
  ProgramSpec spec;
  gen::RunOutcome outcome = gen::RunOutcome::kOk;
  std::vector<Violation> violations;

  bool ok() const { return violations.empty(); }
  /// All violations, one line each.
  std::string str() const;
};

/// Runs every applicable oracle against one spec.  Deterministic: the same
/// spec (and options) yields the same violations.
CheckResult check_spec(const ProgramSpec& spec, const CheckOptions& options = {});

}  // namespace ats::proptest
