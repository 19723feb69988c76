#include "proptest/oracle.hpp"

#include <algorithm>
#include <exception>
#include <memory>
#include <optional>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "common/strutil.hpp"
#include "common/rng.hpp"
#include "diff/diff.hpp"
#include "faults/fault_injector.hpp"
#include "mpisim/world.hpp"
#include "ompsim/omp.hpp"
#include "report/cube_view.hpp"
#include "trace/trace_binary.hpp"
#include "trace/trace_io.hpp"

namespace ats::proptest {

namespace {

using analyze::AnalysisResult;
using analyze::AnalyzerOptions;
using analyze::PropertyId;
using gen::RunOutcome;

/// Supervision budgets for fuzz runs: generous for any generated program,
/// but tight enough that the pathological specs (deadlock / hang /
/// livelock) classify in milliseconds of host time.
constexpr double kVirtualLimitSec = 120.0;
constexpr std::uint64_t kYieldLimit = 2'000'000;

/// A dominant wait state below this fraction of total time counts as
/// "quiet" (the negative-program criterion of the detection matrix); a
/// positive spec's expected property must exceed it.
constexpr double kQuietFraction = 0.02;

/// True when `name` maps to `expected` or to an ancestor/descendant of it
/// in the property tree — the acceptable attribution family for a delay
/// injected into `expected` (a grown leaf also grows its roll-ups, and a
/// parent property can carry the attribution when the growth lands in a
/// child like late-sender/wrong-order).
bool in_attribution_family(const std::string& name, PropertyId expected) {
  PropertyId named = PropertyId::kCount_;
  for (PropertyId p : analyze::property_preorder()) {
    if (name == analyze::property_name(p)) {
      named = p;
      break;
    }
  }
  if (named == PropertyId::kCount_) return false;
  for (PropertyId cur = named;; cur = analyze::property_info(cur).parent) {
    if (cur == expected) return true;
    if (cur == PropertyId::kTotal) break;
  }
  for (PropertyId cur = expected;; cur = analyze::property_info(cur).parent) {
    if (cur == named) return true;
    if (cur == PropertyId::kTotal) break;
  }
  return false;
}

std::string first_line(const std::string& s) {
  const auto nl = s.find('\n');
  return nl == std::string::npos ? s : s.substr(0, nl);
}

/// "dropped=2 unmatched_sends=1" — the non-zero anomaly counters.
std::string quality_summary(const analyze::DataQuality& q) {
  std::ostringstream os;
  auto field = [&](const char* name, std::size_t v) {
    if (v > 0) os << (os.tellp() > 0 ? " " : "") << name << "=" << v;
  };
  field("dropped", q.events_dropped);
  field("repaired", q.events_repaired);
  field("unbalanced_exits", q.unbalanced_exits);
  field("unmatched_sends", q.unmatched_sends);
  field("unmatched_recvs", q.unmatched_recvs);
  field("incomplete_collectives", q.incomplete_collectives);
  field("negative_waits", q.negative_waits_clamped);
  field("skewed_messages", q.skewed_messages);
  field("unsorted_locations", q.unsorted_locations);
  if (q.clock_skew_detected) os << (os.tellp() > 0 ? " " : "") << "clock_skew";
  return os.str();
}

std::string save_text(const trace::Trace& t) {
  std::ostringstream os;
  t.save(os);
  return os.str();
}

/// The program body for one spec: the primary property, then any mix
/// members, bound to one PropCtx per rank exactly like run_single_property.
void invoke_members(const ProgramSpec& spec, mpi::Proc& p,
                    const gen::RunConfig& cfg) {
  const auto& reg = gen::Registry::instance();
  std::vector<const gen::PropertyDef*> defs;
  defs.push_back(&reg.find(spec.property));
  for (const auto& name : spec.mix) defs.push_back(&reg.find(name));
  const bool any_omp =
      std::any_of(defs.begin(), defs.end(),
                  [](const gen::PropertyDef* d) { return d->uses_openmp; });
  std::optional<omp::Runtime> rt;
  if (any_omp) rt.emplace(p.world().trace(), cfg.omp_cost);
  core::PropCtx ctx = core::PropCtx::from(p, rt ? &*rt : nullptr);
  for (const gen::PropertyDef* def : defs) {
    def->invoke(ctx, params_for(*def, spec));
  }
}

/// The injected-miscall epilogue: runs after the spec's program body, on
/// comm world, so the salvaged trace ends with exactly one known structural
/// defect for the collective checker to find.
void inject_coll_defect(const ProgramSpec& spec, mpi::Proc& p) {
  if (spec.coll_defect == SpecCollDefect::kNone) return;
  core::PropCtx ctx = core::PropCtx::from(p);
  const double work = static_cast<double>(spec.basework_us) * 1e-6;
  mpi::Comm& world = ctx.mpi_proc().comm_world();
  switch (spec.coll_defect) {
    case SpecCollDefect::kNone:
      break;
    case SpecCollDefect::kOpMismatch:
      core::defect_collective_op_mismatch(ctx, work, world);
      break;
    case SpecCollDefect::kMissingCall:
      core::defect_conditional_collective(ctx, work, world);
      break;
    case SpecCollDefect::kRootMismatch:
      core::defect_collective_root_mismatch(ctx, work, world);
      break;
    case SpecCollDefect::kReduceOpMismatch:
      core::defect_reduce_op_mismatch(ctx, work, world);
      break;
    case SpecCollDefect::kSplitColor:
      core::defect_split_comm_color(ctx, work, world);
      break;
  }
}

int effective_nprocs(const ProgramSpec& spec) {
  const auto& reg = gen::Registry::instance();
  int min_procs = spec.mode == ProgramMode::kSplit ? 4 : 1;
  if (spec.mode != ProgramMode::kSplit) {
    min_procs = reg.find(spec.property).min_procs;
    for (const auto& name : spec.mix) {
      min_procs = std::max(min_procs, reg.find(name).min_procs);
    }
  }
  // The injected miscalls disagree across rank parity (>= 2 ranks); the
  // split variant needs two sub-communicators of >= 2 ranks each.
  if (spec.coll_defect == SpecCollDefect::kSplitColor) {
    min_procs = std::max(min_procs, 4);
  } else if (spec.coll_defect != SpecCollDefect::kNone) {
    min_procs = std::max(min_procs, 2);
  }
  return std::max(spec.nprocs, min_procs);
}

mpi::RankFaultPlan fault_plan(const ProgramSpec& spec, int nprocs) {
  mpi::RankFaultPlan plan;
  if (spec.rank_fault == SpecRankFault::kNone) return plan;
  plan.seed = SplitSeed(spec.seed).child("rank-faults").value();
  const int rank = std::min(std::max(spec.fault_rank, 0), nprocs - 1);
  switch (spec.rank_fault) {
    case SpecRankFault::kNone:
      break;
    case SpecRankFault::kCrash:
      plan.crash(rank, VTime::zero());
      break;
    case SpecRankFault::kStall:
      plan.stall(rank, VTime::zero(), VDur::micros(spec.delay_us));
      break;
    case SpecRankFault::kDropSends:
      plan.drop_sends(rank);
      break;
  }
  return plan;
}

/// Outcomes a correct pipeline may produce for this spec.  Everything else
/// is a crash/hang-oracle violation.
std::vector<RunOutcome> expected_outcomes(const ProgramSpec& spec) {
  const auto& reg = gen::Registry::instance();
  switch (spec.coll_defect) {
    case SpecCollDefect::kOpMismatch:
    case SpecCollDefect::kRootMismatch:
      return {RunOutcome::kMpiError};  // runtime aborts at the second arriver
    case SpecCollDefect::kMissingCall:
    case SpecCollDefect::kSplitColor:
      return {RunOutcome::kDeadlock};  // skipped ranks starve the collective
    case SpecCollDefect::kNone:
    case SpecCollDefect::kReduceOpMismatch:
      break;  // the run completes; only the checker sees a reduce-op clash
  }
  if (spec.mode == ProgramMode::kSingle && reg.contains(spec.property)) {
    const RunOutcome declared = reg.find(spec.property).expected_outcome;
    if (declared != RunOutcome::kOk) return {declared};
  }
  switch (spec.rank_fault) {
    case SpecRankFault::kCrash:
      return {RunOutcome::kMpiError};
    case SpecRankFault::kDropSends:
      // A rank that sends nothing p2p leaves the run clean; one that does
      // starves its receiver until the engine reports deadlock (or a
      // supervision budget fires first on a retry loop).
      return {RunOutcome::kOk, RunOutcome::kDeadlock, RunOutcome::kHang};
    case SpecRankFault::kNone:
    case SpecRankFault::kStall:
      return {RunOutcome::kOk};
  }
  return {RunOutcome::kOk};
}

std::vector<PropertyId> waitstate_properties() {
  std::vector<PropertyId> out;
  for (const PropertyId p : analyze::property_preorder()) {
    if (analyze::property_info(p).is_waitstate) out.push_back(p);
  }
  return out;
}

/// Targeted FaultConfig for one corruption class; seeds derive from the
/// spec so the same spec always plants the same faults.
faults::FaultConfig fault_config_for(SpecTraceFault f, std::uint64_t seed) {
  faults::FaultConfig cfg;
  cfg.seed = seed;
  switch (f) {
    case SpecTraceFault::kNone:
      break;
    case SpecTraceFault::kDrop:
      cfg.drop_event = 0.05;
      break;
    case SpecTraceFault::kDuplicate:
      cfg.duplicate_event = 0.05;
      break;
    case SpecTraceFault::kReorder:
      cfg.reorder_events = 0.05;
      break;
    case SpecTraceFault::kClockSkew:
      cfg.clock_skew_ns = 2'000'000;
      cfg.skew_locations = 0.5;
      break;
    case SpecTraceFault::kJitter:
      cfg.jitter_ns = 500'000;
      cfg.jitter_events = 0.2;
      break;
    case SpecTraceFault::kRecord:
      cfg.corrupt_record = 0.05;
      cfg.bogus_location = 0.02;
      break;
    case SpecTraceFault::kTruncate:
      cfg.truncate_fraction = 0.7;
      break;
    case SpecTraceFault::kMixed:
      cfg = faults::FaultInjector::random_config(seed);
      break;
  }
  return cfg;
}

bool is_record_level(SpecTraceFault f) {
  return f == SpecTraceFault::kRecord || f == SpecTraceFault::kTruncate ||
         f == SpecTraceFault::kMixed;
}

}  // namespace

const char* to_string(Oracle o) {
  switch (o) {
    case Oracle::kOutcome: return "outcome";
    case Oracle::kDetection: return "detection";
    case Oracle::kNegativeQuiet: return "negative-quiet";
    case Oracle::kMonotone: return "monotone";
    case Oracle::kMaskPermutation: return "mask-permutation";
    case Oracle::kDeterminism: return "determinism";
    case Oracle::kLoaderDifferential: return "loader-differential";
    case Oracle::kFormatDifferential: return "format-differential";
    case Oracle::kCorruptionInvariant: return "corruption-invariant";
    case Oracle::kCollectiveCheck: return "collective-check";
    case Oracle::kDiffSelf: return "diff-self";
    case Oracle::kDiffMonotone: return "diff-monotone";
  }
  return "?";
}

std::string Violation::str() const {
  return "[" + std::string(to_string(oracle)) + "] " + message;
}

std::string CheckResult::str() const {
  std::ostringstream os;
  for (const Violation& v : violations) os << v.str() << "\n";
  return os.str();
}

RunResult run_program(const ProgramSpec& spec) {
  RunResult res;
  const int nprocs = effective_nprocs(spec);

  gen::RunConfig cfg;
  cfg.nprocs = nprocs;
  cfg.engine.seed = SplitSeed(spec.seed).child("engine").value();
  cfg.engine.virtual_time_limit = VDur::seconds(kVirtualLimitSec);
  cfg.engine.yield_limit = kYieldLimit;
  cfg.faults = fault_plan(spec, nprocs);

  mpi::MpiRunOptions opt;
  opt.nprocs = cfg.nprocs;
  opt.cost = cfg.mpi_cost;
  opt.engine = cfg.engine;
  opt.trace_enabled = true;
  opt.faults = cfg.faults;
  // Record straight into the result so a run that ends in a deadlock or an
  // MpiError still leaves the events up to the failure behind — injected
  // collective defects are diagnosed from exactly this salvaged trace.
  opt.external_trace = &res.trace;

  try {
    auto result = mpi::run_mpi(opt, [&](mpi::Proc& p) {
      if (spec.mode == ProgramMode::kSplit) {
        core::CompositeParams params;
        params.basework = static_cast<double>(spec.basework_us) * 1e-6;
        params.extrawork = static_cast<double>(spec.delay_us) * 1e-6;
        params.repeats = spec.repeats;
        core::PropCtx ctx = core::PropCtx::from(p);
        core::run_split_communicator_program(ctx, params);
      } else {
        invoke_members(spec, p, cfg);
      }
      inject_coll_defect(spec, p);
    });
    res.fault_report = result.fault_report;
  } catch (const DeadlockError& e) {
    res.outcome = RunOutcome::kDeadlock;
    res.error = first_line(e.what());
  } catch (const HangError& e) {
    res.outcome = RunOutcome::kHang;
    res.error = first_line(e.what());
  } catch (const MpiError& e) {
    res.outcome = RunOutcome::kMpiError;
    res.error = first_line(e.what());
  } catch (const OmpError& e) {
    res.outcome = RunOutcome::kMpiError;
    res.error = first_line(e.what());
  } catch (const UsageError&) {
    throw;  // spec misuse (unknown property, bad params) is the caller's bug
  } catch (const std::exception& e) {
    res.unclassified = true;
    res.error = first_line(e.what());
  }
  return res;
}

CheckResult check_spec(const ProgramSpec& spec, const CheckOptions& options) {
  CheckResult res;
  res.spec = spec;
  auto violate = [&](Oracle o, std::string msg) {
    res.violations.push_back(Violation{o, std::move(msg)});
  };

  const auto& reg = gen::Registry::instance();
  const std::vector<RunOutcome> expected = expected_outcomes(spec);
  auto check_outcome = [&](const RunResult& r) {
    if (r.unclassified) {
      violate(Oracle::kOutcome, "unclassified exception escaped: " + r.error);
      return;
    }
    if (std::find(expected.begin(), expected.end(), r.outcome) ==
        expected.end()) {
      std::string want;
      for (const RunOutcome o : expected) {
        if (!want.empty()) want += "|";
        want += gen::to_string(o);
      }
      violate(Oracle::kOutcome, std::string("outcome ") +
                                    gen::to_string(r.outcome) +
                                    ", expected " + want +
                                    (r.error.empty() ? "" : " (" + r.error + ")"));
    }
  };
  auto ended = [](const RunResult& r) -> std::string {
    return r.unclassified ? "unclassified" : gen::to_string(r.outcome);
  };

  // --- crash/hang + determinism oracles -----------------------------------
  // The same spec runs twice in this process; the runs must agree on the
  // outcome and serialise byte-identical (possibly salvaged) traces.
  RunResult base = run_program(spec);
  res.outcome = base.outcome;
  check_outcome(base);
  const RunResult again = run_program(spec);
  if (ended(again) != ended(base)) {
    violate(Oracle::kDeterminism, "first run ended " + ended(base) +
                                      ", second run ended " + ended(again));
  } else if (!base.unclassified &&
             save_text(base.trace) != save_text(again.trace)) {
    violate(Oracle::kDeterminism,
            "the two runs' traces are not bit-identical");
  }

  // --- injected collective defect: must-detect oracle ---------------------
  // The remaining oracles assume a structurally sound program, so a spec
  // with an injected miscall is judged here and returns: the checker must
  // report the expected DefectKind from the salvaged trace, and both runs
  // must render identical defect reports.
  if (spec.coll_defect != SpecCollDefect::kNone) {
    const analyze::DefectKind want = defect_kind(spec.coll_defect);
    // Judges the first run only; the second is analysed just to compare
    // the rendered reports.
    auto defect_report = [&](const RunResult& r,
                             bool judge) -> std::optional<std::string> {
      if (r.unclassified) return std::nullopt;
      AnalyzerOptions lenient;
      lenient.disabled_patterns = options.disabled_patterns;
      lenient.lenient = true;  // salvaged traces end mid-operation
      try {
        const AnalysisResult dar = analyze::analyze(r.trace, lenient);
        const bool found =
            std::any_of(dar.defects.begin(), dar.defects.end(),
                        [&](const analyze::StructuralDefect& d) {
                          return d.kind == want;
                        });
        if (judge && !found) {
          violate(Oracle::kCollectiveCheck,
                  "injected " + std::string(to_string(spec.coll_defect)) +
                      " not reported (" + std::to_string(dar.defects.size()) +
                      " defects found)");
        }
        return report::render_defects(dar, r.trace);
      } catch (const std::exception& e) {
        if (judge) {
          violate(Oracle::kCollectiveCheck,
                  "analysis of the salvaged trace threw: " +
                      first_line(e.what()));
        }
        return std::nullopt;
      }
    };
    const auto first_report = defect_report(base, true);
    const auto second_report = defect_report(again, false);
    if (first_report && second_report && *first_report != *second_report) {
      violate(Oracle::kDeterminism, "the two runs' defect reports differ");
    }
    return res;
  }

  if (base.outcome != RunOutcome::kOk || base.unclassified) return res;
  const std::string pristine = save_text(base.trace);

  // --- loader differential on the pristine bytes --------------------------
  {
    bool strict_ok = true;
    std::string strict_err;
    std::string strict_resave;
    try {
      std::istringstream in(pristine);
      strict_resave = save_text(trace::Trace::load(in));
    } catch (const TraceError& e) {
      strict_ok = false;
      strict_err = first_line(e.what());
    }
    std::istringstream in(pristine);
    const trace::LoadResult lr = trace::load_trace(in);
    if (!strict_ok) {
      violate(Oracle::kLoaderDifferential,
              "strict loader rejected a pristine trace: " + strict_err);
    } else if (strict_resave != pristine) {
      violate(Oracle::kLoaderDifferential,
              "strict round-trip is not byte-identical");
    }
    if (!lr.ok() || !lr.diagnostics.empty()) {
      violate(Oracle::kLoaderDifferential,
              "lenient loader diagnosed a pristine trace (" +
                  std::to_string(lr.records_dropped) + " dropped, " +
                  std::to_string(lr.diagnostics.size()) + " diagnostics)");
    } else if (save_text(lr.trace) != pristine) {
      violate(Oracle::kLoaderDifferential,
              "lenient round-trip is not byte-identical");
    }
  }

  // --- strict analysis of the pristine trace -----------------------------
  AnalyzerOptions aopts;
  aopts.disabled_patterns = options.disabled_patterns;
  std::optional<AnalysisResult> ar;
  try {
    ar = analyze::analyze(base.trace, aopts);
  } catch (const std::exception& e) {
    violate(Oracle::kOutcome,
            std::string("strict analysis threw on a pristine trace: ") +
                first_line(e.what()));
    return res;
  }
  if (!ar->quality.clean()) {
    violate(Oracle::kOutcome, "pristine trace replayed with anomalies: " +
                                  quality_summary(ar->quality));
  }
  // Zero false positives: a structurally sound program must produce no
  // structural collective defects (docs/DEFECTS.md).
  if (!ar->defects.empty()) {
    violate(Oracle::kCollectiveCheck,
            "sound program reported " + std::to_string(ar->defects.size()) +
                " structural defect(s): " +
                first_line(ar->defects.front().describe(base.trace)));
  }
  const std::string pristine_csv = report::severity_csv(*ar, base.trace);

  // --- diff self-consistency ---------------------------------------------
  // The metamorphic identity of the cross-run differ (docs/DIFF.md):
  // diff(run, same run) must be empty, both for a live snapshot and across
  // the severity-CSV serialisation round-trip — if either fails, the diff
  // layer (not the analysis) manufactured a phantom regression.
  {
    const diff::Snapshot snap = diff::Snapshot::from_result(*ar, base.trace);
    if (!diff::diff_snapshots(snap, snap).empty()) {
      violate(Oracle::kDiffSelf, "diff(run, same run) is not empty");
    }
    const diff::Snapshot parsed =
        diff::Snapshot::from_severity_csv(pristine_csv);
    if (!diff::diff_snapshots(snap, parsed).empty()) {
      violate(Oracle::kDiffSelf,
              "snapshot differs from its own severity-CSV round-trip");
    }
  }

  // --- format differential -----------------------------------------------
  // The binary container (TRACE_FORMAT.md §7) must be a lossless twin of
  // the text one: binary writer + zero-copy loader, re-serialised as text,
  // reproduces the pristine bytes, and the analysis of the binary-loaded
  // trace matches the pristine severity profile exactly.
  {
    std::ostringstream bos;
    base.trace.save_binary(bos);
    try {
      const trace::LoadResult br = trace::load_trace_binary(
          std::make_shared<const std::string>(bos.str()));
      if (!br.ok() || !br.diagnostics.empty()) {
        violate(Oracle::kFormatDifferential,
                "binary loader diagnosed a pristine trace (" +
                    std::to_string(br.records_dropped) + " dropped, " +
                    std::to_string(br.diagnostics.size()) + " diagnostics)");
      } else if (save_text(br.trace) != pristine) {
        violate(Oracle::kFormatDifferential,
                "binary -> text re-serialisation is not byte-identical");
      } else if (report::severity_csv(analyze::analyze(br.trace, aopts),
                                      br.trace) != pristine_csv) {
        violate(Oracle::kFormatDifferential,
                "analysis of the binary-loaded trace differs from the "
                "text-pipeline result");
      }
    } catch (const std::exception& e) {
      violate(Oracle::kFormatDifferential,
              std::string("binary round-trip threw: ") +
                  first_line(e.what()));
    }
  }

  // --- mask-permutation oracle -------------------------------------------
  {
    Rng mr = SplitSeed(spec.seed).child("mask").rng();
    const std::vector<PropertyId> ws = waitstate_properties();
    const std::size_t k = 2 + mr.next_below(3);
    std::vector<PropertyId> chosen;
    while (chosen.size() < k) {
      const PropertyId p = ws[mr.next_below(ws.size())];
      if (std::find(chosen.begin(), chosen.end(), p) == chosen.end()) {
        chosen.push_back(p);
      }
    }
    AnalyzerOptions fwd = aopts;
    AnalyzerOptions rev = aopts;
    fwd.disabled_patterns.insert(fwd.disabled_patterns.end(), chosen.begin(),
                                 chosen.end());
    rev.disabled_patterns.insert(rev.disabled_patterns.end(), chosen.rbegin(),
                                 chosen.rend());
    const AnalysisResult fa = analyze::analyze(base.trace, fwd);
    const AnalysisResult ra = analyze::analyze(base.trace, rev);
    if (report::severity_csv(fa, base.trace) !=
        report::severity_csv(ra, base.trace)) {
      violate(Oracle::kMaskPermutation,
              "disabled-pattern order changed surviving severities");
    }
  }

  // --- detection / negative / monotone (single-property specs) -----------
  if (spec.mode == ProgramMode::kSingle) {
    const gen::PropertyDef& def = reg.find(spec.property);
    if (spec.negative) {
      const auto dom = ar->dominant();
      if (dom && dom->fraction >= kQuietFraction) {
        violate(Oracle::kNegativeQuiet,
                std::string("negative spec dominated by ") +
                    analyze::property_name(dom->prop) + " at " +
                    fmt_percent(dom->fraction));
      }
    } else if (def.expected.has_value()) {
      // Deliberately NOT excluding options.disabled_patterns: an injected
      // analyzer defect (--defect) must surface as detection violations
      // here — the paper's suite-fails-a-broken-tool property, at fuzz
      // scale.
      const double frac = ar->severity_fraction(*def.expected);
      if (frac <= kQuietFraction) {
        violate(Oracle::kDetection,
                std::string(analyze::property_name(*def.expected)) +
                    " at " + fmt_percent(frac) + " (threshold " +
                    fmt_percent(kQuietFraction) + ")");
      }
      if (has_delay_knob(def) && spec.rank_fault == SpecRankFault::kNone) {
        ProgramSpec doubled = spec;
        doubled.delay_us *= 2;
        const RunResult more = run_program(doubled);
        if (more.outcome != RunOutcome::kOk || more.unclassified) {
          violate(Oracle::kMonotone,
                  std::string("doubled-delay variant ended ") +
                      gen::to_string(more.outcome));
        } else {
          const AnalysisResult ar2 = analyze::analyze(more.trace, aopts);
          const VDur s1 = ar->cube.subtree_total(*def.expected);
          const VDur s2 = ar2.cube.subtree_total(*def.expected);
          // Slack absorbs constant-cost effects (collective stages, eager
          // overheads) that do not scale with the delay.
          const VDur slack = longer(VDur::millis(1), s1 * 0.05);
          if (s2 + slack < s1) {
            violate(Oracle::kMonotone,
                    std::string(analyze::property_name(*def.expected)) +
                        " fell from " + s1.str() + " to " + s2.str() +
                        " when the delay doubled");
          }
          // kDiffMonotone: when the doubled delay grew the severity far
          // beyond any noise floor, the cross-run diff must report a
          // regression and attribute it inside the expected property's
          // subtree family — an attribution elsewhere means the differ
          // blames the wrong property for an injected slowdown.
          if (s2 > s1 + longer(VDur::millis(10), s1 * 0.5)) {
            const diff::DiffResult dd = diff::diff_snapshots(
                diff::Snapshot::from_result(*ar, base.trace),
                diff::Snapshot::from_result(ar2, more.trace));
            if (!dd.regression()) {
              violate(Oracle::kDiffMonotone,
                      std::string(analyze::property_name(*def.expected)) +
                          " grew from " + s1.str() + " to " + s2.str() +
                          " but the diff reports no regression");
            } else if (dd.attribution.empty() ||
                       !in_attribution_family(dd.attribution,
                                              *def.expected)) {
              violate(Oracle::kDiffMonotone,
                      "injected " +
                          std::string(
                              analyze::property_name(*def.expected)) +
                          " delay attributed to '" + dd.attribution + "'");
            }
          }
        }
      }
    }
  }

  // --- corruption invariants ---------------------------------------------
  if (spec.trace_fault != SpecTraceFault::kNone) {
    const std::uint64_t fseed =
        SplitSeed(spec.seed).child("trace-faults").value();
    faults::FaultInjector injector(fault_config_for(spec.trace_fault, fseed));
    if (is_record_level(spec.trace_fault)) {
      std::string text = pristine;
      if (spec.trace_fault == SpecTraceFault::kMixed) {
        // Mixed = the full random_config blend: event level first, then
        // record level on the serialised result.
        try {
          text = save_text(injector.apply(base.trace));
        } catch (const std::exception& e) {
          violate(Oracle::kCorruptionInvariant,
                  std::string("event-level injection threw: ") +
                      first_line(e.what()));
          return res;
        }
      }
      const std::string corrupted = injector.corrupt_text(text);
      // Strict and lenient must agree on whether the bytes are pristine.
      bool strict_ok = true;
      try {
        std::istringstream in(corrupted);
        (void)trace::Trace::load(in);
      } catch (const TraceError&) {
        strict_ok = false;
      } catch (const std::exception& e) {
        violate(Oracle::kCorruptionInvariant,
                std::string("strict loader threw a non-TraceError: ") +
                    first_line(e.what()));
        return res;
      }
      std::istringstream in(corrupted);
      const trace::LoadResult lr = trace::load_trace(in);
      if (strict_ok != lr.ok()) {
        violate(Oracle::kLoaderDifferential,
                std::string("on corrupted bytes: strict ") +
                    (strict_ok ? "accepts" : "rejects") + ", lenient " +
                    (lr.ok() ? "accepts" : "rejects"));
      }
      try {
        AnalyzerOptions lenient = aopts;
        lenient.lenient = true;
        (void)analyze::analyze(lr.trace, lenient);
      } catch (const std::exception& e) {
        violate(Oracle::kCorruptionInvariant,
                std::string("lenient analysis threw on a corrupted load: ") +
                    first_line(e.what()));
      }
    } else {
      trace::Trace corrupted;
      try {
        corrupted = injector.apply(base.trace);
      } catch (const std::exception& e) {
        violate(Oracle::kCorruptionInvariant,
                std::string("event-level injection threw: ") +
                    first_line(e.what()));
        return res;
      }
      std::optional<AnalysisResult> car;
      try {
        AnalyzerOptions lenient = aopts;
        lenient.lenient = true;
        car = analyze::analyze(corrupted, lenient);
      } catch (const std::exception& e) {
        violate(Oracle::kCorruptionInvariant,
                std::string("lenient analysis threw on a corrupted trace: ") +
                    first_line(e.what()));
        return res;
      }
      if (car->quality.events_seen != corrupted.event_count()) {
        violate(Oracle::kCorruptionInvariant,
                "events_seen " + std::to_string(car->quality.events_seen) +
                    " != corrupted event count " +
                    std::to_string(corrupted.event_count()));
      }
      // The "never silently wrong" check, for duplications only: a
      // duplicated event always breaks region balance, message matching,
      // or collective grouping, so a clean DataQuality plus a changed
      // severity cube means the analyzer swallowed the damage.  Drops and
      // retimings are exempt — a trace minus a balanced region pair (or
      // with self-consistent shifted clocks) is indistinguishable from a
      // real run by construction (DESIGN.md §10).
      if (spec.trace_fault == SpecTraceFault::kDuplicate &&
          injector.report().total() > 0 && car->quality.clean() &&
          report::severity_csv(*car, corrupted) != pristine_csv) {
        violate(Oracle::kCorruptionInvariant,
                "duplicated events changed severities without any "
                "DataQuality anomaly");
      }
    }
  }
  return res;
}

}  // namespace ats::proptest
