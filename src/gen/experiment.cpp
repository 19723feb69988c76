#include "gen/experiment.hpp"

#include <sstream>

#include "common/strutil.hpp"

namespace ats::gen {

bool any_cell_failed(const std::vector<ExperimentRow>& rows) {
  for (const auto& r : rows) {
    if (r.outcome != RunOutcome::kOk) return true;
  }
  return false;
}

ExperimentRow run_experiment_cell(const ExperimentPlan& plan,
                                  const PropertyDef& def,
                                  const std::string& value) {
  ParamMap pm = plan.base;
  RunConfig cfg = plan.config;
  if (plan.axis.param == "np") {
    ParamMap tmp;
    tmp.set("np", value);
    cfg.nprocs = tmp.get_int("np", cfg.nprocs);
  } else {
    pm.set(plan.axis.param, value);
  }

  ExperimentRow row;
  row.value = value;
  row.dominant.assign(1, '-');
  // Plain UsageError (bad parameters, nprocs < min_procs) is plan misuse,
  // not a runtime fault: it propagates to the caller.
  SalvagedRun run = run_single_property_salvaged(def, pm, cfg);
  if (run.outcome != RunOutcome::kOk) {
    row.outcome = run.outcome;
    row.note = std::move(run.error);
    return row;
  }
  try {
    const auto result = analyze::analyze(run.trace, plan.analyzer);
    row.total_time = result.total_time;
    if (def.expected.has_value()) {
      row.severity = result.cube.total(*def.expected);
      row.fraction = result.total_time > VDur::zero()
                         ? row.severity / result.total_time
                         : 0.0;
    }
    const auto dom = result.dominant();
    row.dominant = dom ? analyze::property_name(dom->prop) : "-";
    row.detected =
        def.expected.has_value() && dom && dom->prop == *def.expected;
  } catch (const Error& e) {
    row.outcome = RunOutcome::kAnalysisError;
    row.note = first_line(e.what());
  }
  return row;
}

std::string experiment_csv(const ExperimentPlan& plan,
                           const std::vector<ExperimentRow>& rows) {
  // The outcome/attempts columns appear only when some cell failed, so a
  // clean sweep's CSV stays byte-identical to the historical format.
  const bool failed = any_cell_failed(rows);
  std::ostringstream os;
  os << plan.axis.param
     << ",severity_sec,fraction,detected,dominant,total_sec";
  if (failed) os << ",outcome,attempts";
  os << "\n";
  for (const auto& r : rows) {
    os << r.value << ',' << fmt_double(r.severity.sec(), 9) << ','
       << fmt_double(r.fraction, 6) << ',' << (r.detected ? 1 : 0) << ','
       << r.dominant << ',' << fmt_double(r.total_time.sec(), 9);
    if (failed) os << ',' << to_string(r.outcome) << ',' << r.attempts;
    os << "\n";
  }
  return os.str();
}

std::string experiment_table(const ExperimentPlan& plan,
                             const std::vector<ExperimentRow>& rows) {
  const bool failed = any_cell_failed(rows);
  std::ostringstream os;
  os << "sweep of '" << plan.property << "' over " << plan.axis.param
     << "\n";
  os << pad_right(plan.axis.param, 26) << pad_left("severity", 12)
     << pad_left("share", 8) << pad_left("detected", 10);
  if (failed) os << pad_left("outcome", 16);
  os << "  dominant\n" << repeat('-', failed ? 92 : 76) << "\n";
  for (const auto& r : rows) {
    os << pad_right(r.value, 26) << pad_left(r.severity.str(), 12)
       << pad_left(fmt_percent(r.fraction, 1), 8)
       << pad_left(r.detected ? "yes" : "no", 10);
    if (failed) os << pad_left(to_string(r.outcome), 16);
    os << "  " << r.dominant << "\n";
  }
  return os.str();
}

}  // namespace ats::gen
