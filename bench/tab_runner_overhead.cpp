// TAB-RO — supervision overhead on clean sweeps.
//
// The SupervisedRunner promises that healthy experiments pay (next to)
// nothing for supervision: budgets are plain comparisons in the scheduler
// loop, classification is a try/catch that never fires, and the rows — and
// therefore the CSV bytes — are identical to the unsupervised path.  This
// table measures that claim: the same clean sweep through
// SupervisedRunner::run_sweep with every budget zero (the unsupervised
// baseline) and with the default budgets (with and without a journal),
// repeated in rounds.  The sweep takes ~20 ms in Release, long enough for
// a 2% difference to stand above timer and scheduler noise; within a round
// the baseline and the supervised run alternate which goes first, so
// neither always runs on the warmer cache; and each overhead is the median
// over rounds of the relative difference to the round's baseline.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "runner/supervisor.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

template <typename F>
double time_ms(F&& f) {
  const auto t0 = Clock::now();
  f();
  const auto t1 = Clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

}  // namespace

int main() {
  using namespace ats;
  benchutil::heading("TAB-RO: supervision overhead on a clean sweep");

  gen::ExperimentPlan plan;
  plan.property = "late_sender";
  plan.base.set("basework", "0.01");
  plan.base.set("r", "40");
  plan.axis = {"extrawork", {"0.01", "0.02", "0.03", "0.04", "0.05", "0.06",
                             "0.07", "0.08"}};
  plan.config.nprocs = 64;
  plan.jobs = 1;  // sequential: timing reflects per-cell cost, not pool luck

  const std::string journal =
      std::string("/tmp/ats_tab_runner_overhead_journal.tsv");
  std::remove(journal.c_str());

  runner::SupervisorOptions sup_opt;
  runner::SupervisorOptions jrn_opt;
  jrn_opt.journal_path = journal;
  const runner::SupervisedRunner unsupervised(
      {.virtual_time_limit = VDur::zero(), .yield_limit = 0});
  const runner::SupervisedRunner supervised(sup_opt);
  const runner::SupervisedRunner journaled(jrn_opt);

  // Byte-identity first: the overhead question is only meaningful if the
  // supervised rows are the same rows — journaled, and resumed from that
  // journal (every row parsed back from its line), too.
  runner::SupervisorOptions resume_opt = jrn_opt;
  resume_opt.resume = true;
  const auto csv = [&](const runner::SupervisedRunner& r) {
    return gen::experiment_csv(plan, r.run_sweep(plan));
  };
  const std::string plain_csv = csv(unsupervised);
  const bool identical = csv(supervised) == plain_csv &&
                         csv(journaled) == plain_csv &&
                         csv(runner::SupervisedRunner(resume_opt)) == plain_csv;

  constexpr int kReps = 61;
  std::vector<double> plain_ms, sup_ms, jrn_ms;
  const auto time_plain = [&] {
    plain_ms.push_back(time_ms([&] { unsupervised.run_sweep(plan); }));
  };
  const auto time_sup = [&] {
    sup_ms.push_back(time_ms([&] { supervised.run_sweep(plan); }));
  };
  for (int i = 0; i < kReps; ++i) {
    if (i % 2 == 0) {
      time_plain();
      time_sup();
    } else {
      time_sup();
      time_plain();
    }
    std::remove(journal.c_str());
    jrn_ms.push_back(time_ms([&] { journaled.run_sweep(plan); }));
  }
  std::remove(journal.c_str());

  // A round's runs are adjacent in time, so a slow spell of the host moves
  // both and cancels out of the round's relative difference.
  std::vector<double> sup_rel, jrn_rel;
  for (int i = 0; i < kReps; ++i) {
    const auto k = static_cast<std::size_t>(i);
    sup_rel.push_back(100.0 * (sup_ms[k] - plain_ms[k]) / plain_ms[k]);
    jrn_rel.push_back(100.0 * (jrn_ms[k] - plain_ms[k]) / plain_ms[k]);
  }
  const double plain = median(plain_ms);
  const double sup = median(sup_ms);
  const double jrn = median(jrn_ms);
  const double sup_ovh = median(sup_rel);
  const double jrn_ovh = median(jrn_rel);

  std::printf("%-34s %12s %12s\n", "configuration", "median ms", "overhead");
  std::printf("%s\n", std::string(60, '-').c_str());
  std::printf("%-34s %12.2f %12s\n", "no budgets (baseline)", plain, "-");
  std::printf("%-34s %12.2f %+11.2f%%\n", "SupervisedRunner, no journal",
              sup, sup_ovh);
  std::printf("%-34s %12.2f %+11.2f%%\n", "SupervisedRunner, journaling",
              jrn, jrn_ovh);
  std::printf(
      "\nclean-sweep CSV byte-identical under supervision (journaled, "
      "resumed): %s\n",
              identical ? "yes" : "NO");
  std::printf("supervision overhead (no journal): %.2f%% (budget: < 2%%)\n",
              sup_ovh);

  return (identical && sup_ovh < 2.0) ? 0 : 1;
}
