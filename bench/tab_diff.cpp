// TAB-DIFF: cost and fidelity of the cross-run differ (docs/DIFF.md).
//
// Three phases, each timed and self-checked.  The runs are simulated and
// analyzed once, outside the timed loops, at kRanks ranks:
//
//   snapshot    build the diffable Snapshot of a late_sender analysis and
//               write its severity CSV — checks the CSV parses back to a
//               snapshot that diffs empty and re-serialises identically,
//   corpus      self-diff the golden corpus directory — checks the result
//               is clean (the CI golden-diff job's hot path),
//   regression  diff that snapshot against one of a run with +20%
//               extrawork — checks the regression is detected and
//               attributed to exactly "late sender".
//
// Prints the table and writes BENCH_diff.json (a context block — cores,
// build type, compiler, commit, date — and one object per phase: wall
// seconds per repeat, cells/entries processed, plus the self-check
// verdicts) for the ctest smoke gate and for diffing across changes.
// Any failed self-check exits 1 so bench_diff_smoke goes red.
//
// Usage: tab_diff [--golden <dir>] [--out <path>] [--repeat <n>]

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "diff/diff.hpp"

namespace {

using namespace ats;
using Clock = std::chrono::steady_clock;

/// Large enough that the per-cell work, not the fixed cost, is timed.
constexpr int kRanks = 1024;

struct Phase {
  std::string name;
  double wall_s = 0.0;
  std::size_t items = 0;   ///< cells diffed / corpus entries compared
  bool check_ok = false;
  std::string check;       ///< what the self-check asserted
};

double secs_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The analysis of one late_sender run with its trace.
struct Analyzed {
  trace::Trace trace;
  analyze::AnalysisResult result;
};

Analyzed run_late_sender(double extrawork_scale) {
  const gen::PropertyDef& def =
      gen::Registry::instance().find("late_sender");
  gen::ParamMap params = def.positive;
  const double base = params.get_double("extrawork", 0.05);
  params.set("extrawork", std::to_string(base * extrawork_scale));
  trace::Trace tr = gen::run_single_property(
      def, params, benchutil::default_config(kRanks));
  analyze::AnalysisResult result = analyze::analyze(tr);
  return {std::move(tr), std::move(result)};
}

}  // namespace

int main(int argc, char** argv) {
  std::string golden_dir, out_path;
  int repeat = 10;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--golden") == 0 && i + 1 < argc) {
      golden_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--repeat") == 0 && i + 1 < argc) {
      repeat = std::max(1, std::atoi(argv[++i]));
    } else {
      std::fprintf(stderr,
                   "usage: tab_diff [--golden <dir>] [--out <path>] "
                   "[--repeat <n>]\n");
      return gen::kExitUsage;
    }
  }

  benchutil::heading("TAB-DIFF: cross-run differ cost and fidelity");
  std::vector<Phase> phases;

  const Analyzed base = run_late_sender(1.0);

  // -------------------------------------------------------- snapshot
  {
    Phase p;
    p.name = "snapshot";
    p.check = "severity-CSV round-trip diffs empty";
    diff::Snapshot snap;
    std::string csv;
    const auto t0 = Clock::now();
    for (int r = 0; r < repeat; ++r) {
      snap = diff::Snapshot::from_result(base.result, base.trace);
      csv = snap.severity_csv();
    }
    p.wall_s = secs_since(t0) / repeat;
    const diff::Snapshot parsed = diff::Snapshot::from_severity_csv(csv);
    p.items = snap.cells.size();
    p.check_ok = diff::diff_snapshots(snap, parsed).empty() &&
                 parsed.severity_csv() == csv;
    phases.push_back(p);
  }

  // ---------------------------------------------------------- corpus
  if (!golden_dir.empty()) {
    Phase p;
    p.name = "corpus";
    p.check = "golden corpus self-diff is clean";
    const auto t0 = Clock::now();
    diff::CorpusDiff cd;
    for (int r = 0; r < repeat; ++r) {
      cd = diff::diff_corpus(golden_dir, golden_dir);
    }
    p.wall_s = secs_since(t0) / repeat;
    p.items = cd.entries_compared;
    p.check_ok = cd.clean() && cd.entries_compared > 0;
    phases.push_back(p);
  }

  // ------------------------------------------------------ regression
  {
    Phase p;
    p.name = "regression";
    p.check = "+20% extrawork attributed to 'late sender'";
    const Analyzed slower = run_late_sender(1.2);
    const diff::Snapshot sa =
        diff::Snapshot::from_result(base.result, base.trace);
    const diff::Snapshot sb =
        diff::Snapshot::from_result(slower.result, slower.trace);
    const auto t0 = Clock::now();
    diff::DiffResult d;
    for (int r = 0; r < repeat; ++r) {
      d = diff::diff_snapshots(sa, sb);
    }
    p.wall_s = secs_since(t0) / repeat;
    p.items = d.cells_compared;
    p.check_ok = d.regression() && d.attribution == "late sender";
    phases.push_back(p);
  }

  bool all_ok = true;
  std::printf("%-12s %12s %10s  %s\n", "phase", "wall_s", "items", "check");
  for (const Phase& p : phases) {
    all_ok = all_ok && p.check_ok;
    std::printf("%-12s %12.6f %10zu  [%s] %s\n", p.name.c_str(), p.wall_s,
                p.items, p.check_ok ? "ok" : "FAIL", p.check.c_str());
  }

  if (!out_path.empty()) {
    std::ofstream os(out_path);
    os << "{\n  \"table\": \"TAB-DIFF\",\n";
    os << "  "
       << benchutil::context_json(", \"ranks\": " + std::to_string(kRanks) +
                                  ", \"repeat\": " + std::to_string(repeat))
       << ",\n";
    os << "  \"phases\": [\n";
    for (std::size_t i = 0; i < phases.size(); ++i) {
      const Phase& p = phases[i];
      os << "    {\"phase\": \"" << p.name << "\", \"wall_s\": " << p.wall_s
         << ", \"items\": " << p.items
         << ", \"check_ok\": " << (p.check_ok ? "true" : "false")
         << ", \"check\": \"" << p.check << "\"}"
         << (i + 1 < phases.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
    std::printf("\nwrote %s\n", out_path.c_str());
  }

  return all_ok ? gen::kExitOk : gen::kExitFailure;
}
