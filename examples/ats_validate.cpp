// ats_validate — check a saved ATS trace file against the on-disk
// contract (docs/TRACE_FORMAT.md) and report how much of it survives a
// lenient load plus a degradation-tolerant analysis.
//
//   ats_validate [--strict] <trace-file>
//   ats_validate --golden <dir> [--regen]
//
// The --golden mode maintains the golden-trace regression corpus
// (tests/golden/): one canonical trace plus its expected severity dump per
// registry property.  Without --regen it re-simulates every property and
// compares both artifacts byte-for-byte — any drift in the simulator, the
// trace format, or the analyzer fails the check.
//
// The sweep also covers the defect program family (docs/DEFECTS.md): each
// entry's salvaged trace and rendered structural-defect report are pinned
// as <name>.trace / <name>.defects, and the report must cite the entry's
// declared DefectKind — a registry-level must-detect check on every run.
//
// Exit codes:
//   0  the file is pristine / the golden corpus matches;
//   1  the file is damaged but recoverable, or the corpus drifted;
//   2  the file is unreadable (missing, bad header, or --strict rejected it).
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "analyzer/analyzer.hpp"
#include "gen/registry.hpp"
#include "report/cube_view.hpp"
#include "trace/trace_binary.hpp"
#include "trace/trace_io.hpp"

namespace {

constexpr const char* kUsage =
    "usage: ats_validate [--strict] <trace-file>\n"
    "       ats_validate --golden <dir> [--regen]\n"
    "\n"
    "Validates a serialised ATS trace against docs/TRACE_FORMAT.md; the\n"
    "text and binary (§7) containers are detected by their magic bytes.\n"
    "\n"
    "  --strict   stop at the first malformed record instead of recovering\n"
    "  --golden   check (or with --regen, rewrite) the golden-trace corpus\n"
    "  --regen    regenerate the golden corpus instead of checking it\n"
    "  --help     show this message\n"
    "\n"
    "exit status: 0 pristine/matching, 1 recovered or drifted, 2 unreadable\n";

using namespace ats;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// The canonical run for one golden entry: positive parameters, default
/// cost models and engine seed, four ranks unless the property needs more.
trace::Trace golden_trace(const gen::PropertyDef& def) {
  gen::RunConfig cfg;
  cfg.nprocs = std::max(def.min_procs, 4);
  return gen::run_single_property(def, def.positive, cfg);
}

/// One golden artifact: regenerate or compare against the pinned bytes.
void pin_or_check(const std::string& path, const std::string& bytes,
                  const std::string& name, const char* what, bool regen,
                  std::size_t& drifted) {
  if (regen) {
    std::ofstream(path, std::ios::binary) << bytes;
    std::cout << "wrote " << path << "\n";
    return;
  }
  if (read_file(path) != bytes) {
    std::cout << "DRIFT " << name << ": " << what << " differs from " << path
              << "\n";
    ++drifted;
  }
}

int run_golden(const std::string& dir, bool regen) {
  const auto& reg = gen::Registry::instance();
  std::size_t drifted = 0;
  if (regen) std::filesystem::create_directories(dir);
  for (const std::string& name : reg.names()) {
    const gen::PropertyDef& def = reg.find(name);
    const trace::Trace tr = golden_trace(def);
    std::ostringstream trace_os;
    tr.save(trace_os);
    const analyze::AnalysisResult result = analyze::analyze(tr);
    const std::string expected = report::severity_csv(result, tr);

    pin_or_check(dir + "/" + name + ".trace", trace_os.str(), name, "trace",
                 regen, drifted);
    pin_or_check(dir + "/" + name + ".expected", expected, name, "analysis",
                 regen, drifted);
  }

  // Defect program family: the run fails by design, so the salvaged trace
  // and the structural-defect report are the pinned artifacts.  The report
  // must cite the declared kind even in --regen mode: a regeneration that
  // silently pins a missed detection would defeat the sweep.
  std::size_t missed = 0;
  for (const std::string& name : reg.defect_names()) {
    const gen::PropertyDef& def = reg.find(name);
    gen::RunConfig cfg;
    cfg.nprocs = std::max(def.min_procs, 4);
    cfg.engine.virtual_time_limit = VDur::seconds(120.0);
    cfg.engine.yield_limit = 2'000'000;
    const gen::SalvagedRun run =
        gen::run_single_property_salvaged(def, def.positive, cfg);
    if (run.outcome != def.expected_outcome) {
      std::cout << "MISS " << name << ": run ended "
                << gen::to_string(run.outcome) << ", registry declares "
                << gen::to_string(def.expected_outcome) << "\n";
      ++missed;
      continue;
    }
    analyze::AnalyzerOptions aopt;
    aopt.lenient = true;  // salvaged traces end mid-operation
    const analyze::AnalysisResult result = analyze::analyze(run.trace, aopt);
    const bool found = std::any_of(
        result.defects.begin(), result.defects.end(),
        [&](const analyze::StructuralDefect& d) {
          return d.kind == *def.expected_defect;
        });
    if (!found) {
      std::cout << "MISS " << name << ": checker did not report "
                << analyze::to_string(*def.expected_defect) << " ("
                << result.defects.size() << " defects found)\n";
      ++missed;
      continue;
    }
    std::ostringstream trace_os;
    run.trace.save(trace_os);
    pin_or_check(dir + "/" + name + ".trace", trace_os.str(), name, "trace",
                 regen, drifted);
    pin_or_check(dir + "/" + name + ".defects",
                 report::render_defects(result, run.trace), name,
                 "defect report", regen, drifted);
  }

  if (!regen) {
    std::cout << reg.names().size() + reg.defect_names().size()
              << " golden entries, " << drifted << " drifted, " << missed
              << " missed detections\n";
  }
  return drifted == 0 && missed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool strict = false;
  bool golden = false;
  bool regen = false;
  std::string path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::cout << kUsage;
      return 0;
    }
    if (arg == "--strict") {
      strict = true;
    } else if (arg == "--golden") {
      golden = true;
    } else if (arg == "--regen") {
      regen = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "unknown option: " << arg << "\n" << kUsage;
      return 2;
    } else if (path.empty()) {
      path = arg;
    } else {
      std::cerr << "unexpected argument: " << arg << "\n" << kUsage;
      return 2;
    }
  }
  if (path.empty() || (regen && !golden)) {
    std::cerr << kUsage;
    return 2;
  }

  if (golden) {
    try {
      return run_golden(path, regen);
    } catch (const ats::Error& e) {
      std::cerr << "ats_validate: " << e.what() << "\n";
      return 2;
    }
  }

  {
    std::ifstream probe(path, std::ios::binary);
    if (!probe) {
      std::cerr << "ats_validate: cannot open " << path << "\n";
      return 2;
    }
  }

  // The container (text, or binary per TRACE_FORMAT.md §7) is detected
  // from the magic bytes; both loaders share LoadOptions/ParseDiagnostic.
  trace::LoadOptions opt;
  opt.strict = strict;
  trace::LoadResult loaded;
  try {
    loaded = trace::load_trace_auto_file(path, opt);
  } catch (const ats::Error& e) {
    std::cerr << "ats_validate: " << e.what() << "\n";
    return 2;
  }
  if (!loaded.header_ok) {
    std::cerr << "ats_validate: " << path << " is not an ATS trace";
    if (!loaded.diagnostics.empty()) {
      std::cerr << " (" << loaded.diagnostics.front().str() << ")";
    }
    std::cerr << "\n";
    return 2;
  }

  std::cout << path << ": " << loaded.records_ok << " records ok, "
            << loaded.records_dropped << " dropped\n";
  for (const auto& d : loaded.diagnostics) {
    std::cout << "  " << d.str() << "\n";
  }
  if (loaded.records_dropped > loaded.diagnostics.size()) {
    std::cout << "  ... ("
              << (loaded.records_dropped - loaded.diagnostics.size())
              << " further diagnostics suppressed)\n";
  }

  analyze::AnalyzerOptions aopt;
  aopt.lenient = true;
  const analyze::AnalysisResult result =
      analyze::analyze(loaded.trace, aopt);
  std::cout << "\n" << report::render_data_quality(result);

  const bool pristine = loaded.ok() && result.quality.clean();
  return pristine ? 0 : 1;
}
