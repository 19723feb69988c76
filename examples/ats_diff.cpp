// ats_diff — cross-run differential analysis (docs/DIFF.md).
//
//   $ ./ats_diff run_a.atstrace run_b.atstrace
//   $ ./ats_diff baseline.expected fresh.expected
//   $ ./ats_diff --corpus tests/golden fresh-golden --csv report.csv
//
// Compares two analysis results — given as ATS traces (analyzed on the
// fly) or as severity CSVs (e.g. checked-in goldens) — or two whole golden
// corpus directories.  Differences are thresholded by absolute + relative
// noise floors, so only semantic movement is reported: which cells moved,
// by how much, and which property the regression attributes to.  Exit code
// 9 (diff_regression) signals any above-threshold delta; byte differences
// below the floors exit 0.
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analyzer/analyzer.hpp"
#include "common/strutil.hpp"
#include "diff/diff.hpp"
#include "gen/registry.hpp"
#include "trace/trace_binary.hpp"

namespace {

constexpr const char* kUsage =
    "usage: ats_diff [options] <a> <b>\n"
    "       ats_diff [options] --corpus <dir-a> <dir-b>\n"
    "\n"
    "Compares two analysis results and reports above-threshold severity\n"
    "deltas, call-path cell changes and structural-defect set changes\n"
    "(docs/DIFF.md).  <a>/<b> are ATS trace files (analyzed on the fly)\n"
    "or severity CSV files (the golden `.expected` format); --corpus\n"
    "compares two golden-corpus directories entry by entry.\n"
    "\n"
    "  --abs-floor <sec>   absolute noise floor in seconds (default 1e-9)\n"
    "  --rel-floor <frac>  relative noise floor as a fraction (default 0.02)\n"
    "  --calibrate <dir>   widen the floors from repeated-run severity CSVs\n"
    "                      in <dir> (busy-work noise calibration)\n"
    "  --csv <out>         also write the cell deltas as CSV\n"
    "  --xml <out>         also write the diff as XML\n"
    "  --help              show this message\n";

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw ats::Error("cannot read " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

bool looks_like_severity_csv(const std::string& text) {
  return ats::starts_with(text, ats::kSeverityCsvHeader);
}

/// Loads one side: severity CSV as-is, anything else as an ATS trace that
/// is analyzed on the fly.
ats::diff::Snapshot load_side(const std::string& path) {
  using namespace ats;
  const std::string text = read_file(path);
  if (looks_like_severity_csv(text)) {
    diff::Snapshot s = diff::Snapshot::from_severity_csv(text);
    s.label = path;
    return s;
  }
  const trace::LoadResult loaded = trace::load_trace_auto_file(path, {});
  if (!loaded.header_ok) {
    throw Error(path + " is neither an ATS trace nor a severity CSV");
  }
  const auto result = analyze::analyze(loaded.trace);
  diff::Snapshot s = diff::Snapshot::from_result(result, loaded.trace);
  s.label = path;
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ats;
  diff::DiffOptions opt;
  bool corpus = false;
  std::string calibrate_dir;
  std::string csv_path;
  std::string xml_path;
  std::vector<std::string> inputs;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::cout << kUsage << "\n" << gen::exit_code_help();
      return gen::kExitOk;
    }
    if (arg == "--corpus") {
      corpus = true;
    } else if (arg == "--abs-floor" || arg == "--rel-floor" ||
               arg == "--calibrate" || arg == "--csv" || arg == "--xml") {
      if (i + 1 >= argc) {
        std::cerr << arg << " needs a value\n" << kUsage;
        return gen::kExitUsage;
      }
      const std::string val = argv[++i];
      if (arg == "--abs-floor" || arg == "--rel-floor") {
        const auto v = parse_finite(val);
        if (!v) {
          std::cerr << arg << ": bad number '" << val << "'\n";
          return gen::kExitUsage;
        }
        (arg == "--abs-floor" ? opt.abs_floor_sec : opt.rel_floor) = *v;
      } else if (arg == "--calibrate") {
        calibrate_dir = val;
      } else if (arg == "--csv") {
        csv_path = val;
      } else {
        xml_path = val;
      }
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "unknown option: " << arg << "\n" << kUsage;
      return gen::kExitUsage;
    } else {
      inputs.push_back(arg);
    }
  }
  if (inputs.size() != 2) {
    std::cerr << kUsage;
    return gen::kExitUsage;
  }
  try {
    if (!calibrate_dir.empty()) {
      // Every severity CSV in the calibration directory is one repeated
      // run of the same configuration; their spread widens the floors.
      std::vector<diff::Snapshot> repeats;
      namespace fs = std::filesystem;
      std::error_code ec;
      for (const auto& de : fs::directory_iterator(calibrate_dir, ec)) {
        if (!de.is_regular_file()) continue;
        const std::string text = read_file(de.path().string());
        if (looks_like_severity_csv(text)) {
          repeats.push_back(diff::Snapshot::from_severity_csv(text));
        }
      }
      if (ec) {
        std::cerr << "cannot read " << calibrate_dir << "\n";
        return gen::kExitFailure;
      }
      opt = diff::calibrate(repeats, opt);
      std::cout << "calibrated from " << repeats.size()
                << " runs: abs floor " << fmt_double(opt.abs_floor_sec, 9)
                << "s, rel floor " << fmt_percent(opt.rel_floor) << "\n";
    }
    if (corpus) {
      const diff::CorpusDiff cd =
          diff::diff_corpus(inputs[0], inputs[1], opt);
      std::cout << diff::render_corpus_text(cd, inputs[0], inputs[1]);
      if (!csv_path.empty()) {
        std::ofstream out(csv_path);
        if (!out) {
          std::cerr << "cannot open " << csv_path << " for writing\n";
          return gen::kExitFailure;
        }
        out << diff::corpus_csv(cd);
      }
      if (!xml_path.empty()) {
        std::ofstream out(xml_path);
        out << diff::corpus_xml(cd, inputs[0], inputs[1]);
      }
      return cd.clean() ? gen::kExitOk : gen::kExitDiffRegression;
    }
    const diff::Snapshot a = load_side(inputs[0]);
    const diff::Snapshot b = load_side(inputs[1]);
    const diff::DiffResult d = diff::diff_snapshots(a, b, opt);
    std::cout << diff::render_text(d, a.label, b.label);
    if (!csv_path.empty()) {
      std::ofstream out(csv_path);
      if (!out) {
        std::cerr << "cannot open " << csv_path << " for writing\n";
        return gen::kExitFailure;
      }
      out << diff::diff_csv(d);
    }
    if (!xml_path.empty()) {
      std::ofstream out(xml_path);
      out << diff::diff_xml(d, a.label, b.label);
    }
    return d.empty() ? gen::kExitOk : gen::kExitDiffRegression;
  } catch (const UsageError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return gen::kExitUsage;
  } catch (const Error& e) {
    std::cerr << "diff error: " << e.what() << "\n";
    return gen::kExitFailure;
  }
}
