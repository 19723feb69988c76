// ats_fuzz — the metamorphic fuzzing harness (DESIGN.md §10).
//
// Draws deterministic random composite programs from master seeds, runs
// each through the whole pipeline (simulate twice, serialise, reload,
// analyse, optionally corrupt), and checks the oracle
// relations of src/proptest/oracle.hpp.  Any violating spec is printed —
// and, with --shrink, minimised by delta debugging — as a self-contained
// `.ats-repro` file that `ats_fuzz --replay` re-executes exactly.
//
//   ats_fuzz --seeds 1000                  # fuzz seeds 1..1000
//   ats_fuzz --seeds 500 --out failures/   # save repros for violations
//   ats_fuzz --replay failures/seed-42.ats-repro --shrink
//   ats_fuzz --seeds 200 --defect late_sender   # must report violations
//   ats_fuzz --seeds 500 --inject-collectives   # miscalled collectives:
//                                               # the checker must catch all
//
// Exit codes: 0 no violations, 1 violations found, 2 usage error.
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "common/strutil.hpp"
#include "proptest/oracle.hpp"
#include "proptest/shrink.hpp"

namespace {

constexpr const char* kUsage =
    "usage: ats_fuzz [options]\n"
    "\n"
    "Fuzzes the ATS pipeline with randomized composite programs and\n"
    "metamorphic / determinism / differential / invariant oracles.\n"
    "\n"
    "  --seeds N       number of master seeds to fuzz (default 100)\n"
    "  --start S       first master seed (default 1)\n"
    "  --jobs N        worker threads (default: ATS_JOBS or hardware)\n"
    "  --replay FILE   check one .ats-repro spec instead of fuzzing\n"
    "  --shrink        delta-debug violating specs to minimal repros\n"
    "  --out DIR       write .ats-repro files for violations into DIR\n"
    "  --defect PROP   disable analyzer pattern PROP (self-test: the\n"
    "                  fuzzer must then report detection violations)\n"
    "  --inject-collectives\n"
    "                  append a random collective miscall to every spec;\n"
    "                  the structural checker must report each injected\n"
    "                  defect kind (docs/DEFECTS.md)\n"
    "  --help          show this message\n"
    "\n"
    "exit status: 0 no violations, 1 violations found, 2 usage error\n";

using namespace ats;

std::uint64_t parse_count(const std::string& s, const char* what) {
  try {
    std::size_t pos = 0;
    const long long v = std::stoll(s, &pos);
    if (pos != s.size() || v < 0) throw std::invalid_argument(s);
    return static_cast<std::uint64_t>(v);
  } catch (const std::exception&) {
    throw UsageError(std::string("ats_fuzz: bad value for ") + what + ": " + s);
  }
}

analyze::PropertyId parse_property(const std::string& name) {
  // Analyzer property names contain spaces ("late sender"); accept the
  // shell-friendly underscore spelling too.
  std::string spaced = name;
  std::replace(spaced.begin(), spaced.end(), '_', ' ');
  for (const analyze::PropertyId p : analyze::property_preorder()) {
    if (spaced == analyze::property_name(p)) return p;
  }
  throw UsageError("ats_fuzz: unknown analyzer property '" + name + "'");
}

/// Shrinks `spec` under "check_spec still reports a violation".
proptest::ShrinkOutcome shrink_violation(const proptest::ProgramSpec& spec,
                                         const proptest::CheckOptions& opts) {
  return proptest::shrink_spec(spec, [&](const proptest::ProgramSpec& c) {
    try {
      return !proptest::check_spec(c, opts).ok();
    } catch (const Error&) {
      // A candidate the pipeline rejects outright (e.g. a mix member
      // dropped below its min_procs) is not a simplification.
      return false;
    }
  });
}

void print_result(const proptest::CheckResult& r) {
  std::cout << "FAIL " << r.spec.summary() << "\n";
  for (const auto& v : r.violations) std::cout << "  " << v.str() << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seeds = 100;
  std::uint64_t start = 1;
  int jobs = 0;
  bool shrink = false;
  bool inject_collectives = false;
  std::string replay_path;
  std::string out_dir;
  proptest::CheckOptions copts;

  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw UsageError("ats_fuzz: " + arg + " needs a value");
        return argv[++i];
      };
      if (arg == "--help" || arg == "-h") {
        std::cout << kUsage;
        return 0;
      } else if (arg == "--seeds") {
        seeds = parse_count(value(), "--seeds");
      } else if (arg == "--start") {
        start = parse_count(value(), "--start");
      } else if (arg == "--jobs") {
        jobs = static_cast<int>(parse_count(value(), "--jobs"));
      } else if (arg == "--replay") {
        replay_path = value();
      } else if (arg == "--shrink") {
        shrink = true;
      } else if (arg == "--out") {
        out_dir = value();
      } else if (arg == "--defect") {
        copts.disabled_patterns.push_back(parse_property(value()));
      } else if (arg == "--inject-collectives") {
        inject_collectives = true;
      } else {
        throw UsageError("ats_fuzz: unknown option " + arg);
      }
    }
  } catch (const UsageError& e) {
    std::cerr << e.what() << "\n" << kUsage;
    return 2;
  }

  try {
    if (!replay_path.empty()) {
      const proptest::ProgramSpec spec =
          proptest::ProgramSpec::load_file(replay_path);
      const proptest::CheckResult r = proptest::check_spec(spec, copts);
      if (r.ok()) {
        std::cout << "ok " << spec.summary() << "\n";
        return 0;
      }
      print_result(r);
      if (shrink) {
        const proptest::ShrinkOutcome sh = shrink_violation(spec, copts);
        std::cout << "shrunk to complexity " << sh.spec.complexity() << " in "
                  << sh.evaluations << " evaluations:\n"
                  << sh.spec.str();
        if (!out_dir.empty()) {
          std::filesystem::create_directories(out_dir);
          const std::string path = out_dir + "/seed-" +
                                   std::to_string(sh.spec.seed) +
                                   ".ats-repro";
          sh.spec.save_file(path);
          std::cout << "wrote " << path << "\n";
        }
      }
      return 1;
    }

    // Fuzz mode: one slot per seed, filled in parallel, reported in order.
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<proptest::CheckResult> results(
        static_cast<std::size_t>(seeds));
    par::ThreadPool pool(jobs);
    pool.parallel_for(static_cast<std::size_t>(seeds), [&](std::size_t i) {
      const std::uint64_t seed = start + static_cast<std::uint64_t>(i);
      const proptest::ProgramSpec spec = inject_collectives
                                             ? proptest::random_defect_spec(seed)
                                             : proptest::random_spec(seed);
      results[i] = proptest::check_spec(spec, copts);
    });
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();

    std::size_t failures = 0;
    if (!out_dir.empty()) std::filesystem::create_directories(out_dir);
    for (const proptest::CheckResult& r : results) {
      if (r.ok()) continue;
      ++failures;
      print_result(r);
      proptest::ProgramSpec repro = r.spec;
      if (shrink) {
        const proptest::ShrinkOutcome sh = shrink_violation(r.spec, copts);
        repro = sh.spec;
        std::cout << "  shrunk to complexity " << repro.complexity() << " in "
                  << sh.evaluations << " evaluations\n";
      }
      if (!out_dir.empty()) {
        const std::string path =
            out_dir + "/seed-" + std::to_string(repro.seed) + ".ats-repro";
        repro.save_file(path);
        std::cout << "  wrote " << path << "\n";
      }
    }
    std::cout << seeds << " seeds, " << failures << " violating, "
              << fmt_double(elapsed, 1) << " s ("
              << fmt_double(elapsed > 0.0
                                ? static_cast<double>(seeds) / elapsed
                                : 0.0,
                            1)
              << " seeds/s)\n";
    return failures == 0 ? 0 : 1;
  } catch (const UsageError& e) {
    std::cerr << e.what() << "\n";
    return 2;
  } catch (const Error& e) {
    std::cerr << "ats_fuzz: " << e.what() << "\n";
    return 1;
  }
}
