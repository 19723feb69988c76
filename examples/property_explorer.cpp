// property_explorer — the generated single-property test-program driver
// (paper §3.2) as an interactive CLI.
//
//   property_explorer list
//   property_explorer describe late_broadcast
//   property_explorer run late_broadcast np=8 root=2 extrawork=0.1
//   property_explorer gen late_broadcast        # emit driver C++ source
//
// `run` executes the property as a complete simulated MPI program, prints
// the timeline, the analyzer's findings, and whether the expected property
// was detected — a one-command positive-correctness check.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/strutil.hpp"
#include "gen/experiment.hpp"
#include "gen/registry.hpp"
#include "gen/source_gen.hpp"
#include "report/cube_view.hpp"
#include "report/timeline.hpp"
#include "runner/supervisor.hpp"

namespace {

int usage() {
  std::cout <<
      "usage:\n"
      "  property_explorer list\n"
      "  property_explorer describe <property>\n"
      "  property_explorer run <property> [np=N] [key=value ...]\n"
      "  property_explorer gen <property>\n"
      "  property_explorer gen-all <directory>\n"
      "  property_explorer sweep <property> axis=<param> values=v1;v2;...\n"
      "                          [csv=1] [np=N] [key=value ...]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ats;
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  const auto& registry = gen::Registry::instance();

  try {
    if (cmd == "list") {
      for (const auto& def : registry.all()) {
        std::printf("%-32s [%s]  %s\n", def.name.c_str(),
                    gen::to_string(def.paradigm), def.brief.c_str());
      }
      return 0;
    }
    if (argc < 3) return usage();
    if (cmd == "gen-all") {
      // Emit one driver source per property function (paper §3.2's
      // generator applied to the whole catalog).
      const std::string dir = argv[2];
      for (const auto& d : registry.all()) {
        const std::string path = dir + "/" + d.name + "_driver.cpp";
        std::ofstream out(path);
        if (!out) {
          std::cerr << "cannot write " << path << "\n";
          return 1;
        }
        out << gen::generate_driver_source(d);
        std::cout << "wrote " << path << "\n";
      }
      return 0;
    }
    const gen::PropertyDef& def = registry.find(argv[2]);

    if (cmd == "describe") {
      std::cout << gen::describe_property(def);
      return 0;
    }
    if (cmd == "gen") {
      std::cout << gen::generate_driver_source(def);
      return 0;
    }
    if (cmd == "run") {
      std::vector<std::string> args(argv + 3, argv + argc);
      gen::ParamMap pm = gen::ParamMap::parse(args);
      gen::RunConfig cfg;
      cfg.nprocs = pm.get_int("np", std::max(def.min_procs, 4));
      gen::ParamMap prop_params;
      for (const std::string& k : pm.keys()) {
        if (k != "np") prop_params.set(k, pm.get_raw(k, ""));
      }
      const trace::Trace tr =
          gen::run_single_property(def, prop_params, cfg);
      std::cout << report::render_timeline(tr) << "\n";
      const auto result = analyze::analyze(tr);
      std::cout << report::render_findings(result, tr) << "\n";
      const auto dom = result.dominant();
      if (def.expected.has_value()) {
        const bool hit = dom && dom->prop == *def.expected;
        std::printf("expected property: %s — %s\n",
                    analyze::property_name(*def.expected),
                    hit ? "DETECTED" : "NOT DETECTED");
        return hit ? 0 : 1;
      }
      std::printf("negative test — %s\n",
                  dom ? "unexpected finding!" : "no findings, as intended");
      return dom ? 1 : 0;
    }
    if (cmd == "sweep") {
      std::vector<std::string> args(argv + 3, argv + argc);
      gen::ParamMap pm = gen::ParamMap::parse(args);
      gen::ExperimentPlan plan;
      plan.property = def.name;
      plan.axis.param = pm.get_raw("axis", "");
      for (const std::string& v :
           ats::split(pm.get_raw("values", ""), ';')) {
        if (!v.empty()) plan.axis.values.push_back(v);
      }
      plan.config.nprocs = pm.get_int("np", std::max(def.min_procs, 4));
      const bool csv = pm.get_int("csv", 0) != 0;
      for (const std::string& k : pm.keys()) {
        if (k != "axis" && k != "values" && k != "np" && k != "csv") {
          plan.base.set(k, pm.get_raw(k, ""));
        }
      }
      // Every budget zero: the plain, unsupervised sweep.
      const runner::SupervisedRunner sweep(
          {.virtual_time_limit = VDur::zero(), .yield_limit = 0});
      const auto rows = sweep.run_sweep(plan);
      std::cout << (csv ? gen::experiment_csv(plan, rows)
                        : gen::experiment_table(plan, rows));
      return 0;
    }
    return usage();
  } catch (const ats::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    // A bad parameter is a usage error; MpiError/OmpError, which derive
    // from UsageError, are run outcomes and stay generic failures here.
    const bool usage = dynamic_cast<const ats::UsageError*>(&e) != nullptr &&
                       !ats::gen::classify_run_failure(e);
    return usage ? ats::gen::kExitUsage : ats::gen::kExitFailure;
  }
}
