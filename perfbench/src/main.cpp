// perfbench: end-to-end and per-layer benchmark of the ATS pipeline.
//
//   perfbench --workload <sweep|large_trace|service> --seed <n>
//             --seconds <s> --trace <0|1> [--commit <id>] [--tree <hash>]
//
// Prints an info line with the run's context (cores, build type,
// compiler, commit, seed), then -- as the last line of standard output --
// one JSON object {"correct", "attempted", "failed", "metrics"}.  With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 the run
// measures half its time untraced and half traced, prints the stage table
// and reports the per-layer metrics.  perfbench/README.md describes the
// workloads.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "bench.hpp"

namespace {

using perfbench::MetricDef;
using perfbench::Options;
using perfbench::RunResult;

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<sweep|large_trace|service> --seed <n> --seconds <s> "
               "--trace <0|1> [--commit <id>] [--tree <hash>]\n",
               msg);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0' || v.empty()) usage("--seed takes an integer");
      have_seed = true;
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(o.seconds > 0)) usage("--seconds must be > 0");
    } else if (a == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      o.trace = v == "1";
    } else if (a == "--commit") {
      o.commit = v;
    } else if (a == "--tree") {
      o.tree = v;
    } else {
      usage(("unknown option " + a).c_str());
    }
  }
  if (o.workload.empty() || !have_seed) usage("--workload and --seed are required");
  return o;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_metrics(const RunResult& r, const std::vector<MetricDef>& defs) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.failed == 0 && r.checks_ok && r.attempted > 0 ? "true"
                                                              : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < defs.size(); ++i) {
    const auto it = r.metrics.find(defs[i].name);
    const double v = it == r.metrics.end() ? 0.0 : it->second;
    std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}", i ? ", " : "",
                defs[i].name, json_number(v).c_str(), defs[i].unit);
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
#ifndef __OPTIMIZE__
  std::fprintf(stderr,
               "perfbench: refusing to report from an unoptimised build (%s); "
               "configure with -DCMAKE_BUILD_TYPE=Release\n",
               PERFBENCH_BUILD_TYPE);
  return 3;
#endif
  std::printf("{\"context\": {\"workload\": \"%s\", \"seed\": %llu, "
              "\"seconds\": %s, \"trace\": %d, \"cores\": %u, "
              "\"build_type\": \"%s\", \"compiler\": \"%s\", "
              "\"commit\": \"%s\", \"tree\": \"%s\"}}\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              json_number(opt.seconds).c_str(), opt.trace ? 1 : 0,
              std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
              PERFBENCH_COMPILER, opt.commit.c_str(), opt.tree.c_str());
  std::fflush(stdout);

  RunResult r;
  try {
    if (opt.workload == "sweep") {
      r = perfbench::run_sweep_workload(opt);
    } else if (opt.workload == "large_trace") {
      r = perfbench::run_large_trace_workload(opt);
    } else if (opt.workload == "service") {
      r = perfbench::run_service_workload(opt);
    } else {
      usage(("unknown workload " + opt.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  std::printf("{\"info\": {");
  bool first = true;
  for (const auto& [k, v] : r.info) {
    std::printf("%s\"%s\": %s", first ? "" : ", ", k.c_str(), v.c_str());
    first = false;
  }
  std::printf("}}\n");
  print_metrics(r, opt.trace ? perfbench::per_layer_defs()
                             : perfbench::end_to_end_defs());
  return 0;
}
