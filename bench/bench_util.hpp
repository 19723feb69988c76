// Shared helpers for the figure/table reproduction benches.
#pragma once

#include <cstdio>
#include <ctime>
#include <string>
#include <thread>

#include "analyzer/analyzer.hpp"
#include "core/composite.hpp"
#include "gen/registry.hpp"
#include "report/cube_view.hpp"
#include "report/timeline.hpp"

namespace ats::benchutil {

inline void heading(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n\n");
}

/// Default run configuration used by the reproduction benches: the stock
/// cost model (realistic overheads), four-rank minimum.
inline gen::RunConfig default_config(int nprocs) {
  gen::RunConfig cfg;
  cfg.nprocs = nprocs;
  return cfg;
}

/// The "context" member every BENCH_*.json writer emits: cores, build
/// type, compiler, the source commit CMake recorded at configure time and
/// the UTC date, then `extra` (more ", \"key\": value" members).
inline std::string context_json(const std::string& extra = "") {
  const std::time_t t = std::time(nullptr);
  char date[32];
  std::strftime(date, sizeof date, "%Y-%m-%dT%H:%M:%SZ", std::gmtime(&t));
  return "\"context\": {\"cores\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"build_type\": \"" ATS_BUILD_TYPE "\", \"compiler\": \"" ATS_COMPILER
         "\", \"commit\": \"" ATS_COMMIT "\", \"date\": \"" +
         std::string(date) + "\"" + extra + "}";
}

}  // namespace ats::benchutil
