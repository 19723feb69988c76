#include "proptest/progspec.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/strutil.hpp"

namespace ats::proptest {

namespace {

/// Microseconds -> exact decimal seconds ("0.050000"); round-trips through
/// ParamMap::get_double without loss at the resolutions the specs use.
std::string us_to_sec(std::int64_t us) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%lld.%06lld",
                static_cast<long long>(us / 1'000'000),
                static_cast<long long>(us % 1'000'000));
  return buf;
}

bool has_param(const gen::PropertyDef& def, std::string_view name) {
  return std::any_of(def.params.begin(), def.params.end(),
                     [&](const gen::ParamSpec& p) { return p.name == name; });
}

/// Scalar delay-parameter names, in lookup order.  Each is the knob the
/// corresponding property function's severity grows with.
constexpr const char* kDelayParams[] = {"extrawork", "masterextra",
                                        "singlework", "serialwork",
                                        "holdwork"};

template <typename E>
E parse_enum(const std::string& s, std::initializer_list<E> all,
             const char* what) {
  for (const E e : all) {
    if (s == to_string(e)) return e;
  }
  throw UsageError(std::string("ats-repro: unknown ") + what + " '" + s + "'");
}

template <typename T>
T parse_number(const std::string& s, const char* key) {
  if (const auto v = parse_decimal<T>(s)) return *v;
  throw UsageError(std::string("ats-repro: bad integer for '") + key +
                   "': " + s);
}

}  // namespace

const char* to_string(ProgramMode m) {
  switch (m) {
    case ProgramMode::kSingle: return "single";
    case ProgramMode::kMix: return "mix";
    case ProgramMode::kSplit: return "split";
  }
  return "?";
}

const char* to_string(SpecRankFault f) {
  switch (f) {
    case SpecRankFault::kNone: return "none";
    case SpecRankFault::kCrash: return "crash";
    case SpecRankFault::kStall: return "stall";
    case SpecRankFault::kDropSends: return "drop-sends";
  }
  return "?";
}

const char* to_string(SpecTraceFault f) {
  switch (f) {
    case SpecTraceFault::kNone: return "none";
    case SpecTraceFault::kDrop: return "drop";
    case SpecTraceFault::kDuplicate: return "duplicate";
    case SpecTraceFault::kReorder: return "reorder";
    case SpecTraceFault::kClockSkew: return "clock-skew";
    case SpecTraceFault::kJitter: return "jitter";
    case SpecTraceFault::kRecord: return "record";
    case SpecTraceFault::kTruncate: return "truncate";
    case SpecTraceFault::kMixed: return "mixed";
  }
  return "?";
}

const char* to_string(SpecCollDefect d) {
  switch (d) {
    case SpecCollDefect::kNone: return "none";
    case SpecCollDefect::kOpMismatch: return "op-mismatch";
    case SpecCollDefect::kMissingCall: return "missing-call";
    case SpecCollDefect::kRootMismatch: return "root-mismatch";
    case SpecCollDefect::kReduceOpMismatch: return "reduce-op-mismatch";
    case SpecCollDefect::kSplitColor: return "split-color";
  }
  return "?";
}

analyze::DefectKind defect_kind(SpecCollDefect d) {
  switch (d) {
    case SpecCollDefect::kNone:
      break;
    case SpecCollDefect::kOpMismatch:
      return analyze::DefectKind::kOperationMismatch;
    case SpecCollDefect::kMissingCall:
      return analyze::DefectKind::kMissingCall;
    case SpecCollDefect::kRootMismatch:
      return analyze::DefectKind::kRootMismatch;
    case SpecCollDefect::kReduceOpMismatch:
      return analyze::DefectKind::kReduceOpMismatch;
    case SpecCollDefect::kSplitColor:
      return analyze::DefectKind::kMissingCall;
  }
  throw UsageError("defect_kind: spec has no injected collective defect");
}

// ---------------------------------------------------------- serialisation

std::string ProgramSpec::str() const {
  std::ostringstream os;
  os << "# ats-repro v1\n";
  os << "seed " << seed << "\n";
  os << "mode " << to_string(mode) << "\n";
  os << "property " << property << "\n";
  if (!mix.empty()) os << "mix " << join(mix, ",") << "\n";
  if (negative) os << "negative 1\n";
  os << "nprocs " << nprocs << "\n";
  os << "repeats " << repeats << "\n";
  os << "nthreads " << nthreads << "\n";
  os << "basework_us " << basework_us << "\n";
  os << "delay_us " << delay_us << "\n";
  if (rank_fault != SpecRankFault::kNone) {
    os << "rank_fault " << to_string(rank_fault) << "\n";
    os << "fault_rank " << fault_rank << "\n";
  }
  if (trace_fault != SpecTraceFault::kNone) {
    os << "trace_fault " << to_string(trace_fault) << "\n";
  }
  if (coll_defect != SpecCollDefect::kNone) {
    os << "coll_defect " << to_string(coll_defect) << "\n";
  }
  return os.str();
}

ProgramSpec ProgramSpec::parse(const std::string& text) {
  ProgramSpec s;
  s.mix.clear();
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    // Strip comments and surrounding whitespace.
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    const auto begin = line.find_first_not_of(" \t\r");
    if (begin == std::string::npos) continue;
    const auto end = line.find_last_not_of(" \t\r");
    line = line.substr(begin, end - begin + 1);

    const auto sp = line.find_first_of(" \t");
    if (sp == std::string::npos) {
      throw UsageError("ats-repro:" + std::to_string(lineno) +
                       ": expected 'key value', got '" + line + "'");
    }
    const std::string key = line.substr(0, sp);
    const auto vbegin = line.find_first_not_of(" \t", sp);
    const std::string value = line.substr(vbegin);

    if (key == "seed") {
      s.seed = parse_number<std::uint64_t>(value, "seed");
    } else if (key == "mode") {
      s.mode = parse_enum(value,
                          {ProgramMode::kSingle, ProgramMode::kMix,
                           ProgramMode::kSplit},
                          "mode");
    } else if (key == "property") {
      s.property = value;
    } else if (key == "mix") {
      s.mix = split(value, ',');
    } else if (key == "negative") {
      s.negative = value == "1" || value == "true";
    } else if (key == "nprocs") {
      s.nprocs = parse_number<int>(value, "nprocs");
    } else if (key == "repeats") {
      s.repeats = parse_number<int>(value, "repeats");
    } else if (key == "nthreads") {
      s.nthreads = parse_number<int>(value, "nthreads");
    } else if (key == "basework_us") {
      s.basework_us = parse_number<std::int64_t>(value, "basework_us");
    } else if (key == "delay_us") {
      s.delay_us = parse_number<std::int64_t>(value, "delay_us");
    } else if (key == "rank_fault") {
      s.rank_fault = parse_enum(value,
                                {SpecRankFault::kNone, SpecRankFault::kCrash,
                                 SpecRankFault::kStall,
                                 SpecRankFault::kDropSends},
                                "rank_fault");
    } else if (key == "fault_rank") {
      s.fault_rank = parse_number<int>(value, "fault_rank");
    } else if (key == "trace_fault") {
      s.trace_fault = parse_enum(
          value,
          {SpecTraceFault::kNone, SpecTraceFault::kDrop,
           SpecTraceFault::kDuplicate, SpecTraceFault::kReorder,
           SpecTraceFault::kClockSkew, SpecTraceFault::kJitter,
           SpecTraceFault::kRecord, SpecTraceFault::kTruncate,
           SpecTraceFault::kMixed},
          "trace_fault");
    } else if (key == "coll_defect") {
      s.coll_defect = parse_enum(
          value,
          {SpecCollDefect::kNone, SpecCollDefect::kOpMismatch,
           SpecCollDefect::kMissingCall, SpecCollDefect::kRootMismatch,
           SpecCollDefect::kReduceOpMismatch, SpecCollDefect::kSplitColor},
          "coll_defect");
    } else {
      throw UsageError("ats-repro:" + std::to_string(lineno) +
                       ": unknown key '" + key + "'");
    }
  }
  require(s.nprocs >= 1, "ats-repro: nprocs must be >= 1");
  require(s.repeats >= 1, "ats-repro: repeats must be >= 1");
  require(s.nthreads >= 1, "ats-repro: nthreads must be >= 1");
  require(s.basework_us >= 0 && s.delay_us >= 0,
          "ats-repro: work values must be non-negative");
  return s;
}

ProgramSpec ProgramSpec::load_file(const std::string& path) {
  std::ifstream in(path);
  require(in.good(), "ats-repro: cannot open '" + path + "'");
  std::ostringstream text;
  text << in.rdbuf();
  return parse(text.str());
}

void ProgramSpec::save_file(const std::string& path) const {
  std::ofstream out(path);
  require(out.good(), "ats-repro: cannot write '" + path + "'");
  out << str();
}

std::string ProgramSpec::summary() const {
  std::ostringstream os;
  os << "seed " << seed << " " << to_string(mode) << " "
     << (mode == ProgramMode::kSplit ? "split_communicators" : property);
  for (const auto& m : mix) os << "+" << m;
  if (negative) os << " (negative)";
  os << " np=" << nprocs << " r=" << repeats;
  if (rank_fault != SpecRankFault::kNone) {
    os << " rank_fault=" << to_string(rank_fault) << "@" << fault_rank;
  }
  if (trace_fault != SpecTraceFault::kNone) {
    os << " trace_fault=" << to_string(trace_fault);
  }
  if (coll_defect != SpecCollDefect::kNone) {
    os << " coll_defect=" << to_string(coll_defect);
  }
  return os.str();
}

int ProgramSpec::complexity() const {
  const auto& reg = gen::Registry::instance();
  int min_procs = 1;
  if (mode == ProgramMode::kSplit) {
    min_procs = 4;  // two halves, each running two-rank properties
  } else if (reg.contains(property)) {
    min_procs = reg.find(property).min_procs;
  }
  int c = 0;
  if (mode != ProgramMode::kSingle) ++c;
  c += static_cast<int>(mix.size());
  if (negative) ++c;
  if (nprocs > std::max(min_procs, 1)) ++c;
  if (repeats != 1) ++c;
  if (nthreads != 2) ++c;
  if (basework_us != 10'000) ++c;
  if (delay_us != 50'000) ++c;
  if (rank_fault != SpecRankFault::kNone) ++c;
  if (trace_fault != SpecTraceFault::kNone) ++c;
  if (coll_defect != SpecCollDefect::kNone) ++c;
  return c;
}

// -------------------------------------------------------------- generator

ProgramSpec random_spec(std::uint64_t seed) {
  const auto& reg = gen::Registry::instance();
  const std::vector<std::string> names = reg.names();
  const std::vector<std::string> patho = reg.pathological_names();

  Rng r = SplitSeed(seed).child("gen").rng();
  ProgramSpec s;
  s.seed = seed;
  s.repeats = static_cast<int>(1 + r.next_below(3));
  s.nthreads = static_cast<int>(2 + r.next_below(3));
  s.basework_us = static_cast<std::int64_t>(5'000 + r.next_below(15'001));
  s.delay_us = static_cast<std::int64_t>(30'000 + r.next_below(90'001));

  const double mode_roll = r.next_double();
  if (mode_roll < 0.60) {
    s.mode = ProgramMode::kSingle;
    if (r.next_double() < 0.08 && !patho.empty()) {
      // Pathological program: known *failure* instead of known property.
      s.property = patho[r.next_below(patho.size())];
      const auto& def = reg.find(s.property);
      s.nprocs = std::max(def.min_procs, 2);
      return s;  // faults on top of a declared failure would blur the oracle
    }
    s.property = names[r.next_below(names.size())];
    const auto& def = reg.find(s.property);
    s.negative = r.next_double() < 0.25;
    s.nprocs = def.min_procs +
               static_cast<int>(r.next_below(
                   static_cast<std::uint64_t>(std::max(1, 9 - def.min_procs))));
    const bool mpi_like = def.paradigm == gen::Paradigm::kMpi ||
                          def.paradigm == gen::Paradigm::kHybrid;
    if (!s.negative && mpi_like && r.next_double() < 0.12) {
      const double kind = r.next_double();
      s.rank_fault = kind < 0.34   ? SpecRankFault::kCrash
                     : kind < 0.67 ? SpecRankFault::kStall
                                   : SpecRankFault::kDropSends;
      s.fault_rank = static_cast<int>(
          r.next_below(static_cast<std::uint64_t>(s.nprocs)));
    }
  } else if (mode_roll < 0.80) {
    s.mode = ProgramMode::kMix;
    s.nprocs = static_cast<int>(2 + r.next_below(7));
    auto eligible = [&](const std::string& n) {
      return reg.find(n).min_procs <= s.nprocs;
    };
    std::vector<std::string> pool;
    for (const auto& n : names) {
      if (eligible(n)) pool.push_back(n);
    }
    s.property = pool[r.next_below(pool.size())];
    const std::size_t extra = 1 + r.next_below(3);
    for (std::size_t i = 0; i < extra; ++i) {
      const std::string& cand = pool[r.next_below(pool.size())];
      if (cand != s.property &&
          std::find(s.mix.begin(), s.mix.end(), cand) == s.mix.end()) {
        s.mix.push_back(cand);
      }
    }
  } else {
    s.mode = ProgramMode::kSplit;
    s.nprocs = static_cast<int>(4 + 2 * r.next_below(3));
    s.property = "late_sender";  // unused; kept valid for complexity()
  }

  if (r.next_double() < 0.30) {
    constexpr SpecTraceFault kClasses[] = {
        SpecTraceFault::kDrop,      SpecTraceFault::kDuplicate,
        SpecTraceFault::kReorder,   SpecTraceFault::kClockSkew,
        SpecTraceFault::kJitter,    SpecTraceFault::kRecord,
        SpecTraceFault::kTruncate,  SpecTraceFault::kMixed};
    s.trace_fault = kClasses[r.next_below(std::size(kClasses))];
  }
  return s;
}

ProgramSpec random_defect_spec(std::uint64_t seed) {
  const auto& reg = gen::Registry::instance();
  ProgramSpec s = random_spec(seed);

  Rng r = SplitSeed(seed).child("coll-defect").rng();
  constexpr SpecCollDefect kKinds[] = {
      SpecCollDefect::kOpMismatch, SpecCollDefect::kMissingCall,
      SpecCollDefect::kRootMismatch, SpecCollDefect::kReduceOpMismatch,
      SpecCollDefect::kSplitColor};
  s.coll_defect = kKinds[r.next_below(std::size(kKinds))];

  // The epilogue only runs if the program body completes, and the oracle
  // is sharpest when the injected miscall is the run's sole failure:
  // strip rank/trace faults and swap a pathological primary for a safe one.
  s.rank_fault = SpecRankFault::kNone;
  s.fault_rank = 0;
  s.trace_fault = SpecTraceFault::kNone;
  if (reg.contains(s.property) &&
      reg.find(s.property).expected_outcome != gen::RunOutcome::kOk) {
    const std::vector<std::string> names = reg.names();
    s.property = names[r.next_below(names.size())];
    s.nprocs = std::max(s.nprocs, reg.find(s.property).min_procs);
  }
  return s;
}

// ------------------------------------------------------------- parameters

std::string delay_param(const gen::PropertyDef& def) {
  for (const char* name : kDelayParams) {
    if (has_param(def, name)) return name;
  }
  return {};
}

bool has_delay_knob(const gen::PropertyDef& def) {
  return !delay_param(def).empty() || has_param(def, "df");
}

gen::ParamMap params_for(const gen::PropertyDef& def,
                         const ProgramSpec& spec) {
  // The canonical negative configuration is used verbatim: it encodes the
  // exact "well-tuned" variant (including e.g. nthreads=1 for lock
  // contention), which is what the negative oracle certifies.
  if (spec.negative) return def.negative;

  gen::ParamMap pm = def.positive;
  if (has_param(def, "r")) pm.set("r", std::to_string(spec.repeats));
  if (has_param(def, "nthreads")) {
    pm.set("nthreads", std::to_string(spec.nthreads));
  }
  if (has_param(def, "basework")) {
    pm.set("basework", us_to_sec(spec.basework_us));
  }
  if (has_param(def, "work")) pm.set("work", us_to_sec(spec.basework_us));
  const std::string dp = delay_param(def);
  if (!dp.empty()) {
    pm.set(dp, us_to_sec(spec.delay_us));
  } else if (has_param(def, "df")) {
    pm.set("df", "linear:low=" + us_to_sec(spec.basework_us) +
                     ",high=" + us_to_sec(spec.delay_us));
  }
  return pm;
}

}  // namespace ats::proptest
