#include "runner/supervisor.hpp"

#include <algorithm>
#include <charconv>
#include <mutex>
#include <sstream>

#include "common/fsatomic.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/strutil.hpp"

namespace ats::runner {

namespace {

using gen::ExperimentPlan;
using gen::ExperimentRow;
using gen::PropertyDef;
using gen::RunOutcome;

/// Journal notes are free-form error text; flatten the separators the
/// journal itself uses.
std::string sanitize(std::string s) {
  for (char& c : s) {
    if (c == '\t' || c == '\n' || c == '\r') c = ' ';
  }
  return s;
}

/// Parses all of `s` as an integer: no sign on unsigned types, no
/// surrounding blanks, no trailing characters.
template <typename T>
bool parse_whole(const std::string& s, T* out, int base = 10) {
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, *out, base);
  return ec == std::errc() && ptr == end;
}

bool parse_outcome(const std::string& s, RunOutcome* out) {
  for (std::size_t i = 0; i < gen::kRunOutcomeCount; ++i) {
    const auto o = static_cast<RunOutcome>(i);
    if (s == gen::to_string(o)) {
      *out = o;
      return true;
    }
  }
  return false;
}

}  // namespace

/// One journal line per completed cell, keyed by the plan fingerprint so a
/// stale journal never pollutes a different sweep.  All numeric fields are
/// exact integers (virtual nanoseconds); `fraction` is re-derived on load
/// the same way the analyzer derives it, keeping resumed rows
/// bit-identical to freshly computed ones.
std::string format_journal_row(std::uint64_t fp, std::size_t index,
                               const ExperimentRow& r) {
  std::ostringstream os;
  os << std::hex << fp << std::dec << '\t' << index << '\t'
     << sanitize(r.value) << '\t' << r.severity.ns() << '\t'
     << (r.detected ? 1 : 0) << '\t' << sanitize(r.dominant) << '\t'
     << r.total_time.ns() << '\t' << gen::to_string(r.outcome) << '\t'
     << r.attempts << '\t' << sanitize(r.note);
  return os.str();
}

bool parse_journal_row(const std::string& line, std::uint64_t fp,
                       std::size_t* index, ExperimentRow* row) {
  const std::vector<std::string> f = split(line, '\t');
  if (f.size() != 10) return false;
  std::uint64_t key = 0;
  std::size_t idx = 0;
  std::int64_t severity_ns = 0, total_ns = 0;
  ExperimentRow r;
  if (!parse_whole(f[0], &key, 16) || key != fp || !parse_whole(f[1], &idx) ||
      !parse_whole(f[3], &severity_ns) || (f[4] != "0" && f[4] != "1") ||
      !parse_whole(f[6], &total_ns) || !parse_outcome(f[7], &r.outcome) ||
      !parse_whole(f[8], &r.attempts) || r.attempts < 1) {
    return false;
  }
  r.value = f[2];
  r.severity = VDur::nanos(severity_ns);
  r.detected = f[4] == "1";
  r.dominant = f[5];
  r.total_time = VDur::nanos(total_ns);
  r.note = f[9];
  r.fraction = r.total_time > VDur::zero() ? r.severity / r.total_time : 0.0;
  *index = idx;
  *row = std::move(r);
  return true;
}

namespace {

void hash_bytes(std::uint64_t* h, std::string_view bytes) {
  for (const char c : bytes) {
    *h ^= static_cast<unsigned char>(c);
    *h *= 0x100000001b3ULL;
  }
  *h ^= 0xff;  // field separator, so {"ab",""} != {"a","b"}
  *h *= 0x100000001b3ULL;
}

void hash_int(std::uint64_t* h, std::int64_t v) {
  hash_bytes(h, std::to_string(v));
}

void hash_double(std::uint64_t* h, double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  hash_bytes(h, os.str());
}

}  // namespace

std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t SupervisedRunner::plan_fingerprint(const ExperimentPlan& plan) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  hash_bytes(&h, plan.property);
  hash_bytes(&h, plan.axis.param);
  for (const auto& v : plan.axis.values) hash_bytes(&h, v);
  for (const auto& k : plan.base.keys()) {
    hash_bytes(&h, k);
    hash_bytes(&h, plan.base.get_raw(k, ""));
  }
  const auto& cfg = plan.config;
  hash_int(&h, cfg.nprocs);
  hash_int(&h, cfg.trace_enabled ? 1 : 0);
  hash_int(&h, static_cast<std::int64_t>(cfg.engine.seed));
  hash_int(&h, cfg.mpi_cost.p2p_latency.ns());
  hash_double(&h, cfg.mpi_cost.bandwidth_bytes_per_sec);
  hash_int(&h, static_cast<std::int64_t>(cfg.mpi_cost.eager_threshold));
  hash_int(&h, cfg.mpi_cost.send_overhead.ns());
  hash_int(&h, cfg.mpi_cost.recv_overhead.ns());
  hash_int(&h, cfg.mpi_cost.coll_stage.ns());
  hash_int(&h, cfg.mpi_cost.init_cost.ns());
  hash_int(&h, cfg.mpi_cost.finalize_cost.ns());
  hash_int(&h, cfg.omp_cost.fork_cost.ns());
  hash_int(&h, cfg.omp_cost.barrier_cost.ns());
  hash_int(&h, cfg.omp_cost.sched_chunk_cost.ns());
  hash_int(&h, cfg.omp_cost.lock_cost.ns());
  hash_int(&h, static_cast<std::int64_t>(cfg.faults.seed));
  for (const auto& f : cfg.faults.faults) {
    hash_int(&h, f.rank);
    hash_bytes(&h, mpi::to_string(f.kind));
    hash_int(&h, f.at.ns());
    hash_int(&h, f.duration.ns());
    hash_double(&h, f.probability);
  }
  hash_double(&h, plan.analyzer.threshold);
  for (const auto p : plan.analyzer.disabled_patterns) {
    hash_bytes(&h, analyze::property_name(p));
  }
  hash_int(&h, plan.analyzer.lenient ? 1 : 0);
  return h;
}

ExperimentRow SupervisedRunner::run_cell(const ExperimentPlan& plan,
                                         const PropertyDef& def,
                                         const std::string& value) const {
  ExperimentPlan p = plan;
  auto& eng = p.config.engine;
  // Supervisor budgets fill in zeros only: a plan that sets its own budget
  // keeps it.
  if (eng.virtual_time_limit == VDur::zero()) {
    eng.virtual_time_limit = opt_.virtual_time_limit;
  }
  if (eng.yield_limit == 0) eng.yield_limit = opt_.yield_limit;
  if (eng.wall_clock_limit.count() == 0) {
    eng.wall_clock_limit = opt_.wall_clock_limit;
  }

  const int max_attempts = std::max(1, opt_.retry.max_attempts);
  ExperimentRow row;
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    if (opt_.retry.perturb_seed && attempt > 1) {
      // Retry seeds are derived, not incremented: the splittable PRNG keeps
      // them well-separated from the base seed (and from each other), and a
      // fuzz master seed that chose the base engine seed deterministically
      // reproduces every retry's schedule too.
      eng.seed = SplitSeed(plan.config.engine.seed)
                     .child("retry")
                     .child(static_cast<std::uint64_t>(attempt - 1))
                     .value();
    }
    row = gen::run_experiment_cell(p, def, value);
    row.attempts = attempt;
    if (row.outcome == RunOutcome::kOk) break;
  }
  return row;
}

std::vector<ExperimentRow> SupervisedRunner::run_sweep(
    const ExperimentPlan& plan) const {
  const PropertyDef& def = gen::Registry::instance().find(plan.property);
  require(!plan.axis.param.empty(), "runner: sweep axis has no name");
  require(!plan.axis.values.empty(), "runner: sweep axis has no values");

  const std::uint64_t fp = plan_fingerprint(plan);
  const std::size_t n = plan.axis.values.size();
  std::vector<ExperimentRow> rows(n);
  std::vector<char> done(n, 0);

  // The journal is loaded whether or not we resume: appends preserve any
  // existing lines (e.g. cells of a differently-fingerprinted sweep), and
  // a kill at any instant leaves at most a torn last line, which the next
  // load drops and cuts (common/fsatomic.hpp).
  AtomicJournal journal(opt_.journal_path);

  if (opt_.resume && !opt_.journal_path.empty()) {
    for (const std::string& line : journal.lines()) {
      std::size_t index = 0;
      ExperimentRow row;
      if (!parse_journal_row(line, fp, &index, &row)) continue;
      if (index >= n || row.value != plan.axis.values[index]) continue;
      rows[index] = std::move(row);
      done[index] = 1;
    }
  }
  std::mutex journal_mu;

  par::ThreadPool pool(plan.jobs);
  pool.parallel_for(n, [&](std::size_t i) {
    if (done[i]) return;
    rows[i] = run_cell(plan, def, plan.axis.values[i]);
    if (!opt_.journal_path.empty()) {
      std::string line = format_journal_row(fp, i, rows[i]);
      std::lock_guard<std::mutex> lk(journal_mu);
      journal.append(std::move(line));
    }
  });
  return rows;
}

}  // namespace ats::runner
