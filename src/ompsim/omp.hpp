// Simulated OpenMP: fork/join thread teams on the simt engine.
//
// A parallel region forks `nthreads - 1` child locations; the encountering
// location participates as thread 0 (the master), exactly like an OpenMP
// runtime.  Worksharing constructs (static/dynamic/guided loops, sections,
// single) and synchronisation (explicit barriers, the implicit barrier at
// the end of every worksharing construct and region, critical sections,
// locks) are all expressed in virtual time, so an unbalanced loop shows up
// as per-thread wait time at the construct's implicit barrier — the event
// pattern the ATS OpenMP property functions are designed to inject.
// Barriers and shared worksharing state live in the team's arrival gates
// (simt/gate.hpp): one instance per construct, erased after its last thread.
//
//   omp::Runtime rt(&trace);                    // one per (simulated) process
//   omp::parallel(ctx, rt, 4, [&](omp::OmpCtx& o) {
//     o.for_static(100, 0, [&](std::int64_t i) { ... });
//     o.barrier();
//     o.critical("update", [&] { ... });
//   });
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/vtime.hpp"
#include "simt/engine.hpp"
#include "simt/gate.hpp"
#include "trace/trace.hpp"

namespace ats::omp {

struct OmpCostModel {
  /// Cost of forking/joining a team, paid by every member at region entry.
  VDur fork_cost = VDur::micros(20);
  /// Completion cost of a team barrier once the last thread has arrived.
  VDur barrier_cost = VDur::micros(5);
  /// Cost of grabbing a chunk from a dynamic/guided schedule.
  VDur sched_chunk_cost = VDur::micros(1);
  /// Cost of an uncontended lock acquire/release pair.
  VDur lock_cost = VDur::nanos(500);
};

/// Per-process OpenMP state: lock table, cost model, trace access.  Create
/// one per simulated process (locks are process-wide, like real OpenMP).
class Runtime {
 public:
  explicit Runtime(trace::Trace* trace, OmpCostModel cost = {});

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  trace::Trace* trace() { return trace_; }
  const OmpCostModel& cost() const { return cost_; }
  trace::RegionId region(const std::string& name, trace::RegionKind kind);

 private:
  friend class OmpCtx;
  friend void parallel(simt::Context&, Runtime&, int,
                       const std::function<void(class OmpCtx&)>&,
                       const std::string&);

  struct Lock {
    std::int32_t id = 0;
    bool held = false;
    std::vector<simt::LocationId> queue;  // FIFO of blocked acquirers
  };
  Lock& lock(const std::string& name);

  trace::Trace* trace_;
  OmpCostModel cost_;
  std::map<std::string, Lock> locks_;
  std::int32_t next_lock_id_ = 0;
};

namespace detail {

/// Shared state of one dynamic loop, `sections` or `single` construct.
struct WsInst {
  std::int64_t next = 0;    // next unscheduled iteration / section
  bool single_taken = false;
};

/// Shared state of one team (master + children).  Barriers and worksharing
/// constructs (of any schedule) are numbered in separate arrival gates.
struct Team {
  Runtime* rt = nullptr;
  std::vector<simt::LocationId> members;  // index == thread number
  trace::CommId comm_id = trace::kNone;
  simt::ArrivalGate<> barrier;
  simt::ArrivalGate<WsInst> ws;
};

}  // namespace detail

/// Per-thread handle inside a parallel region.
class OmpCtx {
 public:
  int thread_num() const { return tid_; }
  int num_threads() const { return static_cast<int>(team_->members.size()); }
  simt::Context& sim() { return ctx_; }
  Runtime& runtime() { return *team_->rt; }

  /// Explicit team barrier (#pragma omp barrier).
  void barrier();

  /// Worksharing loop with static schedule over [0, n).  `chunk == 0`
  /// means one contiguous block per thread; otherwise round-robin chunks.
  /// Ends with the implicit barrier unless `nowait`.
  void for_static(std::int64_t n, std::int64_t chunk,
                  const std::function<void(std::int64_t)>& body,
                  bool nowait = false);
  /// Dynamic schedule: threads grab `chunk`-sized blocks first-come.
  void for_dynamic(std::int64_t n, std::int64_t chunk,
                   const std::function<void(std::int64_t)>& body,
                   bool nowait = false);
  /// Guided schedule: exponentially shrinking chunks, at least `min_chunk`.
  void for_guided(std::int64_t n, std::int64_t min_chunk,
                  const std::function<void(std::int64_t)>& body,
                  bool nowait = false);

  /// #pragma omp sections — each function is one section, distributed
  /// dynamically; implicit barrier at the end.
  void sections(const std::vector<std::function<void()>>& secs,
                bool nowait = false);

  /// #pragma omp single: the first thread to arrive executes `body`;
  /// implicit barrier afterwards unless `nowait`.
  void single(const std::function<void()>& body, bool nowait = false);

  /// #pragma omp master: thread 0 executes; no barrier.
  void master(const std::function<void()>& body);

  /// #pragma omp critical(name).
  void critical(const std::string& name, const std::function<void()>& body);

  /// Explicit lock API (omp_set_lock / omp_unset_lock).
  void set_lock(const std::string& name);
  void unset_lock(const std::string& name);

 private:
  friend void parallel(simt::Context&, Runtime&, int,
                       const std::function<void(OmpCtx&)>&,
                       const std::string&);

  OmpCtx(simt::Context& ctx, std::shared_ptr<detail::Team> team, int tid)
      : ctx_(ctx), team_(std::move(team)), tid_(tid) {}

  /// Team barrier tagged as explicit or implicit for the analyzer.
  void barrier_impl(trace::CollOp op);
  /// One worksharing construct: the enter of `region`, `body`, the
  /// implicit barrier unless `nowait`, the exit.
  void workshare(const char* region, bool nowait,
                 const std::function<void()>& body);
  /// A dynamically scheduled worksharing construct: threads take chunks
  /// of [0, n) from the construct's shared instance first-come.
  void dynamic_schedule(const char* region, bool nowait, std::int64_t n,
                        const std::function<std::int64_t(std::int64_t)>&
                            chunk_for_remaining,
                        const std::function<void(std::int64_t)>& body);

  simt::Context& ctx_;
  std::shared_ptr<detail::Team> team_;
  int tid_;
};

/// Executes `body` on a team of `nthreads` (the calling location is thread
/// 0); returns when the team has joined.  `region_name` labels the parallel
/// region in the trace, so different regions are distinguishable call paths.
void parallel(simt::Context& ctx, Runtime& rt, int nthreads,
              const std::function<void(OmpCtx&)>& body,
              const std::string& region_name = "parallel_region");

/// Options for the standalone (non-MPI) OpenMP runner.
struct OmpRunOptions {
  OmpCostModel cost{};
  simt::EngineOptions engine{};
  bool trace_enabled = true;
};

struct OmpRunResult {
  trace::Trace trace;
  simt::EngineStats stats;
  VTime makespan;
};

/// Runs `body` on a single master location with an OpenMP runtime; the body
/// opens parallel regions via omp::parallel.
OmpRunResult run_omp(const OmpRunOptions& options,
                     const std::function<void(simt::Context&, Runtime&)>& body);

}  // namespace ats::omp
