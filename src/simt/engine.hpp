// Deterministic discrete-event execution engine ("simt").
//
// The engine runs a set of *locations* — simulated processes or threads —
// under a token-passing scheduler: exactly one location executes at any
// moment, and the scheduler always resumes the runnable location with the
// smallest virtual clock (ties broken by id).  Locations yield the token
// at every simulated primitive (work advance, message operation, barrier),
// so all externally visible operations execute in global virtual-time
// order.  A yield that would be re-picked (the yielder still has the
// minimum (clock, id)) keeps the token and is still counted; any other
// yield or block switches straight to the next location.  Consequences:
//
//  * runs are bit-deterministic regardless of host core count,
//  * shared runtime state (message queues, barrier counters) needs no locks
//    because access is serialised by the token,
//  * simulated waiting costs no host CPU: a blocked location's clock jumps
//    forward when it is woken.
//
// Every location is a stackful fiber (fiber.hpp) on the calling thread,
// with its stack drawn from a StackPool (stack_pool.hpp); a handoff is one
// userspace register switch — no mutex, no condition variable, no kernel.
// Released stacks are reused warm, and a bounded set of them outlives the
// engine in a per-thread cache, so back-to-back engines on one thread skip
// mapping and first-touch faults.
// The switch is annotated for AddressSanitizer and ThreadSanitizer, so
// sanitizer builds run the same single execution path (DESIGN.md §9).
//
// This is the substrate on which mpisim and ompsim implement MPI-like and
// OpenMP-like semantics.  It replaces the real parallel machine of the ATS
// paper with an exact, laptop-scale equivalent (see DESIGN.md §2).
#pragma once

#include <chrono>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/vtime.hpp"
#include "simt/stack_pool.hpp"

namespace ats::simt {

/// Index of a location within its engine (dense, starting at zero).
using LocationId = std::int32_t;
inline constexpr LocationId kNoLocation = -1;

class Engine;
class Context;
class Fiber;

namespace detail {
struct Location;
}  // namespace detail

/// A location's body: runs on its own fiber under the engine token.
using LocationBody = std::function<void(Context&)>;

enum class LocationState : std::uint8_t {
  kRunnable,  ///< waiting to be scheduled
  kRunning,   ///< currently holds the token
  kBlocked,   ///< waiting for an explicit wake()
  kFinished,  ///< body returned (or unwound)
};

const char* to_string(LocationState s);

struct EngineOptions {
  /// Seed for the per-location deterministic RNG streams.
  std::uint64_t seed = 0x415453;  // "ATS"
  /// Hard cap on locations, as a runaway-fork backstop.
  std::size_t max_locations = 4096;
  /// Fiber stack size per location (rounded up to whole pages).  Location
  /// bodies in this repo are shallow; raise it for deep client recursion.
  /// Below 16 KiB the Engine constructor throws UsageError.
  std::size_t fiber_stack_bytes = 256 * 1024;

  // --- supervision budgets (all zero = unlimited) -----------------------
  // Exceeding any budget raises HangError from run() with the same
  // per-location state dump that DeadlockError carries, so runaway loops
  // and livelocks terminate deterministically instead of spinning.

  /// Virtual-time horizon: the scheduler refuses to resume a location whose
  /// clock has reached this limit.  Catches infinite compute loops (clock
  /// grows without bound).
  VDur virtual_time_limit = VDur::zero();
  /// Total yield budget over all locations.  Catches livelocks: locations
  /// that keep yielding without ever advancing virtual time.
  std::uint64_t yield_limit = 0;
  /// Host wall-clock budget for run(), checked periodically by the
  /// scheduler loop itself (no cooperating watchdog thread).  A backstop
  /// against host-level hangs; it can only trigger while locations still
  /// yield.
  std::chrono::milliseconds wall_clock_limit{0};
};

struct EngineStats {
  std::uint64_t spawns = 0;
  std::uint64_t yields = 0;
  std::uint64_t blocks = 0;
  std::uint64_t wakes = 0;
  /// Locations whose body has started and not yet finished.  This equals
  /// the number of live pooled stacks, so it is the peak-RSS proxy
  /// surfaced in hang/deadlock dumps.
  std::uint64_t live_locations = 0;
  std::uint64_t peak_live_locations = 0;
};

/// Snapshot of memory-relevant resources owned by the layers above the
/// engine (the engine itself cannot see the trace).  Returned by the probe
/// installed via Engine::set_resource_probe and folded into failure dumps.
struct EngineResources {
  std::size_t trace_bytes = 0;    ///< resident event payload bytes
  std::size_t spilled_bytes = 0;  ///< event payload bytes spilled to disk
};

/// Handle passed to a location body; the only way a body interacts with
/// simulated time and the scheduler.  Valid only on the owning location's
/// fiber while that location holds the token.
class Context {
 public:
  LocationId id() const { return id_; }
  const std::string& name() const;
  VTime now() const;
  Engine& engine() { return *engine_; }
  /// Deterministic per-location random stream (see common/rng.hpp).
  Rng& rng();

  /// Simulated computation: advances the local clock by `d`, then yields so
  /// the engine preserves global time order.  `d` must be non-negative.
  void advance(VDur d);

  /// Advances the local clock to `t` if `t` is in the future; no-op (plus a
  /// yield) otherwise.
  void advance_to(VTime t);

  /// Yields the token without advancing the clock.  Runtime layers call
  /// this before touching shared state so that all locations with earlier
  /// clocks act first.  A yield that would be re-picked keeps the token
  /// with no switch, but is still counted, budget-checked and hooked.
  void yield();

  /// Blocks until another location calls Engine::wake() on this location.
  /// On return the local clock has been advanced to the wake time (if that
  /// is later).  `reason` appears in deadlock dumps.
  void block(const char* reason);

  /// Spawns child locations starting at the current local clock.  The
  /// children become runnable; the caller keeps the token until it yields.
  std::vector<LocationId> spawn(
      std::span<const std::pair<std::string, LocationBody>> children);

  /// Blocks until every listed location has finished, then advances the
  /// local clock to the latest of their end times.
  void join(std::span<const LocationId> children);

 private:
  friend class Engine;
  Context(Engine* engine, LocationId id) : engine_(engine), id_(id) {}

  Engine* engine_;
  LocationId id_;
};

/// The discrete-event engine.  Typical use:
///
///   Engine eng;
///   eng.add_location("rank 0", [](Context& c) { c.advance(VDur::millis(5)); });
///   eng.add_location("rank 1", [](Context& c) { ... });
///   eng.run();
///
/// run() returns when every location finished; it throws DeadlockError when
/// all unfinished locations are blocked, and rethrows the first exception
/// (in virtual-time order) escaping a location body.
class Engine {
 public:
  explicit Engine(EngineOptions options = {});
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Adds a top-level location (before run()).  Returns its id; ids are
  /// assigned densely in spawn order.
  LocationId add_location(std::string name, LocationBody body);

  /// Installs a hook invoked on `id`'s fiber each time the
  /// location obtains the token (at start and after every yield/block),
  /// before control returns to the body.  Fault injection uses this to
  /// crash or stall a location when its clock reaches a trigger time.  The
  /// hook may call Context methods (it holds the token) and may throw; a
  /// hook that advances or yields does not re-enter itself.  Install
  /// before run().
  void set_resume_hook(LocationId id, LocationBody hook);

  /// Installs a callback the engine polls when composing a failure dump
  /// (deadlock/hang), so dumps can report trace memory alongside location
  /// states.  The probe runs on the scheduler's thread with no location
  /// holding the token.  Values must be deterministic — dumps are compared
  /// verbatim between runs.
  void set_resource_probe(std::function<EngineResources()> probe) {
    resource_probe_ = std::move(probe);
  }

  /// Runs the simulation to completion.  May be called exactly once.
  /// Throws DeadlockError when all unfinished locations are blocked and
  /// HangError when a supervision budget (EngineOptions) is exhausted; on
  /// every exit path — completion or failure — all location stacks have
  /// been unwound and returned to the stack pool before run() returns or
  /// throws.
  void run();

  // --- introspection (valid after run(), or for finished locations) ---
  std::size_t location_count() const;
  VTime end_time_of(LocationId id) const;
  const std::string& name_of(LocationId id) const;
  LocationId parent_of(LocationId id) const;
  const EngineStats& stats() const { return stats_; }
  /// Latest clock over all locations (after run(): makespan).
  VTime horizon() const;

  // --- services for runtime layers; call only from the running location ---

  /// Makes `id` runnable with clock at least `not_before`.  `id` must be
  /// blocked.  Called by the token holder (e.g. a sender waking a receiver).
  void wake(LocationId id, VTime not_before);

 private:
  friend class Context;

  /// Ready-queue entry: a (clock, id) snapshot taken when the location
  /// became runnable.  A location's clock never changes while it sits in
  /// the queue, so entries are immutable and each location appears at most
  /// once — no lazy deletion needed.
  struct ReadyEntry {
    VTime t;
    LocationId id;
  };
  static bool ready_after(const ReadyEntry& a, const ReadyEntry& b);

  detail::Location* loc(LocationId id) const;
  LocationId spawn_internal(std::string name, LocationBody body,
                            LocationId parent, VTime start);
  /// Body driver, the entry of every location's fiber: resume hook, body,
  /// error capture, finish bookkeeping.
  void location_main(detail::Location* l);
  /// `l`'s fiber, created with a pooled stack on its first turn.
  Fiber& fiber_of(detail::Location* l);
  /// Scheduler side: switches into `l`'s fiber and returns once a location
  /// gives the token back; a finished one's stack goes back to the pool.
  void resume(detail::Location* l);
  /// Location side of a yield (`runnable`) or block: gives the token to
  /// the location whose turn is next; returns when `l` runs again, or
  /// throws ShutdownSignal if that resume is the shutdown unwind.
  void pass_turn(detail::Location* l, bool runnable);
  /// Marks `l` runnable and pushes its (clock, id) onto the ready heap.
  void make_runnable(detail::Location* l);
  /// Pops the minimum-(clock, id) runnable location; nullptr = none left.
  detail::Location* pick_next();
  /// Marks `l` runnable in place of the heap top: one sift-down.
  void replace_top(detail::Location* l);
  /// The budget check before every turn, in the loop or pass_turn.  A turn
  /// that passes is counted (every 256th reads the wall clock); one that
  /// fails is not, so the loop gets the same verdict and dumps.
  bool within_budgets(const detail::Location& next);
  std::string hang_dump(const detail::Location& next) const;
  /// Throws UsageError unless `id` currently holds the token.
  void check_running(LocationId id, const char* what) const;
  /// Per-location state dump under `headline` (shared by deadlock/hang).
  std::string state_dump(const std::string& headline) const;
  std::string deadlock_dump() const;
  void run_resume_hook(detail::Location* l);  // on the location's fiber
  void maybe_wake_joiners(detail::Location* finished);
  /// Poisons the engine, unwinds every parked location and finalises the
  /// bookkeeping of all unfinished ones.  Idempotent; called by run() on
  /// every exit path and by the destructor for never-run engines.
  void shutdown();

  EngineOptions options_;
  EngineStats stats_;

  // Declared before locations_ so every stack outlives every fiber.
  detail::StackPool pool_;
  LocationId running_ = kNoLocation;  // token holder; kNoLocation =
                                      // scheduler's turn
  bool started_ = false;
  bool shutdown_done_ = false;
  /// Set (once) when the engine starts tearing down; locations observing
  /// it unwind via ShutdownSignal.
  bool poisoned_ = false;
  std::vector<std::unique_ptr<detail::Location>> locations_;
  std::vector<ReadyEntry> ready_;  // min-heap on (clock, id)
  std::uint64_t turns_ = 0;  // turns that passed within_budgets
  std::chrono::steady_clock::time_point wall_start_;
  std::size_t finished_count_ = 0;
  std::exception_ptr first_error_;
  std::function<EngineResources()> resource_probe_;
};

}  // namespace ats::simt
