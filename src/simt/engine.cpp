#include "simt/engine.hpp"

#include <algorithm>
#include <optional>
#include <sstream>

#include "simt/fiber.hpp"

namespace ats::simt {

namespace detail {

/// Thrown through parked locations to unwind their stacks during poisoned
/// shutdown; location_main absorbs it.  Never escapes the engine.
struct ShutdownSignal {};

struct Location {
  LocationId id = kNoLocation;
  LocationId parent = kNoLocation;
  std::string name;
  LocationBody body;
  LocationState state = LocationState::kRunnable;
  const char* block_reason = "";
  VTime now;
  std::exception_ptr error;
  std::unique_ptr<Context> context;
  std::unique_ptr<Rng> rng;
  // join bookkeeping: set while blocked in Context::join()
  std::vector<LocationId> joining;
  // Reverse index: locations blocked in join() waiting on *this* location.
  // Lets a finishing location wake exactly its joiners instead of scanning
  // every location (the scan was O(locations) per finish — quadratic over
  // a 100k-location run).
  std::vector<LocationId> waiters;
  // supervision hook (set_resume_hook); in_hook guards re-entry when the
  // hook itself advances or yields.
  LocationBody resume_hook;
  bool in_hook = false;
  // The fiber and its pooled stack exist only between the first resume and
  // the finish, so the pool holds stacks for *active* locations only: a
  // spawned-but-idle or finished location costs a few hundred bytes, not a
  // quarter-megabyte of pages.
  std::optional<Fiber> fiber;
  char* slab = nullptr;
};

}  // namespace detail

const char* to_string(LocationState s) {
  switch (s) {
    case LocationState::kRunnable: return "runnable";
    case LocationState::kRunning: return "running";
    case LocationState::kBlocked: return "blocked";
    case LocationState::kFinished: return "finished";
  }
  return "?";
}

namespace {
// Min-heap order on (clock, id): `after(a, b)` is the "less" predicate of
// a std:: max-heap, so the heap top is the minimum element.
bool ready_after(const VTime& at, LocationId aid, const VTime& bt,
                 LocationId bid) {
  if (at != bt) return bt < at;
  return bid < aid;
}
}  // namespace

// ---------------------------------------------------------------- Context

const std::string& Context::name() const { return engine_->loc(id_)->name; }

VTime Context::now() const { return engine_->loc(id_)->now; }

Rng& Context::rng() { return *engine_->loc(id_)->rng; }

void Context::advance(VDur d) {
  if (d.is_negative()) {
    throw UsageError("Context::advance: negative duration");
  }
  engine_->loc(id_)->now += d;
  yield();
}

void Context::advance_to(VTime t) {
  advance(non_negative(t - now()));
}

void Context::yield() {
  detail::Location* l = engine_->loc(id_);
  if (engine_->poisoned_) throw detail::ShutdownSignal{};
  engine_->check_running(id_, "Context::yield");
  ++engine_->stats_.yields;
  engine_->make_runnable(l);
  engine_->park(l);
  l->state = LocationState::kRunning;
  engine_->run_resume_hook(l);
}

void Context::block(const char* reason) {
  detail::Location* l = engine_->loc(id_);
  if (engine_->poisoned_) throw detail::ShutdownSignal{};
  engine_->check_running(id_, "Context::block");
  ++engine_->stats_.blocks;
  l->state = LocationState::kBlocked;
  l->block_reason = reason;
  // No ready-queue entry: Engine::wake (or a finishing join child) pushes
  // one when this location becomes runnable again.
  engine_->park(l);
  l->state = LocationState::kRunning;
  l->block_reason = "";
  engine_->run_resume_hook(l);
}

std::vector<LocationId> Context::spawn(
    std::span<const std::pair<std::string, LocationBody>> children) {
  engine_->check_running(id_, "Context::spawn");
  std::vector<LocationId> ids;
  ids.reserve(children.size());
  const VTime start = engine_->loc(id_)->now;
  for (const auto& [child_name, child_body] : children) {
    ids.push_back(
        engine_->spawn_internal(child_name, child_body, id_, start));
  }
  return ids;
}

void Context::join(std::span<const LocationId> children) {
  detail::Location* l = engine_->loc(id_);
  for (;;) {
    engine_->check_running(id_, "Context::join");
    bool all_finished = true;
    VTime latest = l->now;
    for (LocationId c : children) {
      const detail::Location* child = engine_->loc(c);
      if (child->state != LocationState::kFinished) {
        all_finished = false;
        break;
      }
      latest = later(latest, child->now);
    }
    if (all_finished) {
      l->now = latest;
      return;
    }
    l->joining.assign(children.begin(), children.end());
    // Register on every unfinished child so maybe_wake_joiners can find
    // this joiner without scanning all locations.
    for (LocationId c : children) {
      detail::Location* child = engine_->loc(c);
      if (child->state == LocationState::kFinished) continue;
      auto& w = child->waiters;
      if (std::find(w.begin(), w.end(), id_) == w.end()) w.push_back(id_);
    }
    block("join");
  }
}

// ----------------------------------------------------------------- Engine

Engine::Engine(EngineOptions options)
    : options_(options), pool_(options.fiber_stack_bytes) {}

Engine::~Engine() {
  // Normal completion (and every failure path) shuts down inside run();
  // this covers engines that were never run.
  shutdown();
}

detail::Location* Engine::loc(LocationId id) const {
  return locations_.at(static_cast<std::size_t>(id)).get();
}

void Engine::check_running(LocationId id, const char* what) const {
  if (running_ != id) {
    throw UsageError(std::string(what) +
                     " called by a location without the token");
  }
}

LocationId Engine::add_location(std::string name, LocationBody body) {
  if (started_) {
    throw UsageError(
        "Engine::add_location after run(); use Context::spawn instead");
  }
  return spawn_internal(std::move(name), std::move(body), kNoLocation,
                        VTime::zero());
}

void Engine::set_resume_hook(LocationId id, LocationBody hook) {
  if (started_) {
    throw UsageError("Engine::set_resume_hook after run()");
  }
  loc(id)->resume_hook = std::move(hook);
}

void Engine::run_resume_hook(detail::Location* l) {
  // Runs on the location's fiber with the token held.  The
  // hook may advance/yield (which re-enters this function; in_hook
  // suppresses the recursion) and may throw into the location body.
  if (!l->resume_hook || l->in_hook) return;
  l->in_hook = true;
  struct Reset {
    bool* flag;
    ~Reset() { *flag = false; }
  } reset{&l->in_hook};
  l->resume_hook(*l->context);
}

LocationId Engine::spawn_internal(std::string name, LocationBody body,
                                  LocationId parent, VTime start) {
  // Called from the main thread before run(), or by the token holder.
  if (locations_.size() >= options_.max_locations) {
    throw UsageError("Engine: location limit exceeded (" +
                     std::to_string(options_.max_locations) + ")");
  }
  const LocationId id = static_cast<LocationId>(locations_.size());
  auto l = std::make_unique<detail::Location>();
  l->id = id;
  l->parent = parent;
  l->name = std::move(name);
  l->body = std::move(body);
  l->now = start;
  l->context = std::unique_ptr<Context>(new Context(this, id));
  l->rng = std::make_unique<Rng>(options_.seed,
                                 static_cast<std::uint64_t>(id));
  detail::Location* raw = l.get();
  locations_.push_back(std::move(l));
  ++stats_.spawns;
  make_runnable(raw);
  return id;
}

void Engine::location_main(detail::Location* l) {
  // The entry of every location's fiber, run once from the top.
  l->state = LocationState::kRunning;
  ++stats_.live_locations;
  if (stats_.live_locations > stats_.peak_live_locations) {
    stats_.peak_live_locations = stats_.live_locations;
  }
  try {
    run_resume_hook(l);
    l->body(*l->context);
  } catch (detail::ShutdownSignal) {
    // poisoned teardown; not an error
  } catch (...) {
    l->error = std::current_exception();
  }
  l->state = LocationState::kFinished;
  ++finished_count_;
  --stats_.live_locations;
  // During teardown the run's outcome is already decided: errors raised
  // while unwinding are dropped and nobody is woken.
  if (poisoned_) return;
  if (l->error && !first_error_) first_error_ = l->error;
  maybe_wake_joiners(l);
  // Returning makes the fiber's final switch back to the scheduler.
}

void Engine::resume(detail::Location* l) {
  if (!l->fiber) {
    l->slab = pool_.acquire();
    l->fiber.emplace(l->slab, pool_.slab_bytes(),
                     [this, l] { location_main(l); });
  }
  l->fiber->resume();
  if (l->fiber->finished()) {
    // Control is back on the scheduler's stack, so no live frame can touch
    // the slab any more: recycle it now.
    l->fiber.reset();
    pool_.release(l->slab);
    l->slab = nullptr;
  }
}

void Engine::park(detail::Location* l) {
  l->fiber->suspend();
  // shutdown() resumes parked fibers exactly so that this throw unwinds
  // their stacks at the park point.
  if (poisoned_) throw detail::ShutdownSignal{};
}

void Engine::make_runnable(detail::Location* l) {
  l->state = LocationState::kRunnable;
  ready_.push_back(ReadyEntry{l->now, l->id});
  std::push_heap(ready_.begin(), ready_.end(),
                 [](const ReadyEntry& a, const ReadyEntry& b) {
                   return ready_after(a.t, a.id, b.t, b.id);
                 });
}

detail::Location* Engine::pick_next() {
  // Minimum (clock, id) over runnable locations.  Entries are immutable
  // snapshots and each runnable location has exactly one, so the heap top
  // is always current — O(log n) per handoff instead of the old O(n) scan.
  if (ready_.empty()) return nullptr;
  std::pop_heap(ready_.begin(), ready_.end(),
                [](const ReadyEntry& a, const ReadyEntry& b) {
                  return ready_after(a.t, a.id, b.t, b.id);
                });
  const ReadyEntry e = ready_.back();
  ready_.pop_back();
  return loc(e.id);
}

void Engine::maybe_wake_joiners(detail::Location* finished) {
  // A joiner whose whole join set is now finished becomes runnable with
  // its clock advanced to the latest child end time.  Only this location's
  // registered waiters are examined (Context::join maintains the reverse
  // index), so a finish costs O(own joiners), not O(all locations).
  if (finished->waiters.empty()) return;
  for (LocationId wid : finished->waiters) {
    detail::Location* l = loc(wid);
    if (l->state != LocationState::kBlocked || l->joining.empty()) continue;
    bool all = true;
    VTime latest = l->now;
    for (LocationId c : l->joining) {
      const detail::Location* child = loc(c);
      if (child->state != LocationState::kFinished) {
        all = false;
        break;
      }
      latest = later(latest, child->now);
    }
    if (all) {
      l->now = latest;
      l->joining.clear();
      ++stats_.wakes;
      make_runnable(l);
    }
  }
  finished->waiters.clear();
}

void Engine::run() {
  if (started_) throw UsageError("Engine::run called twice");
  started_ = true;
  std::string deadlock;
  std::string hang;
  const auto wall_start = std::chrono::steady_clock::now();
  std::uint64_t iterations = 0;
  while (true) {
    if (first_error_) break;
    if (finished_count_ == locations_.size()) break;
    detail::Location* next = pick_next();
    if (next == nullptr) {
      deadlock = deadlock_dump();
      break;
    }
    if (options_.virtual_time_limit > VDur::zero() &&
        next->now >= VTime::zero() + options_.virtual_time_limit) {
      hang = state_dump("simulated hang: virtual-time budget (" +
                        options_.virtual_time_limit.str() + ") exhausted");
      break;
    }
    if (options_.yield_limit != 0 &&
        stats_.yields >= options_.yield_limit) {
      hang = state_dump(
          "simulated hang: yield budget (" +
          std::to_string(options_.yield_limit) +
          " yields) exhausted without completing (livelock?)");
      break;
    }
    if (options_.wall_clock_limit.count() > 0 &&
        (++iterations & 0xFF) == 0 &&
        std::chrono::steady_clock::now() - wall_start >=
            options_.wall_clock_limit) {
      hang = state_dump("simulated hang: wall-clock budget (" +
                        std::to_string(options_.wall_clock_limit.count()) +
                        " ms) exhausted");
      break;
    }
    running_ = next->id;
    resume(next);
    running_ = kNoLocation;
  }
  shutdown();
  if (first_error_) std::rethrow_exception(first_error_);
  if (!deadlock.empty()) throw DeadlockError(deadlock);
  if (!hang.empty()) throw HangError(hang);
}

void Engine::shutdown() {
  if (shutdown_done_) return;
  shutdown_done_ = true;
  poisoned_ = true;
  // Unwind every parked fiber: resuming it makes park() throw
  // ShutdownSignal at its park point, the throw/catch runs on the fiber's
  // own stack (so parked frames' destructors run), location_main absorbs
  // the signal and the fiber finishes.  It cannot park again: every
  // Context call throws once the engine is poisoned.  Locations that never
  // started have no fiber and are only marked finished.
  for (auto& l : locations_) {
    if (l->fiber) resume(l.get());
    if (l->state != LocationState::kFinished) {
      l->state = LocationState::kFinished;
      ++finished_count_;
    }
  }
}

std::string Engine::state_dump(const std::string& headline) const {
  std::ostringstream os;
  os << headline << "\n";
  for (const auto& l : locations_) {
    os << "  [" << l->id << "] " << l->name << ": " << to_string(l->state)
       << " at " << l->now.str();
    if (l->state == LocationState::kBlocked) os << " (" << l->block_reason
                                                << ")";
    os << "\n";
  }
  // Peak-RSS proxy: live location count (== live fiber stacks) plus the
  // trace payload when a probe is installed.  Everything here is
  // deterministic — tests compare dumps verbatim across runs.
  os << "  resources: locations=" << locations_.size() << " live="
     << stats_.live_locations << " peak=" << stats_.peak_live_locations;
  if (resource_probe_) {
    const EngineResources r = resource_probe_();
    const std::size_t total = r.trace_bytes + r.spilled_bytes;
    os << " trace_bytes=" << r.trace_bytes << " spilled_bytes="
       << r.spilled_bytes << " bytes/loc="
       << (locations_.empty() ? 0 : total / locations_.size());
  }
  os << "\n";
  return os.str();
}

std::string Engine::deadlock_dump() const {
  return state_dump(
      "simulated deadlock: all unfinished locations are blocked");
}

void Engine::wake(LocationId id, VTime not_before) {
  detail::Location* l = loc(id);
  if (l->state != LocationState::kBlocked) {
    throw UsageError("Engine::wake: location " + std::to_string(id) + " (" +
                     l->name + ") is not blocked but " +
                     to_string(l->state));
  }
  l->now = later(l->now, not_before);
  ++stats_.wakes;
  make_runnable(l);
}

std::size_t Engine::location_count() const { return locations_.size(); }

VTime Engine::end_time_of(LocationId id) const { return loc(id)->now; }

const std::string& Engine::name_of(LocationId id) const {
  return loc(id)->name;
}

LocationId Engine::parent_of(LocationId id) const { return loc(id)->parent; }

VTime Engine::now_of(LocationId id) const { return loc(id)->now; }

bool Engine::is_blocked(LocationId id) const {
  return loc(id)->state == LocationState::kBlocked;
}

VTime Engine::horizon() const {
  VTime h = VTime::zero();
  for (const auto& l : locations_) h = later(h, l->now);
  return h;
}

}  // namespace ats::simt
