#include "ompsim/omp.hpp"

#include <algorithm>

namespace ats::omp {

// ---------------------------------------------------------------- Runtime

Runtime::Runtime(trace::Trace* trace, OmpCostModel cost)
    : trace_(trace), cost_(cost) {
  require(trace != nullptr, "omp::Runtime: trace must not be null");
}

trace::RegionId Runtime::region(const std::string& name,
                                trace::RegionKind kind) {
  return trace_->regions().intern(name, kind);
}

Runtime::Lock& Runtime::lock(const std::string& name) {
  auto [it, inserted] = locks_.try_emplace(name);
  if (inserted) it->second.id = next_lock_id_++;
  return it->second;
}

// --------------------------------------------------------------- parallel

void parallel(simt::Context& ctx, Runtime& rt, int nthreads,
              const std::function<void(OmpCtx&)>& body,
              const std::string& region_name) {
  require(nthreads >= 1, "omp::parallel: need at least one thread");
  auto* tr = rt.trace();
  const trace::RegionId reg =
      rt.region("omp " + region_name, trace::RegionKind::kOmpParallel);

  ctx.yield();
  ctx.advance(rt.cost().fork_cost);

  auto team = std::make_shared<detail::Team>();
  team->rt = &rt;
  team->members.resize(static_cast<std::size_t>(nthreads));
  team->members[0] = ctx.id();
  team->barrier = simt::ArrivalGate<>(static_cast<std::size_t>(nthreads));
  team->ws =
      simt::ArrivalGate<detail::WsInst>(static_cast<std::size_t>(nthreads));

  // Every thread `t` (the master is thread 0) runs the body inside the
  // region and ends with the region's implicit barrier.
  auto member = [team, &body, reg](simt::Context& c, int t) {
    team->rt->trace()->enter(c.id(), c.now(), reg);
    OmpCtx octx(c, team, t);
    body(octx);
    octx.barrier_impl(trace::CollOp::kOmpIBarrier);
    team->rt->trace()->exit(c.id(), c.now(), reg);
  };
  // Fork the worker threads.  Copy the parent metadata: add_location below
  // may reallocate the location table and invalidate references into it.
  std::vector<std::pair<std::string, simt::LocationBody>> children;
  const std::string parent_name = tr->location(ctx.id()).name;
  const std::int32_t parent_rank = tr->location(ctx.id()).rank;
  for (int t = 1; t < nthreads; ++t) {
    children.emplace_back(parent_name + " thread " + std::to_string(t),
                          [member, t](simt::Context& c) { member(c, t); });
  }
  const std::vector<simt::LocationId> ids = ctx.spawn(children);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    team->members[i + 1] = ids[i];
    trace::LocationInfo info;
    info.id = ids[i];
    info.parent = ctx.id();
    info.kind = trace::LocKind::kThread;
    info.rank = parent_rank;
    info.thread = static_cast<std::int32_t>(i + 1);
    info.name = ctx.engine().name_of(ids[i]);
    tr->add_location(std::move(info));
  }
  team->comm_id = tr->add_comm(trace::CommKind::kOmpTeam, team->members,
                               parent_name + " team(" + region_name + ")");

  member(ctx, 0);
  ctx.join(ids);
}

// ----------------------------------------------------------------- OmpCtx

void OmpCtx::barrier() {
  const trace::RegionId reg = runtime().region(
      "omp barrier", trace::RegionKind::kOmpSync);
  auto* tr = runtime().trace();
  ctx_.yield();
  tr->enter(ctx_.id(), ctx_.now(), reg);
  barrier_impl(trace::CollOp::kOmpBarrier);
  tr->exit(ctx_.id(), ctx_.now(), reg);
}

void OmpCtx::barrier_impl(trace::CollOp op) {
  auto& gate = team_->barrier;
  ctx_.yield();
  auto& inst = gate.open(gate.next_seq(static_cast<std::size_t>(tid_)));
  const VTime enter_t = ctx_.now();
  gate.arrive(inst, enter_t);
  gate.release(ctx_, inst, team_->members, "omp barrier (waiting for team)",
               [&] { return runtime().cost().barrier_cost; });
  runtime().trace()->coll_end(ctx_.id(), ctx_.now(), enter_t, team_->comm_id,
                              inst.seq, op, trace::kNone, 0, 0);
  gate.leave(inst);
}

void OmpCtx::workshare(const char* region, bool nowait,
                       const std::function<void()>& body) {
  const trace::RegionId reg =
      runtime().region(region, trace::RegionKind::kOmpWork);
  auto* tr = runtime().trace();
  ctx_.yield();
  tr->enter(ctx_.id(), ctx_.now(), reg);
  body();
  if (!nowait) barrier_impl(trace::CollOp::kOmpIBarrier);
  tr->exit(ctx_.id(), ctx_.now(), reg);
}

void OmpCtx::for_static(std::int64_t n, std::int64_t chunk,
                        const std::function<void(std::int64_t)>& body,
                        bool nowait) {
  require(n >= 0, "for_static: negative trip count");
  const int p = num_threads();
  workshare("omp for(static)", nowait, [&] {
    // Take a worksharing number, so constructs stay aligned across
    // schedules; a static schedule shares nothing, so opens no instance.
    team_->ws.next_seq(static_cast<std::size_t>(tid_));
    if (chunk <= 0) {
      // One contiguous block per thread (OpenMP default static schedule).
      const std::int64_t base = n / p;
      const std::int64_t rem = n % p;
      const std::int64_t lo =
          tid_ * base + std::min<std::int64_t>(tid_, rem);
      const std::int64_t len = base + (tid_ < rem ? 1 : 0);
      for (std::int64_t i = lo; i < lo + len; ++i) body(i);
    } else {
      for (std::int64_t start = static_cast<std::int64_t>(tid_) * chunk;
           start < n; start += static_cast<std::int64_t>(p) * chunk) {
        const std::int64_t end = std::min(n, start + chunk);
        for (std::int64_t i = start; i < end; ++i) body(i);
      }
    }
  });
}

void OmpCtx::dynamic_schedule(
    const char* region, bool nowait, std::int64_t n,
    const std::function<std::int64_t(std::int64_t)>& chunk_for_remaining,
    const std::function<void(std::int64_t)>& body) {
  workshare(region, nowait, [&] {
    auto& ws = team_->ws;
    auto& inst = ws.open(ws.next_seq(static_cast<std::size_t>(tid_)));
    for (;;) {
      ctx_.yield();  // chunk grabbing happens in virtual-time order
      if (inst.next >= n) break;
      const std::int64_t remaining = n - inst.next;
      const std::int64_t chunk =
          std::max<std::int64_t>(1, chunk_for_remaining(remaining));
      const std::int64_t lo = inst.next;
      const std::int64_t hi = std::min(n, lo + chunk);
      inst.next = hi;
      ctx_.advance(runtime().cost().sched_chunk_cost);
      for (std::int64_t i = lo; i < hi; ++i) body(i);
    }
    ws.leave(inst);
  });
}

void OmpCtx::for_dynamic(std::int64_t n, std::int64_t chunk,
                         const std::function<void(std::int64_t)>& body,
                         bool nowait) {
  require(n >= 0, "for_dynamic: negative trip count");
  require(chunk >= 1, "for_dynamic: chunk must be >= 1");
  dynamic_schedule("omp for(dynamic)", nowait, n,
                   [chunk](std::int64_t) { return chunk; }, body);
}

void OmpCtx::for_guided(std::int64_t n, std::int64_t min_chunk,
                        const std::function<void(std::int64_t)>& body,
                        bool nowait) {
  require(n >= 0, "for_guided: negative trip count");
  require(min_chunk >= 1, "for_guided: min_chunk must be >= 1");
  const int p = num_threads();
  dynamic_schedule(
      "omp for(guided)", nowait, n,
      [min_chunk, p](std::int64_t remaining) {
        return std::max(min_chunk, remaining / (2 * p));
      },
      body);
}

void OmpCtx::sections(const std::vector<std::function<void()>>& secs,
                      bool nowait) {
  dynamic_schedule(
      "omp sections", nowait, static_cast<std::int64_t>(secs.size()),
      [](std::int64_t) { return 1; },
      [&](std::int64_t i) { secs[static_cast<std::size_t>(i)](); });
}

void OmpCtx::single(const std::function<void()>& body, bool nowait) {
  workshare("omp single", nowait, [&] {
    auto& ws = team_->ws;
    auto& inst = ws.open(ws.next_seq(static_cast<std::size_t>(tid_)));
    if (!inst.single_taken) {
      inst.single_taken = true;
      body();
    }
    ws.leave(inst);
  });
}

void OmpCtx::master(const std::function<void()>& body) {
  const trace::RegionId reg = runtime().region(
      "omp master", trace::RegionKind::kOmpWork);
  auto* tr = runtime().trace();
  if (tid_ != 0) return;
  ctx_.yield();
  tr->enter(ctx_.id(), ctx_.now(), reg);
  body();
  tr->exit(ctx_.id(), ctx_.now(), reg);
}

void OmpCtx::critical(const std::string& name,
                      const std::function<void()>& body) {
  const trace::RegionId reg = runtime().region(
      "omp critical(" + name + ")", trace::RegionKind::kOmpSync);
  auto* tr = runtime().trace();
  ctx_.yield();
  tr->enter(ctx_.id(), ctx_.now(), reg);
  set_lock("critical:" + name);
  body();
  unset_lock("critical:" + name);
  tr->exit(ctx_.id(), ctx_.now(), reg);
}

void OmpCtx::set_lock(const std::string& name) {
  auto* tr = runtime().trace();
  ctx_.yield();
  Runtime::Lock& lk = runtime().lock(name);
  if (!lk.held) {
    lk.held = true;
    ctx_.advance(runtime().cost().lock_cost);
  } else {
    lk.queue.push_back(ctx_.id());
    ctx_.block("omp lock (contended)");
    // Woken by unset_lock with the lock transferred to us.
  }
  tr->lock_acquire(ctx_.id(), ctx_.now(), lk.id);
}

void OmpCtx::unset_lock(const std::string& name) {
  auto* tr = runtime().trace();
  ctx_.yield();
  Runtime::Lock& lk = runtime().lock(name);
  require(lk.held, "unset_lock: lock '" + name + "' is not held");
  if (lk.queue.empty()) {
    lk.held = false;
  } else {
    const simt::LocationId next = lk.queue.front();
    lk.queue.erase(lk.queue.begin());
    ctx_.engine().wake(next, ctx_.now() + runtime().cost().lock_cost);
  }
  tr->lock_release(ctx_.id(), ctx_.now(), lk.id);
}

// ----------------------------------------------------------------- runner

OmpRunResult run_omp(
    const OmpRunOptions& options,
    const std::function<void(simt::Context&, Runtime&)>& body) {
  OmpRunResult result;
  result.trace.set_enabled(options.trace_enabled);
  simt::Engine engine(options.engine);
  Runtime rt(&result.trace, options.cost);
  engine.add_location("master", [&](simt::Context& ctx) { body(ctx, rt); });
  trace::LocationInfo info;
  info.id = 0;
  info.parent = trace::kNone;
  info.kind = trace::LocKind::kProcess;
  info.rank = 0;
  info.thread = 0;
  info.name = "master";
  result.trace.add_location(std::move(info));
  engine.run();
  result.stats = engine.stats();
  result.makespan = engine.horizon();
  return result;
}

}  // namespace ats::omp
