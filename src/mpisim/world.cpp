#include "mpisim/world.hpp"

#include <algorithm>

namespace ats::mpi {

// ------------------------------------------------------------------- Comm

Comm::Comm(World* world, std::vector<simt::LocationId> members,
           std::string name, trace::CommId trace_id)
    : world_(world),
      members_(std::move(members)),
      name_(std::move(name)),
      trace_id_(trace_id) {
  unexpected_.resize(members_.size());
  posted_.resize(members_.size());
  probing_.resize(members_.size());
  coll_ = detail::CollGate(members_.size());
  contiguous_ = true;
  for (std::size_t i = 1; i < members_.size(); ++i) {
    if (members_[i] != members_[0] + static_cast<simt::LocationId>(i)) {
      contiguous_ = false;
      break;
    }
  }
  if (!contiguous_) {
    rank_index_.reserve(members_.size());
    for (std::size_t i = 0; i < members_.size(); ++i) {
      rank_index_.emplace(members_[i], static_cast<int>(i));
    }
  }
}

simt::LocationId Comm::member(int rank) const {
  if (rank < 0 || rank >= size()) {
    throw MpiError("rank " + std::to_string(rank) +
                   " out of range for communicator '" + name_ + "' of size " +
                   std::to_string(size()));
  }
  return members_[static_cast<std::size_t>(rank)];
}

int Comm::rank_of(simt::LocationId loc) const {
  if (contiguous_) {
    if (members_.empty() || loc < members_.front() ||
        loc > members_.back()) {
      return -1;
    }
    return static_cast<int>(loc - members_.front());
  }
  const auto it = rank_index_.find(loc);
  return it == rank_index_.end() ? -1 : it->second;
}

// ------------------------------------------------------------------ World

World::World(simt::Engine& engine, int nprocs, CostModel cost,
             trace::Trace* trace)
    : engine_(engine), nprocs_(nprocs), cost_(cost), trace_(trace) {
  require(nprocs >= 1, "World: need at least one process");
  require(trace != nullptr, "World: trace must not be null");
}

void World::launch(std::function<void(Proc&)> body) {
  require(!launched_, "World::launch called twice");
  launched_ = true;
  std::vector<simt::LocationId> members;
  members.reserve(static_cast<std::size_t>(nprocs_));
  auto shared_body =
      std::make_shared<std::function<void(Proc&)>>(std::move(body));
  for (int r = 0; r < nprocs_; ++r) {
    const std::string name = "rank " + std::to_string(r);
    const simt::LocationId id = engine_.add_location(
        name, [this, r, shared_body](simt::Context& ctx) {
          Proc proc(ctx, this, r);
          proc.init();
          (*shared_body)(proc);
          proc.finalize();
        });
    members.push_back(id);
    trace::LocationInfo info;
    info.id = id;
    info.parent = trace::kNone;
    info.kind = trace::LocKind::kProcess;
    info.rank = r;
    info.thread = 0;
    info.name = name;
    trace_->add_location(std::move(info));
  }
  world_comm_ = &create_comm(std::move(members), "MPI_COMM_WORLD");
}

Comm& World::comm_world() {
  require(world_comm_ != nullptr, "World: launch() has not been called");
  return *world_comm_;
}

trace::RegionId World::region(const std::string& name,
                              trace::RegionKind kind) {
  return trace_->regions().intern(name, kind);
}

Comm& World::create_comm(std::vector<simt::LocationId> members,
                         std::string name) {
  const trace::CommId tid =
      trace_->add_comm(trace::CommKind::kMpiComm, members, name);
  comms_.emplace_back(Comm(this, std::move(members), std::move(name), tid));
  return comms_.back();
}

// ------------------------------------------------------------ rank faults

void World::arm_faults(const RankFaultPlan& plan) {
  if (plan.empty()) return;
  require(launched_, "World::arm_faults before launch()");
  plan.validate(nprocs_);
  fault_state_.resize(static_cast<std::size_t>(nprocs_));
  for (const RankFault& f : plan.faults) {
    RankFaultState& st = fault_state_[static_cast<std::size_t>(f.rank)];
    switch (f.kind) {
      case RankFaultKind::kCrash:
        st.crash_pending = true;
        st.crash_at = f.at;
        break;
      case RankFaultKind::kStall:
        st.stall_pending = true;
        st.stall_at = f.at;
        st.stall_for = f.duration;
        break;
      case RankFaultKind::kDropSends:
        st.drop_sends = true;
        st.drop_from = f.at;
        st.drop_probability = f.probability;
        // One independent stream per rank, derived from the plan seed via
        // the suite-wide splittable PRNG (common/rng.hpp).
        st.drop_rng = std::make_unique<Rng>(
            SplitSeed(plan.seed).child("drop-sends").rng(
                static_cast<std::uint64_t>(f.rank)));
        break;
    }
  }
  // Crash/stall trigger at scheduling points; install a resume hook on each
  // affected rank.  Drop-sends needs no hook — the p2p layer asks.
  for (int r = 0; r < nprocs_; ++r) {
    const RankFaultState& st = fault_state_[static_cast<std::size_t>(r)];
    if (!st.crash_pending && !st.stall_pending) continue;
    engine_.set_resume_hook(
        world_comm_->member(r),
        [this, r](simt::Context& ctx) { fault_tick(r, ctx); });
  }
}

void World::fault_tick(int rank, simt::Context& ctx) {
  RankFaultState& st = fault_state_[static_cast<std::size_t>(rank)];
  // Stall before crash, so a plan that stalls at t1 and crashes at t2 > t1
  // applies both in order.
  if (st.stall_pending && ctx.now() >= st.stall_at) {
    st.stall_pending = false;
    ++fault_report_.stalls;
    ctx.advance(st.stall_for);
  }
  if (st.crash_pending && ctx.now() >= st.crash_at) {
    st.crash_pending = false;
    ++fault_report_.crashes;
    throw MpiError("injected fault: rank " + std::to_string(rank) +
                   " crashed at " + ctx.now().str());
  }
}

bool World::fault_drop_send(int world_rank, VTime now) {
  if (fault_state_.empty()) return false;
  RankFaultState& st = fault_state_[static_cast<std::size_t>(world_rank)];
  if (!st.drop_sends || now < st.drop_from) return false;
  if (st.drop_probability < 1.0 &&
      st.drop_rng->next_double() >= st.drop_probability) {
    return false;
  }
  ++fault_report_.sends_dropped;
  return true;
}

// ------------------------------------------------------------------- Proc

Proc::Proc(simt::Context& ctx, World* world, int world_rank)
    : ctx_(ctx), world_(world), world_rank_(world_rank) {}

int Proc::rank(const Comm& c) const {
  const int r = c.rank_of(ctx_.id());
  if (r < 0) {
    throw MpiError("rank " + std::to_string(world_rank_) +
                   " is not a member of communicator '" + c.name() + "'");
  }
  return r;
}

void Proc::init() {
  const trace::RegionId reg =
      world_->region("MPI_Init", trace::RegionKind::kMpiOther);
  world_->trace()->enter(ctx_.id(), ctx_.now(), reg);
  ctx_.advance(world_->cost().init_cost);
  // MPI_Init synchronises the ranks in practice (shared launcher); model it
  // as a barrier so stragglers show up inside MPI_Init, as in Fig. 3.2.
  world_barrier();
  world_->trace()->exit(ctx_.id(), ctx_.now(), reg);
}

void Proc::finalize() {
  const trace::RegionId reg =
      world_->region("MPI_Finalize", trace::RegionKind::kMpiOther);
  world_->trace()->enter(ctx_.id(), ctx_.now(), reg);
  world_barrier();
  ctx_.advance(world_->cost().finalize_cost);
  world_->trace()->exit(ctx_.id(), ctx_.now(), reg);
}

// ----------------------------------------------------------------- runner

MpiRunResult run_mpi(const MpiRunOptions& options,
                     const std::function<void(Proc&)>& body) {
  MpiRunResult result;
  trace::Trace* sink =
      options.external_trace ? options.external_trace : &result.trace;
  sink->set_enabled(options.trace_enabled);
  if (!options.trace_spill_path.empty()) {
    sink->enable_spill(options.trace_spill_path,
                       options.trace_spill_watermark);
  }
  simt::Engine engine(options.engine);
  World world(engine, options.nprocs, options.cost, sink);
  // Failure dumps report the trace payload next to location states; both
  // figures are identical across backends, keeping dumps parity-safe.
  engine.set_resource_probe([trace = sink] {
    simt::EngineResources r;
    r.trace_bytes = trace->memory_bytes();
    r.spilled_bytes = trace->spilled_bytes();
    return r;
  });
  world.launch(body);
  world.arm_faults(options.faults);
  engine.run();
  result.stats = engine.stats();
  result.makespan = engine.horizon();
  result.fault_report = world.fault_report();
  return result;
}

}  // namespace ats::mpi
