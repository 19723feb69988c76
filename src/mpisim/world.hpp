// The simulated MPI world: process launch, per-rank API (Proc), tracing.
//
// Usage mirrors an MPI program:
//
//   mpi::MpiRunOptions opt{.nprocs = 8};
//   auto result = mpi::run_mpi(opt, [](mpi::Proc& p) {
//     if (p.world_rank() == 0) { ... p.send(...); } else { ... p.recv(...); }
//     p.barrier(p.comm_world());
//   });
//   // result.trace is the event trace an analysis tool consumes.
//
// Every Proc method may only be called from inside the body, on the owning
// simulated process.  Semantic violations (mismatched collectives, truncating
// receives, invalid ranks) throw MpiError; deadlocks surface as
// simt::DeadlockError from Engine::run with a per-rank state dump.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "mpisim/comm.hpp"
#include "mpisim/costmodel.hpp"
#include "mpisim/datatype.hpp"
#include "mpisim/faultplan.hpp"
#include "mpisim/layout.hpp"
#include "mpisim/request.hpp"
#include "simt/engine.hpp"
#include "trace/trace.hpp"

namespace ats::mpi {

class Proc;

/// Per-engine MPI state: the communicator registry, cost model and trace.
class World {
 public:
  World(simt::Engine& engine, int nprocs, CostModel cost,
        trace::Trace* trace);

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  /// Registers the rank locations; `body` runs once per rank.  Call once,
  /// before Engine::run().
  void launch(std::function<void(Proc&)> body);

  int nprocs() const { return nprocs_; }
  Comm& comm_world();
  const CostModel& cost() const { return cost_; }
  trace::Trace* trace() { return trace_; }
  simt::Engine& engine() { return engine_; }

  /// Interns an MPI region name (cached).
  trace::RegionId region(const std::string& name, trace::RegionKind kind);

  /// Creates a communicator over `members` (global locations; position ==
  /// rank) and registers it with the trace.
  Comm& create_comm(std::vector<simt::LocationId> members, std::string name);

  /// Arms a rank-fault plan: installs crash/stall resume hooks on the
  /// affected rank locations and records drop-send schedules consulted by
  /// the p2p layer.  Call after launch(), before Engine::run().
  void arm_faults(const RankFaultPlan& plan);
  const RankFaultReport& fault_report() const { return fault_report_; }

 private:
  friend class Proc;

  /// Crash/stall supervision, invoked on a faulty rank's thread each time
  /// it resumes with the token (Engine resume hook).
  void fault_tick(int rank, simt::Context& ctx);
  /// True iff a p2p message sent by `world_rank` at `now` must vanish.
  /// Serialised by the engine token, like all world state.
  bool fault_drop_send(int world_rank, VTime now);

  struct RankFaultState {
    bool crash_pending = false;
    VTime crash_at;
    bool stall_pending = false;
    VTime stall_at;
    VDur stall_for;
    bool drop_sends = false;
    VTime drop_from;
    double drop_probability = 1.0;
    std::unique_ptr<Rng> drop_rng;  // seeded per rank from the plan seed
  };

  simt::Engine& engine_;
  int nprocs_;
  CostModel cost_;
  trace::Trace* trace_;
  std::deque<Comm> comms_;  // stable addresses
  Comm* world_comm_ = nullptr;
  bool launched_ = false;
  std::vector<RankFaultState> fault_state_;  // empty when no plan armed
  RankFaultReport fault_report_;
};

/// Per-rank MPI handle, constructed by World::launch around the user body.
class Proc {
 public:
  // --- identity ---------------------------------------------------------
  int world_rank() const { return world_rank_; }
  int rank(const Comm& c) const;
  Comm& comm_world() { return world_->comm_world(); }
  World& world() { return *world_; }
  simt::Context& sim() { return ctx_; }

  // --- point-to-point ----------------------------------------------------
  void send(const void* data, int count, Datatype type, int dest, int tag,
            Comm& comm);
  /// Synchronous send: always rendezvous (completes only once matched).
  void ssend(const void* data, int count, Datatype type, int dest, int tag,
             Comm& comm);
  void recv(void* data, int count, Datatype type, int src, int tag,
            Comm& comm, Status* status = nullptr);
  Request isend(const void* data, int count, Datatype type, int dest,
                int tag, Comm& comm);
  Request irecv(void* data, int count, Datatype type, int src, int tag,
                Comm& comm);
  void wait(Request& req, Status* status = nullptr);
  void waitall(std::span<Request> reqs);
  /// Non-blocking completion check; never advances the clock past `now`.
  bool test(Request& req, Status* status = nullptr);
  /// Combined send+recv (deadlock-free pairwise exchange).
  void sendrecv(const void* sdata, int scount, Datatype stype, int dest,
                int stag, void* rdata, int rcount, Datatype rtype, int src,
                int rtag, Comm& comm, Status* status = nullptr);
  /// Sends a non-contiguous layout (derived datatype) by packing it into a
  /// contiguous message; pairs with recv_packed (or a plain recv of
  /// layout.element_count() base elements).
  void send_packed(const void* data, const Layout& layout, int dest,
                   int tag, Comm& comm);
  /// Receives into a non-contiguous layout by unpacking a contiguous
  /// message of layout.element_count() base elements.
  void recv_packed(void* data, const Layout& layout, int src, int tag,
                   Comm& comm, Status* status = nullptr);
  /// Blocks until a matching message could be received; fills `status`
  /// without consuming the message (MPI_Probe).
  void probe(int src, int tag, Comm& comm, Status* status);
  /// Non-blocking probe: true iff a matching message is available *now*.
  bool iprobe(int src, int tag, Comm& comm, Status* status = nullptr);

  // --- collectives --------------------------------------------------------
  void barrier(Comm& comm);
  void bcast(void* data, int count, Datatype type, int root, Comm& comm);
  void scatter(const void* sdata, int scount, void* rdata, int rcount,
               Datatype type, int root, Comm& comm);
  void scatterv(const void* sdata, std::span<const int> scounts,
                std::span<const int> displs, void* rdata, int rcount,
                Datatype type, int root, Comm& comm);
  void gather(const void* sdata, int scount, void* rdata, int rcount,
              Datatype type, int root, Comm& comm);
  void gatherv(const void* sdata, int scount, void* rdata,
               std::span<const int> rcounts, std::span<const int> displs,
               Datatype type, int root, Comm& comm);
  void reduce(const void* sdata, void* rdata, int count, Datatype type,
              ReduceOp op, int root, Comm& comm);
  void allreduce(const void* sdata, void* rdata, int count, Datatype type,
                 ReduceOp op, Comm& comm);
  void alltoall(const void* sdata, int scount, void* rdata, int rcount,
                Datatype type, Comm& comm);
  void allgather(const void* sdata, int scount, void* rdata, int rcount,
                 Datatype type, Comm& comm);
  void scan(const void* sdata, void* rdata, int count, Datatype type,
            ReduceOp op, Comm& comm);
  /// Element-wise reduction of p blocks of `count` elements; block i of the
  /// result lands on rank i (MPI_Reduce_scatter_block).
  void reduce_scatter_block(const void* sdata, void* rdata, int count,
                            Datatype type, ReduceOp op, Comm& comm);

  // --- communicator management -------------------------------------------
  /// Collective; returns the caller's new communicator, or nullptr when
  /// `color == kUndefined`.
  Comm* split(Comm& comm, int color, int key);
  Comm& dup(Comm& comm);

 private:
  friend class World;
  Proc(simt::Context& ctx, World* world, int world_rank);

  void init();      ///< models MPI_Init (cost + implicit synchronisation)
  void finalize();  ///< models MPI_Finalize

  // p2p internals (p2p.cpp)
  /// The one send path of send/ssend (`req` null: advance or block until
  /// the sender's part is over) and isend (fill `req` instead).
  void send_message(const void* data, int count, Datatype type, int dest,
                    int tag, Comm& comm, const char* region, bool force_sync,
                    const std::shared_ptr<RequestState>& req);
  /// Receive prologue shared by recv and irecv: checks, enters `region`,
  /// pays the overhead, then takes the first matching unexpected message.
  std::optional<detail::PendingMsg> begin_receive(int src, int tag,
                                                  Comm& comm,
                                                  trace::RegionId region);
  /// Receives the unexpected message `m` into `data` at the current clock:
  /// copies it, releases a rendezvous sender, returns the completion time.
  VTime complete_unexpected(detail::PendingMsg& m, void* data,
                            std::int64_t capacity);
  /// Posts a receive for the matching send to complete through `req`.
  void post_receive(void* data, std::int64_t capacity, int src, int tag,
                    Comm& comm, std::shared_ptr<RequestState> req);
  void complete_request(RequestState& st, VTime at, const Status& status);
  /// Enqueues an unexpected message and releases matching probe waiters.
  void enqueue_unexpected(Comm& comm, int dest, detail::PendingMsg msg);

  // collective internals (coll.cpp)
  using CollInst = detail::CollGate::Instance;
  /// Joins this rank's next instance in `comm`'s arrival gate.  Records the
  /// region enter and the per-participant kCollBegin call record *before*
  /// the consistency checks, so a mismatching rank still leaves evidence the
  /// replay-side collective checker can cite; pass region == trace::kNone to
  /// suppress both records (the internal init/finalize barriers).  `rop` is
  /// the reduce-op id for reductions (trace::kNone for ops without one).
  CollInst& coll_enter(Comm& comm, trace::CollOp op, int root, Datatype type,
                       std::int64_t bytes, trace::RegionId region,
                       std::int32_t rop = trace::kNone);
  void coll_finish(Comm& comm, CollInst& inst, VTime enter_t,
                   std::int64_t bytes_in, std::int64_t bytes_out,
                   trace::RegionId region);
  /// All-to-all skeleton: the gate's release step, where the last arriver
  /// runs `compute_outputs` and releases everyone at max(enter) + cost.
  void coll_all_wait(Comm& comm, CollInst& inst,
                     const std::function<void(detail::CollInstance&)>&
                         compute_outputs);
  /// Root-source skeleton: the root has staged inst.root_data and every
  /// rank's slice; each rank receives its slice into `out`.
  void coll_root_source(Comm& comm, detail::CollInstance& inst, void* out,
                        std::int64_t capacity, const char* wait_reason);
  /// Root-sink skeleton: each rank contributes `sbytes` from `sdata`; the
  /// rank completing the instance runs `finalize` (fills the root's `out`).
  void coll_root_sink(Comm& comm, CollInst& inst, const void* sdata,
                      std::int64_t sbytes, void* out,
                      const std::function<void(detail::CollInstance&)>&
                          finalize,
                      const char* wait_reason);
  /// The implicit MPI_COMM_WORLD barrier of MPI_Init / MPI_Finalize (no
  /// region or collective records).
  void world_barrier();
  void scatterv_impl(trace::CollOp op, const void* sdata,
                     std::span<const int> scounts, std::span<const int> displs,
                     void* rdata, int rcount, Datatype type, int root,
                     Comm& comm);
  void gatherv_impl(trace::CollOp op, const void* sdata, int scount,
                    void* rdata, std::span<const int> rcounts,
                    std::span<const int> displs, Datatype type, int root,
                    Comm& comm);

  simt::Context& ctx_;
  World* world_;
  int world_rank_;
};

/// Options for the one-call runner.
struct MpiRunOptions {
  int nprocs = 4;
  CostModel cost{};
  simt::EngineOptions engine{};
  /// When false, the trace records nothing (overhead measurements).
  bool trace_enabled = true;
  /// Seeded rank faults (crash / stall / drop sends); empty = clean run.
  RankFaultPlan faults{};
  /// When non-empty, the trace streams event blocks to this file once its
  /// resident payload exceeds trace_spill_watermark (see
  /// Trace::enable_spill).  The returned trace is then save-only: save()/
  /// save_binary() stream the segments back, but events_of()/
  /// for_each_merged() throw until the saved file is reloaded.
  std::string trace_spill_path;
  std::size_t trace_spill_watermark = 64u << 20;  // 64 MiB
  /// When non-null, events are recorded into *external_trace instead of
  /// MpiRunResult::trace (which is then left empty).  The sink outlives the
  /// run, so callers keep the partial trace even when run_mpi throws
  /// (deadlock, MPI error) — the collective checker analyses exactly these
  /// salvaged traces.
  trace::Trace* external_trace = nullptr;
};

struct MpiRunResult {
  trace::Trace trace;
  simt::EngineStats stats;
  /// Latest clock over all ranks at completion (simulated makespan).
  VTime makespan;
  /// What the armed rank faults actually did (all zero on clean runs).
  RankFaultReport fault_report;
};

/// Creates an engine + world, runs `body` on every rank, returns the trace.
MpiRunResult run_mpi(const MpiRunOptions& options,
                     const std::function<void(Proc&)>& body);

}  // namespace ats::mpi
