// Collective operations of the simulated MPI.
//
// Each collective instance is identified by (communicator, per-rank call
// sequence number) — MPI requires every member to issue the communicator's
// collectives in the same order, which the runtime verifies.  The
// communicator's arrival gate (simt/gate.hpp) keeps the sequence numbers,
// the instances, their arrivals and latest enter, and erases an instance
// when its last rank leaves.  Every operation runs one of three skeletons,
// which alone decide its timing:
//
//  * all-to-all, coll_all_wait (barrier, allreduce, alltoall, allgather,
//    scan, reduce_scatter_block, split, dup): the gate's release step — the
//    last arriver computes every output; everybody leaves at
//    max(enter) + cost — early ranks wait for the last (the analyzer's
//    "Wait at Barrier"/"Wait at NxN");
//  * root-source, coll_root_source (bcast, scatter, scatterv): the root
//    stages its buffer and every rank's slice (for bcast, the whole
//    buffer); non-roots leave at max(own enter, root enter) + cost — early
//    non-roots wait for a late root ("Late Broadcast");
//  * root-sink, coll_root_sink (gather, gatherv, reduce): the rank that
//    completes the instance runs the op's finalize step and wakes a blocked
//    root; the root leaves at max(all enters) + cost, non-roots at own
//    enter + the cost of their own contribution — an early root waits for
//    the last contributor ("Early Reduce"/"Early Gather").
//
// All-to-all ops read each member's send buffer in place, as every member
// stays parked until all outputs are written (DESIGN.md §9); root-sink
// stages contributions, root-source the root's buffer.
//
// One cost per instance: collective_time(p, bytes) of the fixed per-rank
// size, else of the root's widest slice (root-source) or the largest
// contribution (root-sink, all-to-all) — never of whichever rank happens to
// arrive or complete last.  A root-sink non-root leaves before the instance
// may be complete, so it is charged the one size it knows, its own.
#include <algorithm>

#include "mpisim/world.hpp"

namespace ats::mpi {

namespace {

// kCollBegin records carry ReduceOp values as raw int32 (Event::tag), which
// trace::reduce_op_name() renders without a trace -> mpisim dependency.  Pin
// the numeric values its name table assumes: {sum, prod, min, max, land, lor}.
static_assert(static_cast<int>(ReduceOp::kSum) == 0 &&
                  static_cast<int>(ReduceOp::kProd) == 1 &&
                  static_cast<int>(ReduceOp::kMin) == 2 &&
                  static_cast<int>(ReduceOp::kMax) == 3 &&
                  static_cast<int>(ReduceOp::kLand) == 4 &&
                  static_cast<int>(ReduceOp::kLor) == 5,
              "ReduceOp values must match trace::reduce_op_name's table");

std::int64_t bytes_of(int count, Datatype type) {
  require(count >= 0, "collective: negative element count");
  return static_cast<std::int64_t>(count) *
         static_cast<std::int64_t>(datatype_size(type));
}

/// Payload size used for the completion-cost term.
std::int64_t cost_bytes(const detail::CollInstance& inst) {
  if (inst.bytes_per_rank >= 0) return inst.bytes_per_rank;
  std::int64_t mx = 0;
  for (const auto& r : inst.ranks) {
    mx = std::max(mx, static_cast<std::int64_t>(r.contrib.size()));
  }
  return mx;
}

void check_capacity(std::int64_t need, std::int64_t have, const char* what) {
  if (need > have) {
    throw MpiError(std::string(what) + ": receive buffer too small (" +
                   std::to_string(need) + " > " + std::to_string(have) + ")");
  }
}

/// Lends rank `me`'s buffers to an all-to-all instance.  The last arriver
/// reads `sdata` in place while it writes every receive buffer, so the two
/// ranges must not overlap (MPI_IN_PLACE is not offered).
void lend_buffers(detail::CollInstance& inst, int me, const void* sdata,
                  std::int64_t sbytes, void* rdata, std::int64_t rbytes) {
  const auto s = reinterpret_cast<std::uintptr_t>(sdata);
  const auto r = reinterpret_cast<std::uintptr_t>(rdata);
  if (sbytes > 0 && rbytes > 0 && s < r + static_cast<std::uintptr_t>(rbytes) &&
      r < s + static_cast<std::uintptr_t>(sbytes)) {
    throw MpiError(std::string(trace::to_string(inst.op)) +
                   ": send and receive buffers overlap");
  }
  detail::CollRank& mine = inst.ranks[static_cast<std::size_t>(me)];
  mine.send = static_cast<const std::byte*>(sdata);
  mine.out = rdata;
}

/// Folds `count` elements at byte `offset` of every rank's send buffer, in
/// rank order, into `acc` under the instance's datatype and rank 0's reduce
/// op (a mismatch must not make the result depend on arrival order).
void fold_contributions(const detail::CollInstance& ci, void* acc, int count,
                        std::int64_t offset) {
  const ReduceOp rop = ci.ranks.front().rop;
  detail::copy_payload(acc, ci.ranks.front().send + offset,
                       bytes_of(count, ci.type));
  for (std::size_t r = 1; r < ci.ranks.size(); ++r) {
    reduce_combine(rop, ci.type, ci.ranks[r].send + offset, acc, count);
  }
}

/// Sets every rank's slice of the root buffer from per-rank element
/// counts/displacements; returns the buffer extent in bytes.
std::int64_t stage_slices(detail::CollInstance& inst,
                          std::span<const int> counts,
                          std::span<const int> displs, int p,
                          const char* what) {
  require(static_cast<int>(counts.size()) == p,
          std::string(what) + ": counts must have one entry per rank");
  require(static_cast<int>(displs.size()) == p,
          std::string(what) + ": displs must have one entry per rank");
  const std::int64_t esz = static_cast<std::int64_t>(datatype_size(inst.type));
  std::int64_t extent = 0;
  for (std::size_t r = 0; r < inst.ranks.size(); ++r) {
    detail::CollRank& slot = inst.ranks[r];
    slot.slice_offset = esz * displs[r];
    slot.slice_bytes = esz * counts[r];
    extent = std::max(extent, slot.slice_offset + slot.slice_bytes);
  }
  return extent;
}

}  // namespace

Proc::CollInst& Proc::coll_enter(Comm& comm, trace::CollOp op, int root,
                                 Datatype type, std::int64_t bytes,
                                 trace::RegionId region, std::int32_t rop) {
  const int me = rank(comm);
  if (root >= 0) comm.member(root);  // range check

  ctx_.yield();  // act in global virtual-time order
  const std::int64_t seq = comm.coll_.next_seq(static_cast<std::size_t>(me));
  // Record the region enter and the per-participant call record *before*
  // the consistency checks below: when a mismatch aborts the run, the trace
  // must still show what every rank believed it was calling, so the replay
  // checker can cite the offending call sites.  region == kNone suppresses
  // both (the internal init/finalize barriers).
  if (region != trace::kNone) {
    const std::int32_t root_loc =
        root >= 0 ? static_cast<std::int32_t>(comm.member(root)) : trace::kNone;
    world_->trace()->enter(ctx_.id(), ctx_.now(), region);
    world_->trace()->coll_begin(ctx_.id(), ctx_.now(), comm.trace_id(), seq,
                                op, root_loc, rop, region);
  }
  CollInst& inst = comm.coll_.open(seq);
  if (inst.ranks.empty()) {  // first arriver: the instance is new
    inst.op = op;
    inst.root = root;
    inst.type = type;
    inst.bytes_per_rank = bytes;
    inst.ranks.resize(static_cast<std::size_t>(comm.size()));
  } else {
    if (inst.op != op) {
      throw MpiError("collective mismatch on '" + comm.name() + "' #" +
                     std::to_string(seq) + ": rank " + std::to_string(me) +
                     " called " + trace::to_string(op) + " but instance is " +
                     trace::to_string(inst.op));
    }
    if (inst.root != root) {
      throw MpiError("collective root mismatch on '" + comm.name() + "' #" +
                     std::to_string(seq) + ": rank " + std::to_string(me) +
                     " used root " + std::to_string(root) + ", others used " +
                     std::to_string(inst.root));
    }
    if (inst.type != type) {
      throw MpiError("collective datatype mismatch on '" + comm.name() +
                     "' #" + std::to_string(seq));
    }
    if (inst.bytes_per_rank >= 0 && bytes >= 0 &&
        inst.bytes_per_rank != bytes) {
      throw MpiError("collective count mismatch on '" + comm.name() + "' #" +
                     std::to_string(seq) + ": " + std::to_string(bytes) +
                     " vs " + std::to_string(inst.bytes_per_rank) +
                     " bytes per rank");
    }
  }
  detail::CollRank& mine = inst.ranks[static_cast<std::size_t>(me)];
  mine.present = true;
  if (rop != trace::kNone) mine.rop = static_cast<ReduceOp>(rop);
  comm.coll_.arrive(inst, ctx_.now());
  if (root >= 0 && me == root) {
    inst.root_arrived = true;
    inst.root_enter = ctx_.now();
  }
  return inst;
}

void Proc::coll_all_wait(
    Comm& comm, CollInst& inst,
    const std::function<void(detail::CollInstance&)>& compute_outputs) {
  comm.coll_.release(ctx_, inst, comm.members_,
                     "MPI collective (waiting for all ranks)", [&] {
                       compute_outputs(inst);
                       return world_->cost().collective_time(
                           comm.size(), cost_bytes(inst));
                     });
}

void Proc::coll_root_source(Comm& comm, detail::CollInstance& inst,
                            void* out, std::int64_t capacity,
                            const char* wait_reason) {
  const int me = rank(comm);
  const int p = comm.size();
  detail::CollRank& mine = inst.ranks[static_cast<std::size_t>(me)];
  mine.out = out;
  mine.out_capacity = capacity;
  auto deliver = [&](const detail::CollRank& slot) {
    check_capacity(slot.slice_bytes, slot.out_capacity,
                   trace::to_string(inst.op));
    detail::copy_payload(slot.out, inst.root_data.data() + slot.slice_offset,
                         slot.slice_bytes);
  };
  if (me == inst.root) {
    std::int64_t widest = 0;
    for (const detail::CollRank& slot : inst.ranks) {
      widest = std::max(widest, slot.slice_bytes);
    }
    inst.root_cost = world_->cost().collective_time(p, widest);
    const VTime end = inst.root_enter + inst.root_cost;
    // Deliver to every already-waiting non-root and release it.
    for (int r = 0; r < p; ++r) {
      const detail::CollRank& slot = inst.ranks[static_cast<std::size_t>(r)];
      if (r == me || !slot.present) continue;
      deliver(slot);
      ctx_.engine().wake(comm.member(r), end);
    }
    deliver(mine);
    ctx_.advance_to(end);
  } else if (inst.root_arrived) {
    deliver(mine);
    ctx_.advance_to(later(ctx_.now(), inst.root_enter) + inst.root_cost);
  } else {
    ctx_.block(wait_reason);
  }
}

void Proc::coll_root_sink(
    Comm& comm, CollInst& inst, const void* sdata, std::int64_t sbytes,
    void* out,
    const std::function<void(detail::CollInstance&)>& finalize,
    const char* wait_reason) {
  const int me = rank(comm);
  const int p = comm.size();
  detail::CollRank& mine = inst.ranks[static_cast<std::size_t>(me)];
  mine.contrib.assign(static_cast<const std::byte*>(sdata),
                      static_cast<const std::byte*>(sdata) + sbytes);
  mine.send = mine.contrib.data();
  // The root leaves once the instance is complete, charged for the largest
  // contribution whichever rank completes it.
  auto root_end = [&] {
    return inst.max_enter +
           world_->cost().collective_time(p, cost_bytes(inst));
  };
  if (me == inst.root) {
    mine.out = out;
    if (inst.arrived == p) {
      finalize(inst);
      ctx_.advance_to(root_end());
    } else {
      inst.root_waiting = true;
      ctx_.block(wait_reason);
    }
    return;
  }
  if (inst.arrived == p && inst.root_waiting) {
    // We are the last contributor and the root is already blocked.
    finalize(inst);
    inst.root_waiting = false;
    ctx_.engine().wake(comm.member(inst.root), root_end());
  }
  // A non-root leaves at once, charged for what it knows: its own
  // contribution.
  ctx_.advance(world_->cost().collective_time(p, sbytes));
}

void Proc::coll_finish(Comm& comm, CollInst& inst, VTime enter_t,
                       std::int64_t bytes_in, std::int64_t bytes_out,
                       trace::RegionId region) {
  const std::int32_t root_loc =
      inst.root >= 0 ? comm.member(inst.root) : trace::kNone;
  world_->trace()->coll_end(ctx_.id(), ctx_.now(), enter_t, comm.trace_id(),
                            inst.seq, inst.op, root_loc, bytes_in, bytes_out);
  world_->trace()->exit(ctx_.id(), ctx_.now(), region);
  comm.coll_.leave(inst);
}

void Proc::world_barrier() {
  Comm& comm = world_->comm_world();
  CollInst& inst = coll_enter(comm, trace::CollOp::kBarrier, -1,
                              Datatype::kByte, 0, trace::kNone);
  coll_all_wait(comm, inst, [](detail::CollInstance&) {});
  comm.coll_.leave(inst);
}

// ------------------------------------------------------------ operations

void Proc::barrier(Comm& comm) {
  const trace::RegionId reg =
      world_->region("MPI_Barrier", trace::RegionKind::kMpiColl);
  CollInst& inst = coll_enter(comm, trace::CollOp::kBarrier, -1,
                              Datatype::kByte, 0, reg);
  const VTime enter_t = ctx_.now();
  coll_all_wait(comm, inst, [](detail::CollInstance&) {});
  coll_finish(comm, inst, enter_t, 0, 0, reg);
}

void Proc::bcast(void* data, int count, Datatype type, int root, Comm& comm) {
  const bool is_root = rank(comm) == root;
  const std::int64_t bytes = bytes_of(count, type);
  const trace::RegionId reg =
      world_->region("MPI_Bcast", trace::RegionKind::kMpiColl);
  CollInst& inst =
      coll_enter(comm, trace::CollOp::kBcast, root, type, bytes, reg);
  const VTime enter_t = ctx_.now();
  if (is_root) {
    // Every rank's slice is the whole buffer.
    inst.root_data.assign(static_cast<const std::byte*>(data),
                          static_cast<const std::byte*>(data) + bytes);
    for (detail::CollRank& slot : inst.ranks) slot.slice_bytes = bytes;
  }
  coll_root_source(comm, inst, data, bytes, "MPI_Bcast (waiting for root)");
  coll_finish(comm, inst, enter_t, is_root ? bytes : 0, is_root ? 0 : bytes,
              reg);
}

void Proc::scatter(const void* sdata, int scount, void* rdata, int rcount,
                   Datatype type, int root, Comm& comm) {
  const int p = comm.size();
  std::vector<int> counts;
  std::vector<int> displs;
  if (rank(comm) == root) {
    counts.assign(static_cast<std::size_t>(p), scount);
    displs.resize(static_cast<std::size_t>(p));
    for (int r = 0; r < p; ++r) {
      displs[static_cast<std::size_t>(r)] = r * scount;
    }
  }
  scatterv_impl(trace::CollOp::kScatter, sdata, counts, displs, rdata,
                rcount, type, root, comm);
}

void Proc::scatterv(const void* sdata, std::span<const int> scounts,
                    std::span<const int> displs, void* rdata, int rcount,
                    Datatype type, int root, Comm& comm) {
  scatterv_impl(trace::CollOp::kScatterv, sdata, scounts, displs, rdata,
                rcount, type, root, comm);
}

void Proc::scatterv_impl(trace::CollOp op, const void* sdata,
                         std::span<const int> scounts,
                         std::span<const int> displs, void* rdata, int rcount,
                         Datatype type, int root, Comm& comm) {
  const bool is_root = rank(comm) == root;
  const int p = comm.size();
  const std::int64_t rcap = bytes_of(rcount, type);
  const trace::RegionId reg = world_->region(
      op == trace::CollOp::kScatter ? "MPI_Scatter" : "MPI_Scatterv",
      trace::RegionKind::kMpiColl);
  CollInst& inst = coll_enter(comm, op, root, type, -1, reg);
  const VTime enter_t = ctx_.now();
  if (is_root) {
    const std::int64_t extent =
        stage_slices(inst, scounts, displs, p, "scatterv");
    inst.root_data.assign(static_cast<const std::byte*>(sdata),
                          static_cast<const std::byte*>(sdata) + extent);
  }
  coll_root_source(comm, inst, rdata, rcap,
                   "MPI_Scatterv (waiting for root)");
  coll_finish(comm, inst, enter_t, is_root ? rcap * p : 0, is_root ? 0 : rcap,
              reg);
}

void Proc::gather(const void* sdata, int scount, void* rdata, int rcount,
                  Datatype type, int root, Comm& comm) {
  const int p = comm.size();
  std::vector<int> counts;
  std::vector<int> displs;
  if (rank(comm) == root) {
    counts.assign(static_cast<std::size_t>(p), rcount);
    displs.resize(static_cast<std::size_t>(p));
    for (int r = 0; r < p; ++r) {
      displs[static_cast<std::size_t>(r)] = r * rcount;
    }
  }
  gatherv_impl(trace::CollOp::kGather, sdata, scount, rdata, counts, displs,
               type, root, comm);
}

void Proc::gatherv(const void* sdata, int scount, void* rdata,
                   std::span<const int> rcounts, std::span<const int> displs,
                   Datatype type, int root, Comm& comm) {
  gatherv_impl(trace::CollOp::kGatherv, sdata, scount, rdata, rcounts,
               displs, type, root, comm);
}

void Proc::gatherv_impl(trace::CollOp op, const void* sdata, int scount,
                        void* rdata, std::span<const int> rcounts,
                        std::span<const int> displs, Datatype type, int root,
                        Comm& comm) {
  const bool is_root = rank(comm) == root;
  const int p = comm.size();
  const std::int64_t sbytes = bytes_of(scount, type);
  const trace::RegionId reg = world_->region(
      op == trace::CollOp::kGather ? "MPI_Gather" : "MPI_Gatherv",
      trace::RegionKind::kMpiColl);
  CollInst& inst = coll_enter(comm, op, root, type, -1, reg);
  const VTime enter_t = ctx_.now();
  if (is_root) stage_slices(inst, rcounts, displs, p, "gatherv");

  coll_root_sink(
      comm, inst, sdata, sbytes, rdata,
      [](detail::CollInstance& ci) {
        auto* out = static_cast<std::byte*>(
            ci.ranks[static_cast<std::size_t>(ci.root)].out);
        for (std::size_t r = 0; r < ci.ranks.size(); ++r) {
          const detail::CollRank& slot = ci.ranks[r];
          const auto sent = static_cast<std::int64_t>(slot.contrib.size());
          if (sent != slot.slice_bytes) {
            throw MpiError("gatherv: rank " + std::to_string(r) + " sent " +
                           std::to_string(sent) + " bytes, root expected " +
                           std::to_string(slot.slice_bytes));
          }
          detail::copy_payload(out + slot.slice_offset, slot.send, sent);
        }
      },
      "MPI_Gatherv (root waiting for contributions)");
  coll_finish(comm, inst, enter_t, is_root ? 0 : sbytes,
              is_root ? sbytes * p : 0, reg);
}

void Proc::reduce(const void* sdata, void* rdata, int count, Datatype type,
                  ReduceOp rop, int root, Comm& comm) {
  const bool is_root = rank(comm) == root;
  const std::int64_t bytes = bytes_of(count, type);
  const trace::RegionId reg =
      world_->region("MPI_Reduce", trace::RegionKind::kMpiColl);
  CollInst& inst =
      coll_enter(comm, trace::CollOp::kReduce, root, type, bytes, reg,
                 static_cast<std::int32_t>(rop));
  const VTime enter_t = ctx_.now();
  coll_root_sink(
      comm, inst, sdata, bytes, rdata,
      [count](detail::CollInstance& ci) {
        fold_contributions(
            ci, ci.ranks[static_cast<std::size_t>(ci.root)].out, count, 0);
      },
      "MPI_Reduce (root waiting for contributions)");
  coll_finish(comm, inst, enter_t, is_root ? 0 : bytes, is_root ? bytes : 0,
              reg);
}

void Proc::allreduce(const void* sdata, void* rdata, int count, Datatype type,
                     ReduceOp rop, Comm& comm) {
  const std::int64_t bytes = bytes_of(count, type);
  const trace::RegionId reg =
      world_->region("MPI_Allreduce", trace::RegionKind::kMpiColl);
  CollInst& inst =
      coll_enter(comm, trace::CollOp::kAllreduce, -1, type, bytes, reg,
                 static_cast<std::int32_t>(rop));
  const VTime enter_t = ctx_.now();
  lend_buffers(inst, rank(comm), sdata, bytes, rdata, bytes);

  coll_all_wait(comm, inst, [count, bytes](detail::CollInstance& ci) {
    void* acc = ci.ranks.front().out;
    fold_contributions(ci, acc, count, 0);
    for (std::size_t r = 1; r < ci.ranks.size(); ++r) {
      detail::copy_payload(ci.ranks[r].out, acc, bytes);
    }
  });
  coll_finish(comm, inst, enter_t, bytes, bytes, reg);
}

void Proc::alltoall(const void* sdata, int scount, void* rdata, int rcount,
                    Datatype type, Comm& comm) {
  const int p = comm.size();
  const std::int64_t block = bytes_of(scount, type);
  require(scount == rcount, "alltoall: scount must equal rcount");
  const trace::RegionId reg =
      world_->region("MPI_Alltoall", trace::RegionKind::kMpiColl);
  CollInst& inst = coll_enter(comm, trace::CollOp::kAlltoall, -1,
                              type, block * p, reg);
  const VTime enter_t = ctx_.now();
  lend_buffers(inst, rank(comm), sdata, block * p, rdata, block * p);

  coll_all_wait(comm, inst, [block](detail::CollInstance& ci) {
    for (std::size_t i = 0; i < ci.ranks.size(); ++i) {
      auto* out = static_cast<std::byte*>(ci.ranks[i].out);
      for (std::size_t j = 0; j < ci.ranks.size(); ++j) {
        detail::copy_payload(out + block * static_cast<std::int64_t>(j),
                             ci.ranks[j].send +
                                 block * static_cast<std::int64_t>(i),
                             block);
      }
    }
  });
  coll_finish(comm, inst, enter_t, block * p, block * p, reg);
}

void Proc::allgather(const void* sdata, int scount, void* rdata, int rcount,
                     Datatype type, Comm& comm) {
  const int p = comm.size();
  const std::int64_t block = bytes_of(scount, type);
  require(scount == rcount, "allgather: scount must equal rcount");
  const trace::RegionId reg =
      world_->region("MPI_Allgather", trace::RegionKind::kMpiColl);
  CollInst& inst = coll_enter(comm, trace::CollOp::kAllgather, -1,
                              type, block, reg);
  const VTime enter_t = ctx_.now();
  lend_buffers(inst, rank(comm), sdata, block, rdata, block * p);

  coll_all_wait(comm, inst, [block](detail::CollInstance& ci) {
    for (const detail::CollRank& dst : ci.ranks) {
      auto* out = static_cast<std::byte*>(dst.out);
      for (std::size_t j = 0; j < ci.ranks.size(); ++j) {
        detail::copy_payload(out + block * static_cast<std::int64_t>(j),
                             ci.ranks[j].send, block);
      }
    }
  });
  coll_finish(comm, inst, enter_t, block, block * p, reg);
}

void Proc::scan(const void* sdata, void* rdata, int count, Datatype type,
                ReduceOp rop, Comm& comm) {
  const std::int64_t bytes = bytes_of(count, type);
  const trace::RegionId reg =
      world_->region("MPI_Scan", trace::RegionKind::kMpiColl);
  CollInst& inst =
      coll_enter(comm, trace::CollOp::kScan, -1, type, bytes, reg,
                 static_cast<std::int32_t>(rop));
  const VTime enter_t = ctx_.now();
  lend_buffers(inst, rank(comm), sdata, bytes, rdata, bytes);

  coll_all_wait(comm, inst, [count, bytes](detail::CollInstance& ci) {
    // Rank r's result is rank r - 1's result folded with rank r's buffer.
    detail::copy_payload(ci.ranks.front().out, ci.ranks.front().send, bytes);
    for (std::size_t r = 1; r < ci.ranks.size(); ++r) {
      detail::copy_payload(ci.ranks[r].out, ci.ranks[r - 1].out, bytes);
      reduce_combine(ci.ranks.front().rop, ci.type, ci.ranks[r].send,
                     ci.ranks[r].out, count);
    }
  });
  coll_finish(comm, inst, enter_t, bytes, bytes, reg);
}

void Proc::reduce_scatter_block(const void* sdata, void* rdata, int count,
                                Datatype type, ReduceOp rop, Comm& comm) {
  const int p = comm.size();
  const std::int64_t block = bytes_of(count, type);
  const trace::RegionId reg =
      world_->region("MPI_Reduce_scatter", trace::RegionKind::kMpiColl);
  CollInst& inst =
      coll_enter(comm, trace::CollOp::kReduceScatter, -1, type, block * p,
                 reg, static_cast<std::int32_t>(rop));
  const VTime enter_t = ctx_.now();
  lend_buffers(inst, rank(comm), sdata, block * p, rdata, block);

  coll_all_wait(comm, inst, [count, block](detail::CollInstance& ci) {
    // Block r of every rank's buffer folds straight into rank r's output.
    for (std::size_t r = 0; r < ci.ranks.size(); ++r) {
      fold_contributions(ci, ci.ranks[r].out, count,
                         block * static_cast<std::int64_t>(r));
    }
  });
  coll_finish(comm, inst, enter_t, block * p, block, reg);
}

// ------------------------------------------------- communicator management

Comm* Proc::split(Comm& comm, int color, int key) {
  const int me = rank(comm);
  const int p = comm.size();
  const trace::RegionId reg =
      world_->region("MPI_Comm_split", trace::RegionKind::kMpiOther);
  CollInst& inst = coll_enter(comm, trace::CollOp::kCommSplit, -1,
                              Datatype::kInt32, 8, reg);
  const VTime enter_t = ctx_.now();
  detail::CollRank& mine = inst.ranks[static_cast<std::size_t>(me)];
  mine.color = color;
  mine.key = key;

  coll_all_wait(comm, inst, [&, p](detail::CollInstance& ci) {
    auto slot = [&](int r) -> detail::CollRank& {
      return ci.ranks[static_cast<std::size_t>(r)];
    };
    // Group ranks by color; order each group by (key, old rank).
    std::vector<int> colors_seen;
    for (int r = 0; r < p; ++r) {
      const int c = slot(r).color;
      if (c == kUndefined) continue;
      if (std::find(colors_seen.begin(), colors_seen.end(), c) ==
          colors_seen.end()) {
        colors_seen.push_back(c);
      }
    }
    std::sort(colors_seen.begin(), colors_seen.end());
    for (int c : colors_seen) {
      std::vector<int> group;
      for (int r = 0; r < p; ++r) {
        if (slot(r).color == c) group.push_back(r);
      }
      std::stable_sort(group.begin(), group.end(), [&](int a, int b) {
        return slot(a).key < slot(b).key;
      });
      std::vector<simt::LocationId> members;
      members.reserve(group.size());
      for (int r : group) members.push_back(comm.member(r));
      Comm& sub = world_->create_comm(
          std::move(members),
          comm.name() + ".split(c=" + std::to_string(c) + ")");
      for (int r : group) slot(r).split_result = &sub;
    }
  });
  Comm* result = mine.split_result;
  coll_finish(comm, inst, enter_t, 8, 8, reg);
  return result;
}

Comm& Proc::dup(Comm& comm) {
  const int me = rank(comm);
  const trace::RegionId reg =
      world_->region("MPI_Comm_dup", trace::RegionKind::kMpiOther);
  CollInst& inst = coll_enter(comm, trace::CollOp::kCommDup, -1,
                              Datatype::kInt32, 0, reg);
  const VTime enter_t = ctx_.now();
  coll_all_wait(comm, inst, [&](detail::CollInstance& ci) {
    std::vector<simt::LocationId> members;
    for (int r = 0; r < comm.size(); ++r) members.push_back(comm.member(r));
    Comm& sub = world_->create_comm(std::move(members), comm.name() + ".dup");
    for (detail::CollRank& slot : ci.ranks) slot.split_result = &sub;
  });
  Comm* result = inst.ranks[static_cast<std::size_t>(me)].split_result;
  coll_finish(comm, inst, enter_t, 0, 0, reg);
  return *result;
}

}  // namespace ats::mpi
