// Communicators and their matching/collective state.
//
// A Comm owns everything that is scoped to an MPI communicator: the member
// group (global engine locations, position == rank), the point-to-point
// matching queues, and in-flight collective instances.  All mutation happens
// while the acting location holds the engine token, so no locks are needed
// (see simt/engine.hpp).
#pragma once

#include <cstdint>
#include <cstring>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/vtime.hpp"
#include "mpisim/datatype.hpp"
#include "mpisim/request.hpp"
#include "simt/engine.hpp"
#include "simt/gate.hpp"
#include "trace/trace.hpp"

namespace ats::mpi {

class World;
class Comm;

/// Wildcards for receive matching.
inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;
/// MPI_UNDEFINED equivalent for Comm split colors.
inline constexpr int kUndefined = -32766;

namespace detail {

/// Copies a message or collective payload.  A zero-count buffer may be null,
/// and memcpy with a null pointer is undefined even for zero bytes.
inline void copy_payload(void* dst, const void* src, std::int64_t bytes) {
  if (bytes > 0) std::memcpy(dst, src, static_cast<std::size_t>(bytes));
}

/// A message whose receive has not been posted yet (unexpected queue), or a
/// rendezvous offer whose sender is blocked.
struct PendingMsg {
  int src_rank = -1;
  int tag = -1;
  Datatype type = Datatype::kByte;
  std::vector<std::byte> payload;
  bool rendezvous = false;
  /// Eager: when the payload is available at the receiver.
  VTime avail;
  /// Rendezvous: when the sender became ready to transfer.
  VTime sender_ready;
  /// Rendezvous: the sender to wake (blocking ssend) ...
  simt::LocationId sender_loc = simt::kNoLocation;
  /// ... or the send request to complete (isend).
  std::shared_ptr<RequestState> send_req;
};

/// A blocked MPI_Probe waiting for a matching envelope.
struct ProbeWaiter {
  int src = kAnySource;
  int tag = kAnyTag;
  simt::LocationId loc = simt::kNoLocation;
  std::shared_ptr<RequestState> st;  ///< carries the resulting Status
};

/// A posted receive waiting for a matching message.  The sender that
/// matches it completes `req`, which wakes a receiver blocked on it.
struct PendingRecv {
  int src = kAnySource;
  int tag = kAnyTag;
  void* data = nullptr;
  std::int64_t capacity_bytes = 0;
  /// When the receiver posted (enter time + overhead).
  VTime posted_at;
  std::shared_ptr<RequestState> req;
};

/// One rank's part in a collective instance.
struct CollRank {
  bool present = false;
  /// Reducing ops: this rank's reduce op.  Rank 0's applies to all.
  ReduceOp rop = ReduceOp::kSum;
  /// The send buffer every reader uses: the caller's own for all-to-all
  /// ops (read in place, see coll.cpp), `contrib` for root-sink ops.
  const std::byte* send = nullptr;
  std::vector<std::byte> contrib;  ///< root-sink: send buffer staged
  void* out = nullptr;             ///< receive buffer
  std::int64_t out_capacity = 0;   ///< root-source: receive buffer bytes
  /// Rooted ops: this rank's slice of the root's buffer, in bytes, as the
  /// root declared it (whole buffer for bcast, counts/displs for the rest).
  std::int64_t slice_offset = 0;
  std::int64_t slice_bytes = 0;
  int color = 0, key = 0;          ///< comm_split arguments
  Comm* split_result = nullptr;    ///< comm_split / dup result
};

/// The payload of one in-flight collective instance on a communicator; its
/// sequence number, arrivals and latest enter live in the arrival gate.
struct CollInstance {
  trace::CollOp op = trace::CollOp::kBarrier;
  int root = -1;
  VTime root_enter;
  bool root_arrived = false;
  /// Root-sink ops: the root is blocked waiting for contributions.
  bool root_waiting = false;
  /// Root-source ops: the one cost of the instance, staged by the root.
  VDur root_cost;
  Datatype type = Datatype::kByte;
  std::int64_t bytes_per_rank = 0;
  std::vector<std::byte> root_data;  ///< root-source: the root's buffer
  std::vector<CollRank> ranks;       ///< indexed by rank
};

using CollGate = simt::ArrivalGate<CollInstance>;

}  // namespace detail

/// An MPI communicator over a fixed group of engine locations.
class Comm {
 public:
  int size() const { return static_cast<int>(members_.size()); }
  const std::string& name() const { return name_; }
  trace::CommId trace_id() const { return trace_id_; }

  /// Global engine location of `rank` (checked).
  simt::LocationId member(int rank) const;
  /// Rank of `loc` within this comm, or -1 if not a member.
  int rank_of(simt::LocationId loc) const;

 private:
  friend class World;
  friend class Proc;

  Comm(World* world, std::vector<simt::LocationId> members, std::string name,
       trace::CommId trace_id);

  World* world_;
  std::vector<simt::LocationId> members_;
  std::string name_;
  trace::CommId trace_id_;

  // rank_of is on the per-operation fast path (every Proc call resolves the
  // caller's rank); a linear member scan made it O(comm size) — quadratic
  // over a weak-scale run.  Comms made of consecutive locations (the
  // overwhelmingly common case: comm_world, most splits) resolve with one
  // subtraction; others fall back to a hash index built at construction.
  bool contiguous_ = false;
  std::unordered_map<simt::LocationId, int> rank_index_;

  // --- point-to-point matching state (indexed by destination rank) ------
  std::vector<std::deque<detail::PendingMsg>> unexpected_;
  std::vector<std::deque<detail::PendingRecv>> posted_;
  std::vector<std::vector<detail::ProbeWaiter>> probing_;

  // --- collective state: instance k is every rank's k-th collective ------
  detail::CollGate coll_;
};

}  // namespace ats::mpi
