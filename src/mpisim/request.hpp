// Non-blocking operation handles for the simulated MPI.
#pragma once

#include <cstdint>
#include <memory>

#include "common/vtime.hpp"
#include "simt/engine.hpp"
#include "trace/trace.hpp"

namespace ats::mpi {

/// Completion information for a receive (source/tag resolve wildcards).
struct Status {
  int source = -1;
  int tag = -1;
  std::int64_t bytes = 0;
  int count = 0;
};

/// Shared state of a pending isend/irecv (and of a blocking recv while it
/// waits).  The initiating rank holds the Request; the completing rank (the
/// matching peer) fills the state.
struct RequestState {
  bool done = false;
  bool is_recv = false;
  /// Receives: the trace Recv record was already emitted (by wait or test).
  bool recv_traced = false;
  VTime complete_at;
  Status status;
  /// For the trace Recv record emitted when a recv request completes.
  trace::CommId comm_tid = trace::kNone;
  trace::LocId peer_loc = trace::kNone;
  /// Location blocked in wait() on this request, if any.
  simt::LocationId waiter = simt::kNoLocation;
};

/// Value-semantic handle; copies refer to the same operation.
class Request {
 public:
  Request() = default;
  explicit Request(std::shared_ptr<RequestState> st) : st_(std::move(st)) {}

  bool valid() const { return st_ != nullptr; }
  RequestState* state() { return st_.get(); }
  const RequestState* state() const { return st_.get(); }

 private:
  std::shared_ptr<RequestState> st_;
};

}  // namespace ats::mpi
