// Point-to-point operations of the simulated MPI.
//
// Protocols: messages up to CostModel::eager_threshold bytes are *eager* —
// the sender deposits the payload and returns; the receive completes at
// max(post time, arrival time).  Larger messages (and every ssend)
// *rendezvous*: the transfer starts only when both sides are ready, and the
// sender blocks (or its isend request stays open) until then.  This is what
// makes the paper's late_receiver property expressible: under rendezvous a
// sender whose receiver is late is demonstrably blocked.
//
// One send path (send_message) serves send, ssend and isend: it delivers
// into a matching posted receive or queues the message as unexpected, and
// only its last step differs — a blocking send advances or blocks, an isend
// fills its request.  recv and irecv share their receive path: begin_receive
// takes a matching unexpected message, which complete_unexpected receives,
// or post_receive queues the receive for the matching send to complete.
// Together these are the only places a point-to-point wait state is
// decided.
#include <algorithm>

#include "mpisim/world.hpp"

namespace ats::mpi {

namespace {

std::int64_t payload_bytes(int count, Datatype type) {
  require(count >= 0, "negative element count");
  return static_cast<std::int64_t>(count) *
         static_cast<std::int64_t>(datatype_size(type));
}

int element_count(std::int64_t bytes, Datatype type) {
  return static_cast<int>(bytes /
                          static_cast<std::int64_t>(datatype_size(type)));
}

/// MPI envelope matching: a receive or probe for (src, tag), either of
/// which may be a wildcard, takes a message from `msg_src` with `msg_tag`.
bool envelope_matches(int src, int tag, int msg_src, int msg_tag) {
  return (src == kAnySource || src == msg_src) &&
         (tag == kAnyTag || tag == msg_tag);
}

/// The Status a queued message reports, counted in its own datatype.
Status status_of(const detail::PendingMsg& m) {
  const auto bytes = static_cast<std::int64_t>(m.payload.size());
  return Status{m.src_rank, m.tag, bytes, element_count(bytes, m.type)};
}

/// The Status a receive of `m` reports, counted in the receive's datatype.
Status received_status(const detail::PendingMsg& m, Datatype as) {
  Status st = status_of(m);
  st.count = element_count(st.bytes, as);
  return st;
}

/// When a queued message is visible to a probe and receivable: eager at its
/// arrival, rendezvous as soon as the sender is ready.
VTime visible_at(const detail::PendingMsg& m) {
  return m.rendezvous ? m.sender_ready : m.avail;
}

/// Removes and returns the first entry of `q` accepted by `pred` (FIFO
/// order is MPI's non-overtaking rule).
template <class T, class Pred>
std::optional<T> take_first(std::deque<T>& q, Pred pred) {
  const auto it = std::find_if(q.begin(), q.end(), pred);
  if (it == q.end()) return std::nullopt;
  T v = std::move(*it);
  q.erase(it);
  return v;
}

}  // namespace

void Proc::complete_request(RequestState& st, VTime at, const Status& status) {
  st.done = true;
  st.complete_at = at;
  st.status = status;
  if (st.waiter != simt::kNoLocation) {
    ctx_.engine().wake(st.waiter, at);
  }
}

// ------------------------------------------------------------------- send

void Proc::send(const void* data, int count, Datatype type, int dest,
                int tag, Comm& comm) {
  send_message(data, count, type, dest, tag, comm, "MPI_Send",
               /*force_sync=*/false, nullptr);
}

void Proc::ssend(const void* data, int count, Datatype type, int dest,
                 int tag, Comm& comm) {
  send_message(data, count, type, dest, tag, comm, "MPI_Ssend",
               /*force_sync=*/true, nullptr);
}

Request Proc::isend(const void* data, int count, Datatype type, int dest,
                    int tag, Comm& comm) {
  auto st = std::make_shared<RequestState>();
  send_message(data, count, type, dest, tag, comm, "MPI_Isend",
               /*force_sync=*/false, st);
  return Request(st);
}

void Proc::send_message(const void* data, int count, Datatype type, int dest,
                        int tag, Comm& comm, const char* region,
                        bool force_sync,
                        const std::shared_ptr<RequestState>& req) {
  const int me = rank(comm);
  comm.member(dest);  // range check
  require(tag >= 0, "send: tag must be non-negative");
  const std::int64_t bytes = payload_bytes(count, type);
  auto* tr = world_->trace();
  const trace::RegionId reg =
      world_->region(region, trace::RegionKind::kMpiP2P);
  const CostModel& cm = world_->cost();

  ctx_.yield();  // act in global virtual-time order
  tr->enter(ctx_.id(), ctx_.now(), reg);
  ctx_.advance(cm.send_overhead);
  tr->send(ctx_.id(), ctx_.now(), comm.member(dest), tag, comm.trace_id(),
           bytes);
  const Status st_out{me, tag, bytes, count};

  // The sender's part ends now (eager, or lost in flight), at the end of a
  // rendezvous transfer it joins, or — for a rendezvous offer left queued —
  // when a receive takes the offer.
  std::optional<VTime> transfer_end;
  bool offered = false;
  // Injected network fault: the traced send vanishes in flight.  The
  // sender's completion is modelled eagerly (the payload left its buffer);
  // the receiver simply never sees the message.
  if (!world_->fault_drop_send(world_rank_, ctx_.now())) {
    const bool eager =
        !force_sync && bytes <= static_cast<std::int64_t>(cm.eager_threshold);
    const VDur transfer = cm.p2p_latency + cm.transfer_time(bytes);
    if (auto pr = take_first(
            comm.posted_[static_cast<std::size_t>(dest)],
            [&](const detail::PendingRecv& r) {
              return envelope_matches(r.src, r.tag, me, tag);
            })) {
      if (bytes > pr->capacity_bytes) {
        throw MpiError("message truncation: rank " + std::to_string(me) +
                       " sent " + std::to_string(bytes) + " bytes, rank " +
                       std::to_string(dest) + " posted only " +
                       std::to_string(pr->capacity_bytes));
      }
      const VTime arrival =
          eager ? later(ctx_.now() + transfer, pr->posted_at)
                : later(ctx_.now(), pr->posted_at) + transfer;
      if (!eager) transfer_end = arrival;
      detail::copy_payload(pr->data, data, bytes);
      pr->req->peer_loc = ctx_.id();
      complete_request(*pr->req, arrival, st_out);
    } else {
      detail::PendingMsg m;
      m.src_rank = me;
      m.tag = tag;
      m.type = type;
      m.payload.assign(static_cast<const std::byte*>(data),
                       static_cast<const std::byte*>(data) + bytes);
      m.rendezvous = !eager;
      if (eager) {
        m.avail = ctx_.now() + transfer;
      } else {
        m.sender_ready = ctx_.now();
        if (req) {
          m.send_req = req;
        } else {
          m.sender_loc = ctx_.id();
        }
        offered = true;
      }
      enqueue_unexpected(comm, dest, std::move(m));
    }
  }

  if (req) {
    // A queued offer's request is completed by the receive that takes it.
    if (!offered) {
      complete_request(*req, transfer_end.value_or(ctx_.now()), st_out);
    }
  } else if (offered) {
    ctx_.block("MPI_Send (rendezvous, waiting for receiver)");
    // Woken by the matching receive at transfer completion.
  } else if (transfer_end) {
    ctx_.advance_to(*transfer_end);  // the sender participates in the transfer
  }
  tr->exit(ctx_.id(), ctx_.now(), reg);
}

// ------------------------------------------------------------------- recv

std::optional<detail::PendingMsg> Proc::begin_receive(int src, int tag,
                                                      Comm& comm,
                                                      trace::RegionId region) {
  const int me = rank(comm);
  if (src != kAnySource) comm.member(src);  // range check
  ctx_.yield();
  world_->trace()->enter(ctx_.id(), ctx_.now(), region);
  ctx_.advance(world_->cost().recv_overhead);
  return take_first(comm.unexpected_[static_cast<std::size_t>(me)],
                    [&](const detail::PendingMsg& m) {
                      return envelope_matches(src, tag, m.src_rank, m.tag);
                    });
}

VTime Proc::complete_unexpected(detail::PendingMsg& m, void* data,
                                std::int64_t capacity) {
  const Status st = status_of(m);
  if (st.bytes > capacity) {
    throw MpiError("message truncation: received " + std::to_string(st.bytes) +
                   " bytes into a " + std::to_string(capacity) +
                   "-byte buffer");
  }
  VTime end;
  if (!m.rendezvous) {
    end = later(ctx_.now(), m.avail);
  } else {
    const CostModel& cm = world_->cost();
    end = later(ctx_.now(), m.sender_ready) + cm.p2p_latency +
          cm.transfer_time(st.bytes);
    if (m.sender_loc != simt::kNoLocation) {
      ctx_.engine().wake(m.sender_loc, end);
    } else if (m.send_req) {
      complete_request(*m.send_req, end, st);
    }
  }
  detail::copy_payload(data, m.payload.data(), st.bytes);
  return end;
}

void Proc::post_receive(void* data, std::int64_t capacity, int src, int tag,
                        Comm& comm, std::shared_ptr<RequestState> req) {
  detail::PendingRecv pr;
  pr.src = src;
  pr.tag = tag;
  pr.data = data;
  pr.capacity_bytes = capacity;
  pr.posted_at = ctx_.now();
  pr.req = std::move(req);
  comm.posted_[static_cast<std::size_t>(rank(comm))].push_back(std::move(pr));
}

void Proc::recv(void* data, int count, Datatype type, int src, int tag,
                Comm& comm, Status* status) {
  const std::int64_t capacity = payload_bytes(count, type);
  auto* tr = world_->trace();
  const trace::RegionId reg =
      world_->region("MPI_Recv", trace::RegionKind::kMpiP2P);
  Status got;
  trace::LocId peer = trace::kNone;
  if (auto m = begin_receive(src, tag, comm, reg)) {
    ctx_.advance_to(complete_unexpected(*m, data, capacity));
    got = received_status(*m, type);
    peer = comm.member(m->src_rank);
  } else {
    auto st = std::make_shared<RequestState>();
    post_receive(data, capacity, src, tag, comm, st);
    st->waiter = ctx_.id();
    ctx_.block("MPI_Recv (waiting for message)");
    got = st->status;
    peer = st->peer_loc;
  }
  tr->recv(ctx_.id(), ctx_.now(), peer, got.tag, comm.trace_id(), got.bytes);
  tr->exit(ctx_.id(), ctx_.now(), reg);
  if (status != nullptr) *status = got;
}

Request Proc::irecv(void* data, int count, Datatype type, int src, int tag,
                    Comm& comm) {
  const std::int64_t capacity = payload_bytes(count, type);
  const trace::RegionId reg =
      world_->region("MPI_Irecv", trace::RegionKind::kMpiP2P);
  auto st = std::make_shared<RequestState>();
  st->is_recv = true;
  st->comm_tid = comm.trace_id();
  if (auto m = begin_receive(src, tag, comm, reg)) {
    st->peer_loc = comm.member(m->src_rank);
    complete_request(*st, complete_unexpected(*m, data, capacity),
                     received_status(*m, type));
  } else {
    post_receive(data, capacity, src, tag, comm, st);
  }
  world_->trace()->exit(ctx_.id(), ctx_.now(), reg);
  return Request(std::move(st));
}

// ----------------------------------------------------------------- wait

void Proc::wait(Request& req, Status* status) {
  require(req.valid(), "wait on an invalid request");
  RequestState* st = req.state();
  auto* tr = world_->trace();
  const trace::RegionId reg =
      world_->region("MPI_Wait", trace::RegionKind::kMpiP2P);

  ctx_.yield();
  tr->enter(ctx_.id(), ctx_.now(), reg);
  if (!st->done) {
    st->waiter = ctx_.id();
    ctx_.block("MPI_Wait");
    st->waiter = simt::kNoLocation;
  }
  ctx_.advance_to(st->complete_at);
  if (st->is_recv && !st->recv_traced) {
    st->recv_traced = true;
    tr->recv(ctx_.id(), ctx_.now(), st->peer_loc, st->status.tag,
             st->comm_tid, st->status.bytes);
  }
  if (status != nullptr) *status = st->status;
  tr->exit(ctx_.id(), ctx_.now(), reg);
}

void Proc::waitall(std::span<Request> reqs) {
  for (auto& r : reqs) wait(r);
}

bool Proc::test(Request& req, Status* status) {
  require(req.valid(), "test on an invalid request");
  RequestState* st = req.state();
  ctx_.yield();
  if (!st->done || st->complete_at > ctx_.now()) return false;
  if (st->is_recv && !st->recv_traced) {
    st->recv_traced = true;
    world_->trace()->recv(ctx_.id(), ctx_.now(), st->peer_loc,
                          st->status.tag, st->comm_tid, st->status.bytes);
  }
  if (status != nullptr) *status = st->status;
  return true;
}

void Proc::enqueue_unexpected(Comm& comm, int dest,
                              detail::PendingMsg msg) {
  const VTime visible = visible_at(msg);
  const Status st = status_of(msg);
  comm.unexpected_[static_cast<std::size_t>(dest)].push_back(std::move(msg));
  auto& waiters = comm.probing_[static_cast<std::size_t>(dest)];
  for (auto it = waiters.begin(); it != waiters.end();) {
    if (envelope_matches(it->src, it->tag, st.source, st.tag)) {
      it->st->status = st;
      it->st->done = true;
      it->st->complete_at = visible;
      ctx_.engine().wake(it->loc, visible);
      it = waiters.erase(it);
    } else {
      ++it;
    }
  }
}

void Proc::send_packed(const void* data, const Layout& layout, int dest,
                       int tag, Comm& comm) {
  const std::vector<std::byte> packed = layout.pack(data);
  send(packed.data(), layout.element_count(), layout.base(), dest, tag,
       comm);
}

void Proc::recv_packed(void* data, const Layout& layout, int src, int tag,
                       Comm& comm, Status* status) {
  std::vector<std::byte> packed(
      static_cast<std::size_t>(layout.packed_bytes()));
  recv(packed.data(), layout.element_count(), layout.base(), src, tag, comm,
       status);
  layout.unpack(packed, data);
}

void Proc::probe(int src, int tag, Comm& comm, Status* status) {
  const int me = rank(comm);
  if (src != kAnySource) comm.member(src);
  auto* tr = world_->trace();
  const trace::RegionId reg =
      world_->region("MPI_Probe", trace::RegionKind::kMpiP2P);
  ctx_.yield();
  tr->enter(ctx_.id(), ctx_.now(), reg);
  const auto& q = comm.unexpected_[static_cast<std::size_t>(me)];
  const auto it =
      std::find_if(q.begin(), q.end(), [&](const detail::PendingMsg& m) {
        return envelope_matches(src, tag, m.src_rank, m.tag);
      });
  Status st_out;
  if (it != q.end()) {
    st_out = status_of(*it);
    ctx_.advance_to(visible_at(*it));
  } else {
    detail::ProbeWaiter w;
    w.src = src;
    w.tag = tag;
    w.loc = ctx_.id();
    w.st = std::make_shared<RequestState>();
    comm.probing_[static_cast<std::size_t>(me)].push_back(w);
    ctx_.block("MPI_Probe (waiting for a matching envelope)");
    st_out = w.st->status;
  }
  tr->exit(ctx_.id(), ctx_.now(), reg);
  if (status != nullptr) *status = st_out;
}

bool Proc::iprobe(int src, int tag, Comm& comm, Status* status) {
  const int me = rank(comm);
  if (src != kAnySource) comm.member(src);
  ctx_.yield();
  for (const auto& m : comm.unexpected_[static_cast<std::size_t>(me)]) {
    if (!envelope_matches(src, tag, m.src_rank, m.tag)) continue;
    if (visible_at(m) > ctx_.now()) continue;  // not arrived yet
    if (status != nullptr) *status = status_of(m);
    return true;
  }
  return false;
}

void Proc::sendrecv(const void* sdata, int scount, Datatype stype, int dest,
                    int stag, void* rdata, int rcount, Datatype rtype,
                    int src, int rtag, Comm& comm, Status* status) {
  auto* tr = world_->trace();
  const trace::RegionId reg =
      world_->region("MPI_Sendrecv", trace::RegionKind::kMpiP2P);
  ctx_.yield();
  tr->enter(ctx_.id(), ctx_.now(), reg);
  Request r = irecv(rdata, rcount, rtype, src, rtag, comm);
  send(sdata, scount, stype, dest, stag, comm);
  wait(r, status);
  tr->exit(ctx_.id(), ctx_.now(), reg);
}

}  // namespace ats::mpi
