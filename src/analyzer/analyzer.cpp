#include "analyzer/analyzer.hpp"

#include <algorithm>
#include <bit>
#include <map>
#include <numeric>
#include <string_view>
#include <unordered_map>

#include "common/error.hpp"
#include "common/strutil.hpp"

namespace ats::analyze {

bool AnalyzerOptions::is_disabled(PropertyId p) const {
  return std::find(disabled_patterns.begin(), disabled_patterns.end(), p) !=
         disabled_patterns.end();
}

std::bitset<kPropertyCount> AnalyzerOptions::disabled_mask() const {
  std::bitset<kPropertyCount> mask;
  for (PropertyId p : disabled_patterns) {
    mask.set(static_cast<std::size_t>(p));
  }
  return mask;
}

// ------------------------------------------------------------ SeverityCube

SeverityCube::SeverityCube(std::size_t nlocs)
    : nlocs_(nlocs),
      cells_(kPropertyCount),
      index_(kPropertyCount),
      zeros_(nlocs, VDur::zero()) {}

const SeverityCube::Cell* SeverityCube::find_cell(PropertyId p,
                                                  NodeId n) const {
  const auto& idx = index_[static_cast<std::size_t>(p)];
  const auto it = idx.find(n);
  if (it == idx.end()) return nullptr;
  return &cells_[static_cast<std::size_t>(p)][it->second];
}

std::vector<VDur>& SeverityCube::row(PropertyId p, NodeId n) {
  auto& list = cells_[static_cast<std::size_t>(p)];
  auto& idx = index_[static_cast<std::size_t>(p)];
  const auto [it, inserted] =
      idx.emplace(n, static_cast<std::uint32_t>(list.size()));
  if (inserted) list.push_back(Cell{n, std::vector<VDur>(nlocs_)});
  return list[it->second].per_loc;
}

void SeverityCube::add(PropertyId p, NodeId n, trace::LocId loc, VDur d) {
  if (d <= VDur::zero()) return;
  row(p, n)[static_cast<std::size_t>(loc)] += d;
}

void SeverityCube::add_row(PropertyId p, NodeId n,
                           std::span<const VDur> per_loc) {
  std::size_t l = 0;
  while (l < per_loc.size() && per_loc[l] <= VDur::zero()) ++l;
  if (l == per_loc.size()) return;
  std::vector<VDur>& cell = row(p, n);
  for (; l < per_loc.size(); ++l) {
    if (per_loc[l] > VDur::zero()) cell[l] += per_loc[l];
  }
}

VDur SeverityCube::at(PropertyId p, NodeId n, trace::LocId loc) const {
  const Cell* cell = find_cell(p, n);
  return cell ? cell->per_loc[static_cast<std::size_t>(loc)] : VDur::zero();
}

VDur SeverityCube::node_total(PropertyId p, NodeId n) const {
  const Cell* cell = find_cell(p, n);
  VDur sum = VDur::zero();
  if (cell) {
    for (const auto& d : cell->per_loc) sum += d;
  }
  return sum;
}

VDur SeverityCube::total(PropertyId p) const {
  VDur sum = VDur::zero();
  for (const auto& cell : cells_[static_cast<std::size_t>(p)]) {
    for (const auto& d : cell.per_loc) sum += d;
  }
  return sum;
}

VDur SeverityCube::subtree_total(PropertyId p) const {
  VDur sum = total(p);
  for (PropertyId c : property_children(p)) sum += subtree_total(c);
  return sum;
}

std::vector<NodeId> SeverityCube::nodes_of(PropertyId p) const {
  std::vector<NodeId> out;
  for (const auto& cell : cells_[static_cast<std::size_t>(p)]) {
    out.push_back(cell.node);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::span<const VDur> SeverityCube::locations_of(PropertyId p,
                                                NodeId n) const {
  const Cell* cell = find_cell(p, n);
  return cell ? cell->per_loc : zeros_;
}

void SeverityCube::for_each(
    const std::function<void(PropertyId, NodeId, trace::LocId, VDur)>& fn)
    const {
  std::vector<std::uint32_t> order;
  for (PropertyId p : property_preorder()) {
    const auto& list = cells_[static_cast<std::size_t>(p)];
    order.resize(list.size());
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t x, std::uint32_t y) {
                return list[x].node < list[y].node;
              });
    for (std::uint32_t i : order) {
      const Cell& cell = list[i];
      for (std::size_t l = 0; l < cell.per_loc.size(); ++l) {
        if (cell.per_loc[l] <= VDur::zero()) continue;
        fn(p, cell.node, static_cast<trace::LocId>(l), cell.per_loc[l]);
      }
    }
  }
}

// -------------------------------------------------------------- DataQuality

bool DataQuality::clean() const {
  return events_dropped == 0 && events_repaired == 0 &&
         unbalanced_exits == 0 && unmatched_sends == 0 &&
         unmatched_recvs == 0 && incomplete_collectives == 0 &&
         negative_waits_clamped == 0 && skewed_messages == 0 &&
         unsorted_locations == 0 && !clock_skew_detected;
}

// ----------------------------------------------------------- AnalysisResult

std::optional<Finding> AnalysisResult::dominant(bool include_overhead) const {
  for (const Finding& f : findings) {
    if (!include_overhead && property_info(f.prop).is_overhead) continue;
    return f;
  }
  return std::nullopt;
}

double AnalysisResult::severity_fraction(PropertyId p) const {
  if (total_time <= VDur::zero()) return 0.0;
  return cube.subtree_total(p) / total_time;
}

// ----------------------------------------------------------------- replay

namespace {

struct StackEntry {
  NodeId node;
  VTime enter;
  trace::RegionId region;
};

/// A send waiting for its receive.  It remembers its entry in the
/// pending-send FIFO of its (comm, dst) pair so matching can mark it.
struct SendRec {
  VTime t;
  std::uint32_t pend_queue;
  std::uint32_t pend_node;
};

/// An unmatched send time in a (comm, dst) pending FIFO; matched sends are
/// marked erased and popped once they reach the head.
struct PendingSend {
  VTime t;
  bool erased = false;
};

/// A receive completion seen before its send record (possible at equal
/// timestamps when the receiver's location id sorts first).
struct OrphanRecv {
  VTime t;
  VTime recv_enter;
  NodeId recv_node;
  trace::LocId loc;
};

struct SendInterval {
  VTime enter;   // send event time (after the send overhead)
  VTime exit;    // region exit
  NodeId node;
  bool closed = false;
};

struct LrCandidate {
  trace::LocId send_loc;
  VTime send_t;
  VTime recv_enter;
};

struct CollRec {
  trace::LocId loc;
  VTime enter;
  VTime exit;
  NodeId node;
  trace::RegionKind encl_kind;
  trace::RegionId encl_region;  ///< kNone outside any region
};

/// 128-bit packed hash key for the replay's hot lookup tables (message
/// matching, collective grouping).  Replaces tuple-keyed std::maps: the
/// replay performs one lookup per send/recv/coll event, and the red-black
/// tree walk plus tuple comparisons dominated the replay profile.
struct Key128 {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  bool operator==(const Key128&) const = default;
};

/// (comm, src, dst, tag) — the message-matching key.
Key128 msg_key(std::int32_t comm, std::int32_t src, std::int32_t dst,
               std::int32_t tag) {
  Key128 k;
  k.a = (static_cast<std::uint64_t>(static_cast<std::uint32_t>(comm)) << 32) |
        static_cast<std::uint32_t>(src);
  k.b = (static_cast<std::uint64_t>(static_cast<std::uint32_t>(dst)) << 32) |
        static_cast<std::uint32_t>(tag);
  return k;
}

/// A (comm, x) pair key: collective grouping (x = seq) and the pending-send
/// set (x = destination loc).
Key128 pair_key(std::int32_t comm, std::int64_t x) {
  Key128 k;
  k.a = static_cast<std::uint32_t>(comm);
  k.b = static_cast<std::uint64_t>(x);
  return k;
}

struct Key128Hash {
  static std::uint64_t mix(std::uint64_t x) {
    // splitmix64 finaliser
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return x;
  }
  std::size_t operator()(const Key128& k) const {
    return static_cast<std::size_t>(mix(k.a ^ mix(k.b)));
  }
};

/// Growable open-addressing Key128 -> dense id index: ids are handed out in
/// first-use order, so per-key replay state lives in flat vectors indexed
/// by id, and a lookup is a hash plus a short probe that never allocates a
/// node.
class KeyIndex {
 public:
  explicit KeyIndex(std::size_t expected) {
    rehash(std::bit_ceil(2 * expected + 2));
  }

  /// The id of `key`, assigned on first use.
  std::uint32_t id(const Key128& key) {
    std::size_t i = slot_of(key);
    if (slots_[i] == kAbsent) {
      if (2 * (keys_.size() + 1) > slots_.size()) {
        rehash(2 * slots_.size());
        i = slot_of(key);
      }
      slots_[i] = static_cast<std::uint32_t>(keys_.size());
      keys_.push_back(key);
    }
    return slots_[i];
  }

 private:
  std::size_t slot_of(const Key128& key) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = Key128Hash{}(key) & mask;
    while (slots_[i] != kAbsent && keys_[slots_[i]] != key) i = (i + 1) & mask;
    return i;
  }

  void rehash(std::size_t nslots) {
    slots_.assign(nslots, kAbsent);
    for (std::uint32_t id = 0; id < keys_.size(); ++id) {
      slots_[slot_of(keys_[id])] = id;
    }
  }

  static constexpr std::uint32_t kAbsent = UINT32_MAX;

  std::vector<std::uint32_t> slots_;
  std::vector<Key128> keys_;
};

/// FIFO queues of T, one per dense id, linked by index through one node
/// pool.  Popped nodes go on a free list and are reused, so queueing
/// allocates only while the pool's high-water mark grows.
template <class T>
class FifoPool {
 public:
  static constexpr std::uint32_t kNil = UINT32_MAX;

  /// Appends `v` to queue `q` and returns its node.
  std::uint32_t push(std::uint32_t q, const T& v) {
    if (q >= queues_.size()) queues_.resize(q + 1);
    std::uint32_t n = free_;
    if (n != kNil) {
      free_ = nodes_[n].next;
      nodes_[n] = {v, kNil};
    } else {
      n = static_cast<std::uint32_t>(nodes_.size());
      nodes_.push_back({v, kNil});
    }
    Queue& qu = queues_[q];
    if (qu.tail == kNil) {
      qu.head = n;
    } else {
      nodes_[qu.tail].next = n;
    }
    qu.tail = n;
    ++live_;
    return n;
  }

  /// Head node of queue `q`; kNil when the queue is empty.
  std::uint32_t head(std::uint32_t q) const {
    return q < queues_.size() ? queues_[q].head : kNil;
  }

  /// Removes the head of the non-empty queue `q`.
  void pop(std::uint32_t q) {
    Queue& qu = queues_[q];
    const std::uint32_t n = qu.head;
    qu.head = nodes_[n].next;
    if (qu.head == kNil) qu.tail = kNil;
    nodes_[n].next = free_;
    free_ = n;
    --live_;
  }

  T& operator[](std::uint32_t n) { return nodes_[n].value; }
  /// Records currently queued, over all queues.
  std::size_t live() const { return live_; }

 private:
  struct Node {
    T value;
    std::uint32_t next;
  };
  struct Queue {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
  };

  std::vector<Queue> queues_;
  std::vector<Node> nodes_;
  std::uint32_t free_ = kNil;
  std::size_t live_ = 0;
};

/// Blocking sends: their region interval feeds the late-receiver pass.
bool is_blocking_send(const trace::RegionInfo& info) {
  return info.name == "MPI_Send" || info.name == "MPI_Ssend";
}

/// Per-region facts the replay reads on every event, computed once.
struct RegionFacts {
  trace::RegionKind kind;
  bool blocking_send;
};

/// True for kinds counted as "MPI time".
bool is_mpi_kind(trace::RegionKind k) {
  return k == trace::RegionKind::kMpiP2P ||
         k == trace::RegionKind::kMpiColl ||
         k == trace::RegionKind::kMpiOther;
}

bool is_omp_kind(trace::RegionKind k) {
  return k == trace::RegionKind::kOmpParallel ||
         k == trace::RegionKind::kOmpWork ||
         k == trace::RegionKind::kOmpSync;
}

class Replay {
 public:
  Replay(const trace::Trace& trace, const AnalyzerOptions& options)
      : trace_(trace),
        options_(options),
        disabled_(options.disabled_mask()),
        nlocs_(trace.location_count()),
        profile_(nlocs_),
        cube_(nlocs_),
        stacks_(nlocs_),
        send_intervals_(nlocs_),
        first_(nlocs_, VTime::max()),
        last_(nlocs_, VTime::zero()),
        seen_(nlocs_, false),
        // Pre-size the hot tables; distinct keys scale with location
        // pairs, not with events.
        msg_ids_(nlocs_ * 4),
        pend_ids_(nlocs_ * 2) {
    colls_.reserve(nlocs_);
    const trace::RegionRegistry& regions = trace.regions();
    region_facts_.reserve(regions.size());
    for (std::size_t r = 0; r < regions.size(); ++r) {
      const trace::RegionInfo& info =
          regions.info(static_cast<trace::RegionId>(r));
      region_facts_.push_back({info.kind, is_blocking_send(info)});
    }
    if (options.check_collectives) checker_.emplace(trace);
  }

  AnalysisResult run();

 private:
  NodeId current_node(trace::LocId loc) const {
    const auto& st = stacks_[static_cast<std::size_t>(loc)];
    return st.empty() ? kRootNode : st.back().node;
  }

  /// Wait-state severity attribution, honouring fault-injected pattern
  /// deactivation (AnalyzerOptions::disabled_patterns).
  void add_wait(PropertyId p, NodeId n, trace::LocId loc, VDur d) {
    if (disabled_[static_cast<std::size_t>(p)]) return;
    cube_.add(p, n, loc, d);
  }

  /// non_negative() that books every clamp in the DataQuality summary: a
  /// negative wait interval can only come from skewed or jittered clocks.
  VDur clamp_wait(VDur d) {
    if (d.is_negative()) {
      ++quality_.negative_waits_clamped;
      return VDur::zero();
    }
    return d;
  }

  bool valid_region(trace::RegionId r) const {
    return r >= 0 && static_cast<std::size_t>(r) < trace_.regions().size();
  }

  /// Facts of region `r`; an undeclared id throws like regions().info().
  const RegionFacts& facts(trace::RegionId r) const {
    if (!valid_region(r)) (void)trace_.regions().info(r);
    return region_facts_[static_cast<std::size_t>(r)];
  }

  /// Earliest still-pending send of pending FIFO `pq`, or nullptr.  The
  /// merge order never goes back in time, so each FIFO holds its sends in
  /// time order and the first one not yet matched is the minimum.
  const PendingSend* oldest_pending(std::uint32_t pq) {
    for (std::uint32_t n = pending_.head(pq); n != FifoPool<PendingSend>::kNil;
         n = pending_.head(pq)) {
      if (!pending_[n].erased) return &pending_[n];
      pending_.pop(pq);
    }
    return nullptr;
  }

  bool valid_comm(trace::CommId c) const {
    return c >= 0 && static_cast<std::size_t>(c) < trace_.comm_count();
  }

  void drop_event() { ++quality_.events_dropped; }

  void on_enter(const trace::Event& e);
  void on_exit(const trace::Event& e);
  void on_send(const trace::Event& e);
  void on_recv(const trace::Event& e);
  void on_coll_begin(const trace::Event& e);
  void on_coll_end(const trace::Event& e);
  void on_lock_acquire(const trace::Event& e);
  void finish_open_regions();
  void late_receiver_pass();
  void classify_structural();
  void idle_threads_pass();
  void rank_findings(AnalysisResult& result) const;
  void process_coll_group(trace::CollOp op, std::int32_t root_loc,
                          const std::vector<CollRec>& recs);

  const trace::Trace& trace_;
  AnalyzerOptions options_;
  std::bitset<kPropertyCount> disabled_;
  std::size_t nlocs_;
  CallPathProfile profile_;
  SeverityCube cube_;

  std::vector<std::vector<StackEntry>> stacks_;
  std::vector<std::vector<SendInterval>> send_intervals_;
  std::vector<VTime> first_, last_;
  std::vector<bool> seen_;
  std::vector<RegionFacts> region_facts_;  // indexed by RegionId

  // message matching: (comm, src loc, dst loc, tag) -> dense id, with one
  // FIFO of sends and one of receive completions still waiting for their
  // send record per id
  KeyIndex msg_ids_;
  FifoPool<SendRec> sends_;
  FifoPool<OrphanRecv> orphans_;
  // unmatched send times per (comm, dst loc) id, for wrong-order detection
  KeyIndex pend_ids_;
  FifoPool<PendingSend> pending_;
  std::vector<LrCandidate> lr_candidates_;
  // collective grouping: (comm, seq) -> records so far
  std::unordered_map<Key128, std::vector<CollRec>, Key128Hash> colls_;
  // structural collective-correctness checker (AnalyzerOptions::
  // check_collectives); nullopt when disabled
  std::optional<CollectiveChecker> checker_;

  VDur total_time_ = VDur::zero();
  DataQuality quality_;
};

void Replay::on_enter(const trace::Event& e) {
  if (options_.lenient && !valid_region(e.region)) {
    // A region never declared cannot be profiled or even named later;
    // dropping the enter keeps the stack consistent.
    drop_event();
    return;
  }
  auto& st = stacks_[static_cast<std::size_t>(e.loc)];
  const NodeId n = profile_.child(current_node(e.loc), e.region);
  profile_.add_visit(n, e.loc);
  st.push_back({n, e.t, e.region});
}

void Replay::on_exit(const trace::Event& e) {
  auto& st = stacks_[static_cast<std::size_t>(e.loc)];
  if (st.empty() || st.back().region != e.region) {
    if (!options_.lenient) {
      throw TraceError("analyzer: unbalanced exit of region '" +
                       trace_.regions().info(e.region).name +
                       "' on location " + std::to_string(e.loc));
    }
    ++quality_.unbalanced_exits;
    // Recovery: if the region is open deeper in the stack, the intervening
    // exits were lost — close those regions synthetically at e.t and fall
    // through to the normal exit.  Otherwise the matching enter was lost;
    // drop the exit.
    const bool open_deeper =
        std::any_of(st.begin(), st.end(), [&](const StackEntry& s) {
          return s.region == e.region;
        });
    if (!open_deeper) {
      drop_event();
      return;
    }
    while (st.back().region != e.region) {
      profile_.add_inclusive(st.back().node, e.loc,
                             clamp_wait(e.t - st.back().enter));
      st.pop_back();
      ++quality_.events_repaired;
    }
  }
  const StackEntry top = st.back();
  st.pop_back();
  profile_.add_inclusive(top.node, e.loc, e.t - top.enter);
  // Close a pending send interval of this region, for late-receiver.
  const RegionFacts& f = facts(e.region);
  if (f.kind == trace::RegionKind::kMpiP2P && f.blocking_send) {
    auto& ivs = send_intervals_[static_cast<std::size_t>(e.loc)];
    for (auto it = ivs.rbegin(); it != ivs.rend(); ++it) {
      if (!it->closed && it->node == top.node) {
        it->exit = e.t;
        it->closed = true;
        break;
      }
    }
  }
}

void Replay::on_send(const trace::Event& e) {
  const std::uint32_t msg = msg_ids_.id(msg_key(e.comm, e.loc, e.peer, e.tag));
  const std::uint32_t parked = orphans_.head(msg);
  if (parked != FifoPool<OrphanRecv>::kNil) {
    // A receive completion (equal timestamp, lower location id) was seen
    // first; complete the pair now.  The message never waited unmatched, so
    // no wrong-order bookkeeping applies.
    const OrphanRecv orphan = orphans_[parked];
    orphans_.pop(msg);
    // A receive that *completed* strictly before its send was recorded can
    // only happen with disagreeing clocks (equal timestamps are the benign
    // replay-order case).
    if (orphan.t < e.t) ++quality_.skewed_messages;
    const VDur wait =
        clamp_wait(earlier(e.t, orphan.t) - orphan.recv_enter);
    if (wait > VDur::zero()) {
      add_wait(PropertyId::kLateSender, orphan.recv_node, orphan.loc, wait);
    }
    // No late-receiver candidate: the receiver completed no later than the
    // send record, so it cannot have posted late.
    return;
  }
  const std::uint32_t pq = pend_ids_.id(pair_key(e.comm, e.peer));
  sends_.push(msg, SendRec{e.t, pq, pending_.push(pq, PendingSend{e.t})});
  // Remember the enclosing blocking-send interval (exit filled on region
  // exit); used by the late-receiver post-pass.
  const auto& st = stacks_[static_cast<std::size_t>(e.loc)];
  if (!st.empty()) {
    if (facts(st.back().region).blocking_send) {
      send_intervals_[static_cast<std::size_t>(e.loc)].push_back(
          SendInterval{e.t, e.t, st.back().node, false});
    }
  }
}

void Replay::on_recv(const trace::Event& e) {
  const std::uint32_t msg = msg_ids_.id(msg_key(e.comm, e.peer, e.loc, e.tag));

  // The innermost enclosing P2P region is the waiting receive operation
  // (MPI_Recv, MPI_Wait, ...); resolve it first so an orphaned completion
  // can be parked with its context.
  const auto& stk = stacks_[static_cast<std::size_t>(e.loc)];
  NodeId recv_node = kRootNode;
  VTime recv_enter = e.t;
  bool in_p2p = false;
  for (auto rit = stk.rbegin(); rit != stk.rend(); ++rit) {
    if (facts(rit->region).kind == trace::RegionKind::kMpiP2P) {
      recv_node = rit->node;
      recv_enter = rit->enter;
      in_p2p = true;
      break;
    }
  }

  const std::uint32_t head = sends_.head(msg);
  if (head == FifoPool<SendRec>::kNil) {
    // The send record has an equal timestamp but a higher location id and
    // has not been replayed yet; park the completion.
    if (in_p2p) {
      orphans_.push(msg, OrphanRecv{e.t, recv_enter, recv_node, e.loc});
    }
    return;
  }
  const SendRec send = sends_[head];
  sends_.pop(msg);
  const VTime send_t = send.t;
  // This message is consumed: drop it from the pending set.
  pending_[send.pend_node].erased = true;
  const PendingSend* oldest = oldest_pending(send.pend_queue);

  if (!in_p2p) return;  // recv completion outside any P2P region: skip

  if (send_t > e.t) ++quality_.skewed_messages;
  // A send that predates the receive posting is the *well-tuned* case (the
  // message was ready before anyone asked): a negative interval here is
  // expected, not a clock anomaly — skew on this pair is already covered by
  // the completed-before-send check above.
  const VDur wait = non_negative(earlier(send_t, e.t) - recv_enter);
  if (wait > VDur::zero()) {
    // Wrong order: another message for us was already under way before the
    // one we insisted on receiving was even sent.  Checking the oldest
    // pending send suffices.
    const bool wrong_order = oldest != nullptr && oldest->t < send_t;
    add_wait(wrong_order ? PropertyId::kLateSenderWrongOrder
                         : PropertyId::kLateSender,
             recv_node, e.loc, wait);
  }
  lr_candidates_.push_back(LrCandidate{e.peer, send_t, recv_enter});
}

void Replay::on_coll_begin(const trace::Event& e) {
  // A begin record feeds only the structural checker; the profile and the
  // severity cube are built from the enter/exit/coll-end records alone, so
  // severity output is unchanged by its presence.
  if (!valid_comm(e.comm)) {
    drop_event();
    return;
  }
  if (checker_) checker_->on_begin(e);
}

void Replay::on_coll_end(const trace::Event& e) {
  if (options_.lenient && !valid_comm(e.comm)) {
    drop_event();
    return;
  }
  if (checker_) checker_->on_end(e);
  const auto& st = stacks_[static_cast<std::size_t>(e.loc)];
  CollRec rec;
  rec.loc = e.loc;
  rec.enter = e.enter_t;
  rec.exit = e.t;
  if (!st.empty()) {
    rec.node = st.back().node;
    rec.encl_kind = facts(st.back().region).kind;
    rec.encl_region = st.back().region;
  } else {
    rec.node = kRootNode;
    rec.encl_kind = trace::RegionKind::kUser;
    rec.encl_region = trace::kNone;
  }
  auto& group = colls_[pair_key(e.comm, e.seq)];
  group.push_back(rec);
  const std::size_t expected = trace_.comm(e.comm).members.size();
  if (group.size() == expected) {
    process_coll_group(e.op, e.root, group);
    colls_.erase(pair_key(e.comm, e.seq));
  }
}

void Replay::process_coll_group(trace::CollOp op, std::int32_t root_loc,
                                const std::vector<CollRec>& recs) {
  VTime max_enter = VTime::zero();
  VTime root_enter = VTime::zero();
  for (const CollRec& r : recs) {
    max_enter = later(max_enter, r.enter);
    if (r.loc == root_loc) root_enter = r.enter;
  }
  for (const CollRec& r : recs) {
    PropertyId prop;
    VDur wait = VDur::zero();
    if (r.encl_kind == trace::RegionKind::kMpiOther) {
      // Waits inside MPI_Init / MPI_Finalize / comm management are already
      // covered by the management-overhead region time; don't double-count
      // them as user-level wait states.
      continue;
    } else if (op == trace::CollOp::kBarrier) {
      prop = PropertyId::kWaitAtBarrier;
      wait = clamp_wait(max_enter - r.enter);
    } else if (op == trace::CollOp::kOmpBarrier) {
      prop = PropertyId::kWaitAtOmpBarrier;
      wait = clamp_wait(max_enter - r.enter);
    } else if (op == trace::CollOp::kOmpIBarrier) {
      const std::string_view encl =
          r.encl_region == trace::kNone
              ? std::string_view()
              : trace_.regions().info(r.encl_region).name;
      if (starts_with(encl, "omp for")) {
        prop = PropertyId::kImbalanceInOmpLoop;
      } else if (starts_with(encl, "omp sections")) {
        prop = PropertyId::kImbalanceInOmpSections;
      } else if (starts_with(encl, "omp single")) {
        prop = PropertyId::kImbalanceInOmpSingle;
      } else {
        prop = PropertyId::kImbalanceInParallelRegion;
      }
      wait = clamp_wait(max_enter - r.enter);
    } else if (trace::is_root_source(op)) {
      prop = (op == trace::CollOp::kBcast) ? PropertyId::kLateBroadcast
                                           : PropertyId::kLateScatter;
      if (r.loc != root_loc) wait = clamp_wait(root_enter - r.enter);
    } else if (trace::is_root_sink(op)) {
      prop = (op == trace::CollOp::kReduce) ? PropertyId::kEarlyReduce
                                            : PropertyId::kEarlyGather;
      if (r.loc == root_loc) wait = clamp_wait(max_enter - r.enter);
    } else {
      prop = PropertyId::kWaitAtNxN;
      wait = clamp_wait(max_enter - r.enter);
    }
    add_wait(prop, r.node, r.loc, wait);
  }
}

void Replay::on_lock_acquire(const trace::Event& e) {
  const auto& st = stacks_[static_cast<std::size_t>(e.loc)];
  if (st.empty()) return;
  const StackEntry& top = st.back();
  if (facts(top.region).kind != trace::RegionKind::kOmpSync) {
    return;
  }
  add_wait(PropertyId::kOmpLockContention, top.node, e.loc,
           clamp_wait(e.t - top.enter));
}

void Replay::finish_open_regions() {
  for (std::size_t loc = 0; loc < nlocs_; ++loc) {
    auto& st = stacks_[loc];
    while (!st.empty()) {
      profile_.add_inclusive(st.back().node, static_cast<trace::LocId>(loc),
                             last_[loc] - st.back().enter);
      st.pop_back();
    }
  }
}

void Replay::late_receiver_pass() {
  // Sort intervals per location by send-event time for binary search.
  for (auto& ivs : send_intervals_) {
    std::sort(ivs.begin(), ivs.end(),
              [](const SendInterval& a, const SendInterval& b) {
                return a.enter < b.enter;
              });
  }
  for (const LrCandidate& c : lr_candidates_) {
    const auto& ivs = send_intervals_[static_cast<std::size_t>(c.send_loc)];
    // Find the interval whose send event is exactly c.send_t.
    auto it = std::lower_bound(
        ivs.begin(), ivs.end(), c.send_t,
        [](const SendInterval& iv, VTime t) { return iv.enter < t; });
    if (it == ivs.end() || it->enter != c.send_t || !it->closed) continue;
    if (c.recv_enter <= c.send_t) continue;  // the receiver was on time
    const VDur wait = earlier(c.recv_enter, it->exit) - c.send_t;
    if (wait > VDur::zero()) {
      add_wait(PropertyId::kLateReceiver, it->node, c.send_loc, wait);
    }
  }
}

void Replay::classify_structural() {
  // Per-location totals.
  for (std::size_t loc = 0; loc < nlocs_; ++loc) {
    if (!seen_[loc]) continue;
    const VDur span = last_[loc] - first_[loc];
    cube_.add(PropertyId::kTotal, kRootNode, static_cast<trace::LocId>(loc),
              span);
    total_time_ += span;
  }
  // Time-class properties from the profile: attribute the inclusive time of
  // every class-topmost node (a node of the class whose parent is not of
  // the same class).
  profile_.preorder([&](NodeId n, int) {
    if (n == kRootNode) return;
    const CpNode& nd = profile_.node(n);
    const trace::RegionKind kind = facts(nd.region).kind;
    const CpNode& parent = nd.parent == kRootNode
                               ? profile_.node(kRootNode)
                               : profile_.node(nd.parent);
    const trace::RegionKind pkind = parent.region == trace::kNone
                                        ? trace::RegionKind::kUser
                                        : facts(parent.region).kind;

    auto add_all_locs = [&](PropertyId p) {
      cube_.add_row(p, n, profile_.inclusive_row(n));
    };

    if (is_mpi_kind(kind) && !is_mpi_kind(pkind)) {
      add_all_locs(PropertyId::kMpi);
    }
    if (is_omp_kind(kind) && !is_omp_kind(pkind)) {
      add_all_locs(PropertyId::kOmp);
    }
    switch (kind) {
      case trace::RegionKind::kMpiP2P:
        if (pkind != trace::RegionKind::kMpiP2P) {
          add_all_locs(PropertyId::kMpiP2P);
        }
        break;
      case trace::RegionKind::kMpiColl:
        add_all_locs(PropertyId::kMpiCollective);
        break;
      case trace::RegionKind::kMpiOther: {
        add_all_locs(PropertyId::kMpiMgmt);
        const std::string& name = trace_.regions().info(nd.region).name;
        if (name == "MPI_Init" || name == "MPI_Finalize") {
          add_all_locs(PropertyId::kInitFinalizeOverhead);
        }
        break;
      }
      case trace::RegionKind::kOmpSync:
        if (pkind != trace::RegionKind::kOmpSync) {
          add_all_locs(PropertyId::kOmpSync);
        }
        break;
      default:
        break;
    }
  });
}

void Replay::idle_threads_pass() {
  // EXPERT's "Idle Threads": while the master of an OpenMP-capable process
  // computes serially outside parallel regions, the CPUs reserved for its
  // workers are idle.  Severity = serial non-MPI time x (max team size - 1)
  // per master location.  MPI time is excluded: during communication the
  // master is not "computing serially" in the EXPERT sense relevant here,
  // and those waits are already attributed to MPI wait states.
  std::map<trace::LocId, int> max_team;
  for (std::size_t c = 0; c < trace_.comm_count(); ++c) {
    const trace::CommInfo& info =
        trace_.comm(static_cast<trace::CommId>(c));
    if (info.kind != trace::CommKind::kOmpTeam || info.members.empty()) {
      continue;
    }
    int& n = max_team[info.members.front()];
    n = std::max(n, static_cast<int>(info.members.size()));
  }
  for (const auto& [loc, n] : max_team) {
    if (n <= 1 || !seen_[static_cast<std::size_t>(loc)]) continue;
    const VDur span = last_[static_cast<std::size_t>(loc)] -
                      first_[static_cast<std::size_t>(loc)];
    VDur parallel_time = VDur::zero();
    VDur mpi_time = VDur::zero();
    profile_.preorder([&](NodeId node, int) {
      if (node == kRootNode) return;
      const CpNode& nd = profile_.node(node);
      const trace::RegionKind kind = facts(nd.region).kind;
      const CpNode& parent = profile_.node(nd.parent);
      const trace::RegionKind pkind = parent.region == trace::kNone
                                          ? trace::RegionKind::kUser
                                          : facts(parent.region).kind;
      if (is_omp_kind(kind) && !is_omp_kind(pkind)) {
        parallel_time += profile_.inclusive(node, loc);
      }
      if (is_mpi_kind(kind) && !is_mpi_kind(pkind) &&
          !is_omp_kind(pkind)) {
        mpi_time += profile_.inclusive(node, loc);
      }
    });
    const VDur serial = non_negative(span - parallel_time - mpi_time);
    if (serial > VDur::zero()) {
      add_wait(PropertyId::kOmpIdleThreads, kRootNode, loc,
               serial * static_cast<std::int64_t>(n - 1));
    }
  }
}

void Replay::rank_findings(AnalysisResult& result) const {
  const SeverityCube& cube = result.cube;
  for (PropertyId p : property_preorder()) {
    const PropertyInfo& info = property_info(p);
    if (!info.is_waitstate) continue;
    const VDur sev = cube.total(p);
    if (sev <= VDur::zero() || result.total_time <= VDur::zero()) continue;
    const double fraction = sev / result.total_time;
    if (fraction < options_.threshold) continue;
    Finding f;
    f.prop = p;
    f.severity = sev;
    f.fraction = fraction;
    // Node carrying the largest share.
    VDur best = VDur::zero();
    for (NodeId n : cube.nodes_of(p)) {
      const VDur nt = cube.node_total(p, n);
      if (nt > best) {
        best = nt;
        f.node = n;
      }
    }
    result.findings.push_back(f);
  }
  std::stable_sort(result.findings.begin(), result.findings.end(),
                   [](const Finding& a, const Finding& b) {
                     return a.severity > b.severity;
                   });
}

AnalysisResult Replay::run() {
  // Stream the merge order: the replay touches each event exactly once, so
  // materialising (and caching) the merged pointer vector would only cost
  // allocations.
  trace_.for_each_merged([&](const trace::Event& e) {
    const std::size_t loc = static_cast<std::size_t>(e.loc);
    first_[loc] = earlier(first_[loc], e.t);
    last_[loc] = later(last_[loc], e.t);
    seen_[loc] = true;
    ++quality_.events_seen;
    switch (e.type) {
      case trace::EventType::kEnter: on_enter(e); break;
      case trace::EventType::kExit: on_exit(e); break;
      case trace::EventType::kSend: on_send(e); break;
      case trace::EventType::kRecv: on_recv(e); break;
      case trace::EventType::kCollEnd: on_coll_end(e); break;
      case trace::EventType::kCollBegin: on_coll_begin(e); break;
      case trace::EventType::kLockAcquire: on_lock_acquire(e); break;
      case trace::EventType::kLockRelease: break;
    }
  });
  finish_open_regions();
  late_receiver_pass();
  classify_structural();
  idle_threads_pass();

  // Degradation accounting: whatever is still parked in the matching
  // tables at the end of the replay never found its counterpart.  These
  // wait states are skipped, not guessed at — the DataQuality summary is
  // the honest record of what the analysis could not see.
  quality_.unmatched_sends = sends_.live();
  quality_.unmatched_recvs = orphans_.live();
  quality_.incomplete_collectives = colls_.size();
  quality_.unsorted_locations = trace_.unsorted_location_count();
  quality_.clock_skew_detected = quality_.skewed_messages > 0 ||
                                 quality_.negative_waits_clamped > 0 ||
                                 quality_.unsorted_locations > 0;

  AnalysisResult result{std::move(profile_), std::move(cube_), total_time_,
                        {}, quality_, {}};
  if (checker_) result.defects = checker_->finish();
  rank_findings(result);
  return result;
}

}  // namespace

AnalysisResult analyze(const trace::Trace& trace, AnalyzerOptions options) {
  Replay replay(trace, options);
  return replay.run();
}

}  // namespace ats::analyze
