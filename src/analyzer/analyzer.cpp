#include "analyzer/analyzer.hpp"

#include <algorithm>
#include <exception>
#include <map>
#include <numeric>
#include <span>
#include <string_view>
#include <unordered_map>

#include "common/error.hpp"
#include "common/strutil.hpp"

namespace ats::analyze {

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

struct SendInterval {
  trace::LocId loc;
  VTime enter;   // send event time (after the send overhead)
  VTime exit;    // region exit
  NodeId node;
  bool closed = false;
};

/// A send, receive, collective or lock-acquire record met by phase 1, with
/// the event fields and the stack context its handler reads — or the exit
/// of a blocking-send region (type kExit), which closes a send interval.
/// The context is the innermost open region; for a receive, the innermost
/// P2P region or an undeclared one, which the receive handler rejects.
struct CommRec {
  const trace::Event* e;
  VTime t;
  VTime enter;  ///< the context's; a collective end's own enter time
  NodeId node;
  trace::RegionId region;  ///< kNone outside any (P2P) region
  trace::LocId loc;
  std::int32_t peer;
  std::int32_t tag;
  trace::CommId comm;
  trace::EventType type;
  // Set by phase 2.  A send: its pending FIFO, whether a receive consumed
  // it, whether it opens a send interval (queued inside a blocking send).
  // A receive in a P2P region: the send it consumed, for late receiver.
  std::uint32_t pend_queue = 0;
  std::uint32_t consumed = UINT32_MAX;
  bool matched = false;
  bool opens_interval = false;
};

/// Where phase 1 first entered a call-path node, in merge order: (time,
/// location << 32 | position in the location's walk).
using FirstSight = std::pair<VTime, std::uint64_t>;

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

/// Key128 -> dense id, assigned in first-use order, so per-key replay
/// state lives in flat vectors indexed by id.
class KeyIndex {
 public:
  explicit KeyIndex(std::size_t expected) { ids_.reserve(expected); }

  std::uint32_t id(const Key128& key) {
    return ids_.try_emplace(key, static_cast<std::uint32_t>(ids_.size()))
        .first->second;
  }

 private:
  std::unordered_map<Key128, std::uint32_t, Key128Hash> ids_;
};

/// FIFO queues of comm_ records, one per dense id, linked through one
/// next index per record; a record joins at most one queue of a pool.
class RecordFifos {
 public:
  static constexpr std::uint32_t kNil = UINT32_MAX;

  void push(std::uint32_t q, std::uint32_t rec) {
    if (q >= queues_.size()) queues_.resize(q + 1);
    if (rec >= next_.size()) next_.resize(rec + 1, kNil);
    Queue& qu = queues_[q];
    (qu.tail == kNil ? qu.head : next_[qu.tail]) = rec;
    qu.tail = rec;
    ++live_;
  }

  /// Head record of queue `q`; kNil when the queue is empty.
  std::uint32_t head(std::uint32_t q) const {
    return q < queues_.size() ? queues_[q].head : kNil;
  }

  /// Removes the head of the non-empty queue `q`.
  void pop(std::uint32_t q) {
    Queue& qu = queues_[q];
    qu.head = next_[qu.head];
    if (qu.head == kNil) qu.tail = kNil;
    --live_;
  }

  /// Records currently queued, over all queues.
  std::size_t live() const { return live_; }

 private:
  struct Queue {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
  };

  std::vector<Queue> queues_;
  std::vector<std::uint32_t> next_;
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
        span_(nlocs_, VDur::zero()),
        first_sight_(1),  // the root's entry is never compared
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
  const CommRec* oldest_pending(std::uint32_t pq) {
    for (std::uint32_t n = pending_.head(pq); n != RecordFifos::kNil;
         n = pending_.head(pq)) {
      if (!comm_[n].matched) return &comm_[n];
      pending_.pop(pq);
    }
    return nullptr;
  }

  bool valid_comm(trace::CommId c) const {
    return c >= 0 && static_cast<std::size_t>(c) < trace_.comm_count();
  }

  void drop_event() { ++quality_.events_dropped; }

  // phase 1: one location at a time
  void walk_location(trace::LocId loc);
  void on_event(const trace::Event& e, std::uint32_t seq);
  void on_enter(const trace::Event& e, std::uint32_t seq);
  void on_exit(const trace::Event& e);
  void renumber_nodes();
  // phase 2: communication records in merge order
  void match_communication();
  void on_send(std::uint32_t i);
  void on_recv(std::uint32_t i);
  void on_coll_begin(const trace::Event& e);
  void on_coll_end(std::uint32_t i);
  void process_coll_group(trace::CollOp op, std::int32_t root_loc,
                          const std::vector<std::uint32_t>& recs);
  // after both phases
  void late_receiver_pass();
  std::vector<NodeId> classify_structural();
  void idle_threads_pass(const std::vector<NodeId>& not_serial);
  void rank_findings(AnalysisResult& result) const;

  const trace::Trace& trace_;
  AnalyzerOptions options_;
  std::bitset<kPropertyCount> disabled_;
  std::size_t nlocs_;
  CallPathProfile profile_;
  SeverityCube cube_;

  // phase 1 state: the walked location's stack and the time-sorted copies
  // of unsorted locations (comm_ points into them)
  std::vector<StackEntry> stack_;
  std::vector<std::vector<trace::Event>> sorted_copies_;
  std::vector<VDur> span_;  // last - first event time, per location
  std::vector<FirstSight> first_sight_;  // per node, phase-1 numbering
  std::vector<CommRec> comm_;  // location by location, in walk order
  // The earliest (time, location) at which a location's walk threw; phase
  // 2 stops there and rethrows.
  std::exception_ptr error_;
  VTime error_t_;
  trace::LocId error_loc_ = trace::kNone;
  std::vector<RegionFacts> region_facts_;  // indexed by RegionId

  // message matching: (comm, src loc, dst loc, tag) -> dense id, with one
  // FIFO of sends and one of receive completions still waiting for their
  // send record per id
  KeyIndex msg_ids_;
  RecordFifos sends_;
  RecordFifos orphans_;
  // unmatched sends per (comm, dst loc) id, for wrong-order detection;
  // matched ones are popped once they reach the head
  KeyIndex pend_ids_;
  RecordFifos pending_;
  // collective grouping: (comm, seq) -> coll-end records so far
  std::unordered_map<Key128, std::vector<std::uint32_t>, Key128Hash> colls_;
  // structural collective-correctness checker (AnalyzerOptions::
  // check_collectives); nullopt when disabled
  std::optional<CollectiveChecker> checker_;

  VDur total_time_ = VDur::zero();
  DataQuality quality_;
};

void Replay::walk_location(trace::LocId loc) {
  std::span<const trace::Event> events = trace_.events_of(loc);
  if (events.empty()) return;
  quality_.events_seen += events.size();
  if (!trace_.time_sorted(loc)) {
    // Walk a copy in time order; the stable sort keeps the recording order
    // among equal timestamps, as the merge order does.
    auto& copy = sorted_copies_.emplace_back(events.begin(), events.end());
    std::stable_sort(copy.begin(), copy.end(),
                     [](const trace::Event& a, const trace::Event& b) {
                       return a.t < b.t;
                     });
    events = copy;
  }
  stack_.clear();
  std::size_t i = 0;
  try {
    for (; i < events.size(); ++i) {
      on_event(events[i], static_cast<std::uint32_t>(i));
    }
  } catch (...) {
    // The merged order would have stopped at the earliest such event.
    if (!error_ || events[i].t < error_t_) {
      error_ = std::current_exception();
      error_t_ = events[i].t;
      error_loc_ = loc;
    }
    return;
  }
  const VTime last = events.back().t;
  span_[static_cast<std::size_t>(loc)] = last - events.front().t;
  // Regions still open at the location's last event close there.
  for (; !stack_.empty(); stack_.pop_back()) {
    profile_.add_inclusive(stack_.back().node, loc,
                           last - stack_.back().enter);
  }
}

void Replay::on_event(const trace::Event& e, std::uint32_t seq) {
  switch (e.type) {
    case trace::EventType::kEnter: on_enter(e, seq); return;
    case trace::EventType::kExit: on_exit(e); return;
    case trace::EventType::kLockRelease: return;
    case trace::EventType::kLockAcquire:
      // Lock contention: the wait since entering the enclosing sync region.
      if (stack_.empty() ||
          facts(stack_.back().region).kind != trace::RegionKind::kOmpSync) {
        return;
      }
      break;
    default: break;
  }
  // A send, receive, collective or lock record: save its stack context.
  CommRec r{&e,     e.t,   e.t,    kRootNode, trace::kNone,
            e.loc,  e.peer, e.tag, e.comm,    e.type};
  const bool recv = e.type == trace::EventType::kRecv;
  for (auto it = stack_.rbegin(); it != stack_.rend(); ++it) {
    if (!recv || !valid_region(it->region) ||
        region_facts_[static_cast<std::size_t>(it->region)].kind ==
            trace::RegionKind::kMpiP2P) {
      r.enter = it->enter;
      r.node = it->node;
      r.region = it->region;
      break;
    }
  }
  if (e.type == trace::EventType::kCollEnd) r.enter = e.enter_t;
  comm_.push_back(r);
}

void Replay::on_enter(const trace::Event& e, std::uint32_t seq) {
  if (options_.lenient && !valid_region(e.region)) {
    // A region never declared cannot be profiled or even named later;
    // dropping the enter keeps the stack consistent.
    drop_event();
    return;
  }
  const NodeId n = profile_.child(
      stack_.empty() ? kRootNode : stack_.back().node, e.region);
  const FirstSight here{
      e.t, static_cast<std::uint64_t>(e.loc) << 32 | seq};
  if (static_cast<std::size_t>(n) == first_sight_.size()) {
    first_sight_.push_back(here);
  }
  FirstSight& first = first_sight_[static_cast<std::size_t>(n)];
  first = std::min(first, here);
  profile_.add_visit(n, e.loc);
  stack_.push_back({n, e.t, e.region});
}

void Replay::on_exit(const trace::Event& e) {
  auto& st = stack_;
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
  // The exit closes a pending send interval of this region, for
  // late-receiver; which one depends on phase 2's matching.
  const RegionFacts& f = facts(e.region);
  if (f.kind == trace::RegionKind::kMpiP2P && f.blocking_send) {
    comm_.push_back({&e, e.t, top.enter, top.node, e.region, e.loc, e.peer,
                     e.tag, e.comm, e.type});
  }
}

void Replay::renumber_nodes() {
  // The merged order numbers nodes at first sight; phase 1 numbered them
  // location by location.  Sorting by first sight restores the merged ids
  // (a parent is always seen before its children).
  std::vector<NodeId> by_sight(profile_.node_count());
  std::iota(by_sight.begin(), by_sight.end(), 0);
  std::sort(by_sight.begin() + 1, by_sight.end(), [&](NodeId a, NodeId b) {
    return first_sight_[static_cast<std::size_t>(a)] <
           first_sight_[static_cast<std::size_t>(b)];
  });
  if (std::is_sorted(by_sight.begin(), by_sight.end())) return;
  std::vector<NodeId> new_id(by_sight.size());
  for (std::size_t i = 0; i < by_sight.size(); ++i) {
    new_id[static_cast<std::size_t>(by_sight[i])] = static_cast<NodeId>(i);
  }
  profile_.renumber(new_id);
  for (CommRec& r : comm_) r.node = new_id[static_cast<std::size_t>(r.node)];
}

void Replay::match_communication() {
  std::vector<trace::Trace::MergeKey> keys;
  keys.reserve(comm_.size());
  for (const CommRec& r : comm_) {
    if (r.type != trace::EventType::kExit &&
        r.type != trace::EventType::kLockAcquire) {
      keys.push_back({static_cast<std::uint64_t>(r.t.ns()), &r});
    }
  }
  // comm_ is gathered location by location in walk order, so the stable
  // time sort yields the merged (time, location, recording order).
  trace::Trace::sort_merge_keys(keys);
  for (const trace::Trace::MergeKey& k : keys) {
    const auto i = static_cast<std::uint32_t>(
        static_cast<const CommRec*>(k.ref) - comm_.data());
    const CommRec& r = comm_[i];
    if (error_ && r.loc != error_loc_ &&
        (r.t > error_t_ || (r.t == error_t_ && r.loc > error_loc_))) {
      break;
    }
    switch (r.type) {
      case trace::EventType::kSend: on_send(i); break;
      case trace::EventType::kRecv: on_recv(i); break;
      case trace::EventType::kCollBegin: on_coll_begin(*r.e); break;
      default: on_coll_end(i); break;
    }
  }
  if (error_) std::rethrow_exception(error_);
}

void Replay::on_send(std::uint32_t i) {
  CommRec& r = comm_[i];
  const std::uint32_t msg = msg_ids_.id(msg_key(r.comm, r.loc, r.peer, r.tag));
  const std::uint32_t parked = orphans_.head(msg);
  if (parked != RecordFifos::kNil) {
    // A receive completion (equal timestamp, lower location id) was seen
    // first; complete the pair now.  The message never waited unmatched, so
    // no wrong-order bookkeeping applies.
    const CommRec& orphan = comm_[parked];
    orphans_.pop(msg);
    // A receive that *completed* strictly before its send was recorded can
    // only happen with disagreeing clocks (equal timestamps are the benign
    // replay-order case).
    if (orphan.t < r.t) ++quality_.skewed_messages;
    const VDur wait = clamp_wait(earlier(r.t, orphan.t) - orphan.enter);
    if (wait > VDur::zero()) {
      add_wait(PropertyId::kLateSender, orphan.node, orphan.loc, wait);
    }
    // No late-receiver candidate: the receiver completed no later than the
    // send record, so it cannot have posted late.
    return;
  }
  r.pend_queue = pend_ids_.id(pair_key(r.comm, r.peer));
  pending_.push(r.pend_queue, i);
  sends_.push(msg, i);
  // A send inside a blocking send opens an interval (closed by the region
  // exit); used by the late-receiver post-pass.
  r.opens_interval =
      r.region != trace::kNone && facts(r.region).blocking_send;
}

void Replay::on_recv(std::uint32_t i) {
  CommRec& r = comm_[i];
  const std::uint32_t msg = msg_ids_.id(msg_key(r.comm, r.peer, r.loc, r.tag));

  // The innermost enclosing P2P region is the waiting receive operation
  // (MPI_Recv, MPI_Wait, ...).
  const bool in_p2p = r.region != trace::kNone &&
                      facts(r.region).kind == trace::RegionKind::kMpiP2P;

  const std::uint32_t head = sends_.head(msg);
  if (head == RecordFifos::kNil) {
    // The send record has an equal timestamp but a higher location id and
    // has not been replayed yet; park the completion.
    if (in_p2p) orphans_.push(msg, i);
    return;
  }
  CommRec& send = comm_[head];
  sends_.pop(msg);
  const VTime send_t = send.t;
  // This message is consumed: drop it from the pending set.
  send.matched = true;
  const CommRec* oldest = oldest_pending(send.pend_queue);

  if (!in_p2p) return;  // recv completion outside any P2P region: skip

  if (send_t > r.t) ++quality_.skewed_messages;
  // A send that predates the receive posting is the *well-tuned* case (the
  // message was ready before anyone asked): a negative interval here is
  // expected, not a clock anomaly — skew on this pair is already covered by
  // the completed-before-send check above.
  const VDur wait = non_negative(earlier(send_t, r.t) - r.enter);
  if (wait > VDur::zero()) {
    // Wrong order: another message for us was already under way before the
    // one we insisted on receiving was even sent.  Checking the oldest
    // pending send suffices.
    const bool wrong_order = oldest != nullptr && oldest->t < send_t;
    add_wait(wrong_order ? PropertyId::kLateSenderWrongOrder
                         : PropertyId::kLateSender,
             r.node, r.loc, wait);
  }
  r.consumed = head;
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

void Replay::on_coll_end(std::uint32_t i) {
  const trace::Event& e = *comm_[i].e;
  const CommRec& r = comm_[i];
  if (options_.lenient && !valid_comm(e.comm)) {
    drop_event();
    return;
  }
  if (checker_) checker_->on_end(e);
  if (r.region != trace::kNone) (void)facts(r.region);  // undeclared: throws
  auto& group = colls_[pair_key(e.comm, e.seq)];
  group.push_back(i);
  const std::size_t expected = trace_.comm(e.comm).members.size();
  if (group.size() == expected) {
    process_coll_group(e.op, e.root, group);
    colls_.erase(pair_key(e.comm, e.seq));
  }
}

void Replay::process_coll_group(trace::CollOp op, std::int32_t root_loc,
                                const std::vector<std::uint32_t>& recs) {
  VTime max_enter = VTime::zero();
  VTime root_enter = VTime::zero();
  for (std::uint32_t i : recs) {
    max_enter = later(max_enter, comm_[i].enter);
    if (comm_[i].loc == root_loc) root_enter = comm_[i].enter;
  }
  for (std::uint32_t i : recs) {
    const CommRec& r = comm_[i];
    PropertyId prop;
    VDur wait = VDur::zero();
    if (r.region != trace::kNone &&
        facts(r.region).kind == trace::RegionKind::kMpiOther) {
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
          r.region == trace::kNone ? std::string_view()
                                   : trace_.regions().info(r.region).name;
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

void Replay::late_receiver_pass() {
  // Replay each location's send-interval opens and closes in its walk
  // order: which interval an exit closes depends on which sends phase 2
  // left unmatched.  Then sort each location's intervals by send-event
  // time for binary search.
  std::vector<SendInterval> ivs;
  std::size_t begin = 0;  // the first interval of r's location
  for (const CommRec& r : comm_) {
    if (begin < ivs.size() && ivs[begin].loc != r.loc) begin = ivs.size();
    if (r.opens_interval) {
      ivs.push_back(SendInterval{r.loc, r.t, r.t, r.node, false});
    } else if (r.type == trace::EventType::kExit) {
      for (std::size_t i = ivs.size(); i > begin; --i) {
        SendInterval& iv = ivs[i - 1];
        if (!iv.closed && iv.node == r.node) {
          iv.exit = r.t;
          iv.closed = true;
          break;
        }
      }
    }
  }
  // Location l's intervals are [from(l), from(l + 1)).
  std::vector<std::size_t> first(nlocs_ + 1, 0);
  for (const SendInterval& iv : ivs) ++first[static_cast<std::size_t>(iv.loc) + 1];
  std::partial_sum(first.begin(), first.end(), first.begin());
  const auto from = [&](std::size_t l) {
    return ivs.begin() + static_cast<std::ptrdiff_t>(first[l]);
  };
  for (std::size_t l = 0; l < nlocs_; ++l) {
    std::sort(from(l), from(l + 1),
              [](const SendInterval& a, const SendInterval& b) {
                return a.enter < b.enter;
              });
  }
  for (const CommRec& recv : comm_) {
    if (recv.type != trace::EventType::kRecv || recv.consumed == UINT32_MAX) {
      continue;
    }
    // Find the interval whose send event is exactly the send's time.
    const CommRec& send = comm_[recv.consumed];
    const auto l = static_cast<std::size_t>(send.loc);
    auto it = std::lower_bound(
        from(l), from(l + 1), send.t,
        [](const SendInterval& iv, VTime t) { return iv.enter < t; });
    if (it == from(l + 1) || it->enter != send.t || !it->closed) continue;
    if (recv.enter <= send.t) continue;  // the receiver was on time
    const VDur wait = earlier(recv.enter, it->exit) - send.t;
    if (wait > VDur::zero()) {
      add_wait(PropertyId::kLateReceiver, it->node, send.loc, wait);
    }
  }
}

std::vector<NodeId> Replay::classify_structural() {
  // Per-location totals.
  for (std::size_t loc = 0; loc < nlocs_; ++loc) {
    cube_.add(PropertyId::kTotal, kRootNode, static_cast<trace::LocId>(loc),
              span_[loc]);
    total_time_ += span_[loc];
  }
  // Time-class properties from the profile: attribute the inclusive time of
  // every class-topmost node (a node of the class whose parent is not of
  // the same class).  The OpenMP-topmost nodes and the MPI-topmost ones
  // outside OpenMP are the time idle_threads_pass does not count as serial.
  std::vector<NodeId> not_serial;
  profile_.preorder([&](NodeId n, int) {
    if (n == kRootNode) return;
    const CpNode& nd = profile_.node(n);
    const trace::RegionKind kind = facts(nd.region).kind;
    const CpNode& parent = profile_.node(nd.parent);
    const trace::RegionKind pkind = parent.region == trace::kNone
                                        ? trace::RegionKind::kUser
                                        : facts(parent.region).kind;
    if ((is_omp_kind(kind) && !is_omp_kind(pkind)) ||
        (is_mpi_kind(kind) && !is_mpi_kind(pkind) && !is_omp_kind(pkind))) {
      not_serial.push_back(n);
    }

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
  return not_serial;
}

void Replay::idle_threads_pass(const std::vector<NodeId>& not_serial) {
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
    const VDur span = span_[static_cast<std::size_t>(loc)];
    if (n <= 1 || span <= VDur::zero()) continue;
    VDur serial = span;
    for (NodeId node : not_serial) serial -= profile_.inclusive(node, loc);
    serial = non_negative(serial);
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
  // Phase 1: each location alone, in its own order.  Phase 2: only the
  // communication records, in the merged (time, location, recording order).
  // Communication records are a fraction of the events (a fifth on
  // lockstep MPI traces); a quarter's reservation skips most regrowth.
  comm_.reserve(trace_.event_count() / 4);
  for (std::size_t loc = 0; loc < nlocs_; ++loc) {
    walk_location(static_cast<trace::LocId>(loc));
  }
  renumber_nodes();
  for (const CommRec& r : comm_) {
    if (r.type == trace::EventType::kLockAcquire) {
      add_wait(PropertyId::kOmpLockContention, r.node, r.loc,
               clamp_wait(r.t - r.enter));
    }
  }
  match_communication();
  late_receiver_pass();
  idle_threads_pass(classify_structural());

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
