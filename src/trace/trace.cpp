#include "trace/trace.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>

namespace ats::trace {

/// Spill-to-disk state (see enable_spill).  Event blocks are appended to a
/// single scratch file; each flushed block is remembered as an ordered
/// (offset, count) segment per location so savers can stream them back in
/// recording order.  The file is a private scratch — raw native-endian
/// Event records, no header — and is unlinked when the Trace dies.
struct Trace::Spill {
  struct Segment {
    std::uint64_t offset = 0;  ///< byte offset of the block in the file
    std::uint64_t count = 0;   ///< events in the block
  };

  std::string path;
  std::fstream file;
  std::size_t watermark_bytes = 0;
  std::uint64_t write_offset = 0;       ///< append position (bytes)
  std::vector<std::vector<Segment>> segments;  ///< per location, in order
  std::vector<std::uint64_t> spilled_counts;   ///< per location event totals

  ~Spill() {
    if (file.is_open()) file.close();
    if (!path.empty()) std::remove(path.c_str());
  }
};

const char* to_string(RegionKind k) {
  switch (k) {
    case RegionKind::kUser: return "user";
    case RegionKind::kWork: return "work";
    case RegionKind::kMpiP2P: return "mpi_p2p";
    case RegionKind::kMpiColl: return "mpi_coll";
    case RegionKind::kMpiOther: return "mpi_other";
    case RegionKind::kOmpParallel: return "omp_parallel";
    case RegionKind::kOmpWork: return "omp_work";
    case RegionKind::kOmpSync: return "omp_sync";
    case RegionKind::kIdle: return "idle";
  }
  return "?";
}

RegionKind region_kind_from_string(const std::string& s) {
  for (int k = 0; k <= static_cast<int>(RegionKind::kIdle); ++k) {
    const auto kind = static_cast<RegionKind>(k);
    if (s == to_string(kind)) return kind;
  }
  throw TraceError("unknown region kind: " + s);
}

const char* to_string(CollOp op) {
  switch (op) {
    case CollOp::kBarrier: return "barrier";
    case CollOp::kBcast: return "bcast";
    case CollOp::kScatter: return "scatter";
    case CollOp::kScatterv: return "scatterv";
    case CollOp::kGather: return "gather";
    case CollOp::kGatherv: return "gatherv";
    case CollOp::kReduce: return "reduce";
    case CollOp::kAllreduce: return "allreduce";
    case CollOp::kAlltoall: return "alltoall";
    case CollOp::kAllgather: return "allgather";
    case CollOp::kScan: return "scan";
    case CollOp::kReduceScatter: return "reduce_scatter";
    case CollOp::kCommSplit: return "comm_split";
    case CollOp::kCommDup: return "comm_dup";
    case CollOp::kOmpBarrier: return "omp_barrier";
    case CollOp::kOmpIBarrier: return "omp_ibarrier";
  }
  return "?";
}

CollOp coll_op_from_string(const std::string& s) {
  for (int k = 0; k <= static_cast<int>(CollOp::kOmpIBarrier); ++k) {
    const auto op = static_cast<CollOp>(k);
    if (s == to_string(op)) return op;
  }
  throw TraceError("unknown collective op: " + s);
}

bool is_root_sink(CollOp op) {
  return op == CollOp::kReduce || op == CollOp::kGather ||
         op == CollOp::kGatherv;
}

bool is_root_source(CollOp op) {
  return op == CollOp::kBcast || op == CollOp::kScatter ||
         op == CollOp::kScatterv;
}

bool is_all_to_all(CollOp op) {
  return op == CollOp::kBarrier || op == CollOp::kAllreduce ||
         op == CollOp::kAlltoall || op == CollOp::kAllgather ||
         op == CollOp::kScan || op == CollOp::kReduceScatter ||
         op == CollOp::kCommSplit ||
         op == CollOp::kCommDup || op == CollOp::kOmpBarrier ||
         op == CollOp::kOmpIBarrier;
}

const char* to_string(EventType t) {
  switch (t) {
    case EventType::kEnter: return "enter";
    case EventType::kExit: return "exit";
    case EventType::kSend: return "send";
    case EventType::kRecv: return "recv";
    case EventType::kCollEnd: return "coll_end";
    case EventType::kLockAcquire: return "lock_acquire";
    case EventType::kLockRelease: return "lock_release";
    case EventType::kCollBegin: return "coll_begin";
  }
  return "?";
}

namespace {
// Names mirror mpisim's ReduceOp enumeration order; mpisim/coll.cpp
// static_asserts the correspondence so the two can never drift apart.
constexpr const char* kReduceOpNames[] = {"sum", "prod", "min",
                                          "max", "land", "lor"};
}  // namespace

const char* reduce_op_name(std::int32_t rop) {
  if (rop == kNone) return "-";
  if (rop < 0 || static_cast<std::size_t>(rop) >= std::size(kReduceOpNames)) {
    return "?";
  }
  return kReduceOpNames[rop];
}

// --------------------------------------------------------- RegionRegistry

RegionId RegionRegistry::intern(const std::string& name, RegionKind kind) {
  for (const auto& r : regions_) {
    if (r.name == name) {
      if (r.kind != kind) {
        throw TraceError("region '" + name + "' re-interned with kind " +
                         std::string(to_string(kind)) + " (was " +
                         to_string(r.kind) + ")");
      }
      return r.id;
    }
  }
  RegionInfo info;
  info.id = static_cast<RegionId>(regions_.size());
  info.kind = kind;
  info.name = name;
  regions_.push_back(std::move(info));
  return regions_.back().id;
}

const RegionInfo& RegionRegistry::info(RegionId id) const {
  if (id < 0 || static_cast<std::size_t>(id) >= regions_.size()) {
    throw TraceError("unknown region id " + std::to_string(id));
  }
  return regions_[static_cast<std::size_t>(id)];
}

RegionId RegionRegistry::find(const std::string& name) const {
  for (const auto& r : regions_) {
    if (r.name == name) return r.id;
  }
  return kNone;
}

// ------------------------------------------------------------------ Trace

void Trace::add_location(LocationInfo info) {
  if (info.id != static_cast<LocId>(locations_.size())) {
    throw TraceError("locations must be added densely in id order (got " +
                     std::to_string(info.id) + ", expected " +
                     std::to_string(locations_.size()) + ")");
  }
  locations_.push_back(std::move(info));
  per_loc_.emplace_back();
  loc_sorted_.push_back(true);
  first_t_.push_back(VTime::zero());
  last_t_.push_back(VTime::zero());
  ext_.emplace_back();
  ext_set_.push_back(0);
  if (spill_) {
    spill_->segments.emplace_back();
    spill_->spilled_counts.push_back(0);
  }
}

CommId Trace::add_comm(CommKind kind, std::vector<LocId> members,
                       std::string name) {
  CommInfo info;
  info.id = static_cast<CommId>(comms_.size());
  info.kind = kind;
  info.members = std::move(members);
  info.name = std::move(name);
  comms_.push_back(std::move(info));
  return comms_.back().id;
}

const LocationInfo& Trace::location(LocId id) const {
  if (id < 0 || static_cast<std::size_t>(id) >= locations_.size()) {
    throw TraceError("unknown location id " + std::to_string(id));
  }
  return locations_[static_cast<std::size_t>(id)];
}

const CommInfo& Trace::comm(CommId id) const {
  if (id < 0 || static_cast<std::size_t>(id) >= comms_.size()) {
    throw TraceError("unknown comm id " + std::to_string(id));
  }
  return comms_[static_cast<std::size_t>(id)];
}

void Trace::append(const Event& e) {
  if (!enabled_) return;
  if (e.loc < 0 || static_cast<std::size_t>(e.loc) >= per_loc_.size()) {
    throw TraceError("event for unknown location " + std::to_string(e.loc));
  }
  const auto l = static_cast<std::size_t>(e.loc);
  if (ext_set_[l]) {
    throw TraceError("location " + std::to_string(e.loc) +
                     " has external (mapped) events; recording is frozen");
  }
  // The monotonicity check must survive spilling, where the predecessor may
  // no longer be resident — compare against the tracked last timestamp.
  if (loc_event_count(e.loc) == 0) {
    first_t_[l] = e.t;
  } else if (e.t < last_t_[l]) {
    loc_sorted_[l] = false;
  }
  last_t_[l] = e.t;
  per_loc_[l].push_back(e);
  ++resident_events_;
  if (spill_ && resident_events_ * sizeof(Event) > spill_->watermark_bytes) {
    maybe_spill();
  }
}

void Trace::enable_spill(std::string path, std::size_t watermark_bytes) {
  if (spill_) throw TraceError("spill already enabled");
  if (external_events()) {
    throw TraceError("cannot spill a trace with external (mapped) events");
  }
  auto s = std::make_unique<Spill>();
  s->file.open(path, std::ios::in | std::ios::out | std::ios::trunc |
                         std::ios::binary);
  if (!s->file) throw TraceError("cannot open spill file: " + path);
  s->path = std::move(path);
  s->watermark_bytes = watermark_bytes;
  s->segments.resize(per_loc_.size());
  s->spilled_counts.resize(per_loc_.size(), 0);
  spill_ = std::move(s);
}

/// Checkpoint flush: appends every non-empty resident buffer to the spill
/// file as one segment and releases its memory.  Flushing all locations at
/// once (rather than the single largest) turns the spill into large
/// sequential writes and keeps the per-location segment lists short — one
/// entry per watermark crossing.
void Trace::maybe_spill() {
  Spill& s = *spill_;
  s.file.clear();
  s.file.seekp(static_cast<std::streamoff>(s.write_offset));
  for (std::size_t l = 0; l < per_loc_.size(); ++l) {
    auto& v = per_loc_[l];
    if (v.empty()) continue;
    Spill::Segment seg;
    seg.offset = s.write_offset;
    seg.count = v.size();
    s.file.write(reinterpret_cast<const char*>(v.data()),
                 static_cast<std::streamsize>(v.size() * sizeof(Event)));
    if (!s.file) throw TraceError("spill write failed: " + s.path);
    s.write_offset += seg.count * sizeof(Event);
    s.segments[l].push_back(seg);
    s.spilled_counts[l] += seg.count;
    resident_events_ -= v.size();
    std::vector<Event>().swap(v);  // release capacity, not just size
  }
  s.file.flush();
}

std::size_t Trace::spilled_bytes() const {
  return spill_ ? static_cast<std::size_t>(spill_->write_offset) : 0;
}

std::size_t Trace::memory_bytes() const {
  return resident_events_ * sizeof(Event);
}

namespace {
/// An event of `type` on `loc` at `t`; the recorder fills in the rest.
Event stamped(EventType type, LocId loc, VTime t) {
  Event e;
  e.t = t;
  e.loc = loc;
  e.type = type;
  return e;
}
}  // namespace

void Trace::enter(LocId loc, VTime t, RegionId region) {
  Event e = stamped(EventType::kEnter, loc, t);
  e.region = region;
  append(e);
}

void Trace::exit(LocId loc, VTime t, RegionId region) {
  Event e = stamped(EventType::kExit, loc, t);
  e.region = region;
  append(e);
}

void Trace::send(LocId loc, VTime t, LocId dst, std::int32_t tag, CommId comm,
                 std::int64_t bytes) {
  Event e = stamped(EventType::kSend, loc, t);
  e.peer = dst;
  e.tag = tag;
  e.comm = comm;
  e.bytes = bytes;
  append(e);
}

void Trace::recv(LocId loc, VTime t, LocId src, std::int32_t tag, CommId comm,
                 std::int64_t bytes) {
  Event e = stamped(EventType::kRecv, loc, t);
  e.peer = src;
  e.tag = tag;
  e.comm = comm;
  e.bytes = bytes;
  append(e);
}

void Trace::coll_end(LocId loc, VTime t, VTime enter_t, CommId comm,
                     std::int64_t seq, CollOp op, std::int32_t root,
                     std::int64_t bytes_in, std::int64_t bytes_out) {
  Event e = stamped(EventType::kCollEnd, loc, t);
  e.comm = comm;
  e.seq = seq;
  e.op = op;
  e.root = root;
  e.bytes = bytes_in;
  e.bytes_out = bytes_out;
  e.enter_t = enter_t;
  append(e);
}

void Trace::coll_begin(LocId loc, VTime t, CommId comm, std::int64_t seq,
                       CollOp op, std::int32_t root, std::int32_t rop,
                       RegionId region) {
  Event e = stamped(EventType::kCollBegin, loc, t);
  e.comm = comm;
  e.seq = seq;
  e.op = op;
  e.root = root;
  e.tag = rop;
  e.region = region;
  append(e);
}

void Trace::lock_acquire(LocId loc, VTime t, std::int32_t lock_id) {
  Event e = stamped(EventType::kLockAcquire, loc, t);
  e.peer = lock_id;
  append(e);
}

void Trace::lock_release(LocId loc, VTime t, std::int32_t lock_id) {
  Event e = stamped(EventType::kLockRelease, loc, t);
  e.peer = lock_id;
  append(e);
}

Trace::Trace() = default;
Trace::~Trace() = default;
Trace::Trace(Trace&&) noexcept = default;
Trace& Trace::operator=(Trace&&) noexcept = default;

std::size_t Trace::loc_event_count(LocId loc) const {
  const auto l = static_cast<std::size_t>(loc);
  if (ext_set_[l]) return ext_[l].size();
  std::size_t n = per_loc_[l].size();
  if (spill_) n += static_cast<std::size_t>(spill_->spilled_counts[l]);
  return n;
}

std::span<const Event> Trace::events_of(LocId loc) const {
  if (loc < 0 || static_cast<std::size_t>(loc) >= per_loc_.size()) {
    throw TraceError("unknown location id " + std::to_string(loc));
  }
  const auto l = static_cast<std::size_t>(loc);
  if (ext_set_[l]) return ext_[l];
  if (spill_ && spill_->spilled_counts[l] > 0) {
    throw TraceError("events of location " + std::to_string(loc) +
                     " were spilled to disk; save the trace and reload it "
                     "to analyze");
  }
  const auto& v = per_loc_[l];
  return {v.data(), v.size()};
}

void Trace::set_external_events(LocId loc, std::span<const Event> events,
                                std::shared_ptr<const void> owner) {
  if (loc < 0 || static_cast<std::size_t>(loc) >= per_loc_.size()) {
    throw TraceError("unknown location id " + std::to_string(loc));
  }
  const auto l = static_cast<std::size_t>(loc);
  if (!per_loc_[l].empty() || (spill_ && spill_->spilled_counts[l] > 0)) {
    throw TraceError("location " + std::to_string(loc) +
                     " already has recorded events");
  }
  if (!events.empty()) {
    first_t_[l] = events.front().t;
    last_t_[l] = events.back().t;
    // The recording path detects out-of-order timestamps incrementally; an
    // adopted span needs the same classification for DataQuality.
    for (std::size_t i = 1; i < events.size(); ++i) {
      if (events[i].t < events[i - 1].t) {
        loc_sorted_[l] = false;
        break;
      }
    }
  }
  ext_[l] = events;
  ext_set_[l] = 1;
  ext_owners_.push_back(std::move(owner));
}

std::size_t Trace::event_count() const {
  std::size_t n = 0;
  for (std::size_t l = 0; l < per_loc_.size(); ++l) {
    n += loc_event_count(static_cast<LocId>(l));
  }
  return n;
}

void Trace::for_each_chunk_of(
    LocId loc, const std::function<void(const Event*, std::size_t)>& fn) const {
  const auto l = static_cast<std::size_t>(loc);
  if (ext_set_[l]) {
    if (!ext_[l].empty()) fn(ext_[l].data(), ext_[l].size());
    return;
  }
  if (spill_ && !spill_->segments[l].empty()) {
    // Bounded scratch: large enough for sequential-read throughput, small
    // enough that streaming a spilled trace stays O(1) in memory.
    static constexpr std::size_t kScratchEvents = 8192;
    std::vector<Event> scratch;
    Spill& s = *spill_;
    s.file.clear();
    for (const Spill::Segment& seg : s.segments[l]) {
      std::uint64_t done = 0;
      while (done < seg.count) {
        const std::size_t n = static_cast<std::size_t>(
            std::min<std::uint64_t>(seg.count - done, kScratchEvents));
        scratch.resize(n);
        s.file.seekg(
            static_cast<std::streamoff>(seg.offset + done * sizeof(Event)));
        s.file.read(reinterpret_cast<char*>(scratch.data()),
                    static_cast<std::streamsize>(n * sizeof(Event)));
        if (!s.file) throw TraceError("spill read failed: " + s.path);
        fn(scratch.data(), n);
        done += n;
      }
    }
  }
  const auto& v = per_loc_[l];
  if (!v.empty()) fn(v.data(), v.size());
}

void Trace::sort_merge_keys(std::vector<MergeKey>& keys) {
  constexpr int kDigitBits = 11;
  constexpr std::size_t kBuckets = std::size_t{1} << kDigitBits;
  // Flipping the sign bit maps int64 order onto uint64 order; offsets from
  // the earliest time then cannot overflow even over the full int64 range.
  constexpr std::uint64_t kSignBit = std::uint64_t{1} << 63;

  std::uint64_t lo = UINT64_MAX;
  std::uint64_t hi = 0;
  for (MergeKey& k : keys) {
    k.t ^= kSignBit;
    lo = std::min(lo, k.t);
    hi = std::max(hi, k.t);
  }
  if (keys.empty()) return;
  const int passes =
      (std::bit_width(hi - lo) + kDigitBits - 1) / kDigitBits;
  if (passes == 0) return;  // one timestamp: the given order is final

  // Offsets from the earliest time, and every pass's digit histogram in
  // the same read.
  std::vector<std::size_t> counts(static_cast<std::size_t>(passes) *
                                  kBuckets);
  for (MergeKey& k : keys) {
    k.t -= lo;
    for (int p = 0; p < passes; ++p) {
      ++counts[p * kBuckets + ((k.t >> (p * kDigitBits)) & (kBuckets - 1))];
    }
  }
  std::vector<MergeKey> other(keys.size());
  for (int p = 0; p < passes; ++p) {
    const int shift = p * kDigitBits;
    std::size_t* count = counts.data() + p * kBuckets;
    // A digit shared by every key would scatter into the same order.
    if (count[(keys.front().t >> shift) & (kBuckets - 1)] == keys.size()) {
      continue;
    }
    std::size_t at = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      const std::size_t n = count[b];
      count[b] = at;
      at += n;
    }
    for (const MergeKey& k : keys) {
      other[count[(k.t >> shift) & (kBuckets - 1)]++] = k;
    }
    keys.swap(other);
  }
}

std::size_t Trace::unsorted_location_count() const {
  std::size_t n = 0;
  for (const bool sorted : loc_sorted_) {
    if (!sorted) ++n;
  }
  return n;
}

VTime Trace::end_time() const {
  // Uses the tracked extrema (last *recorded* timestamp per location, same
  // as the previous buffer-tail behaviour) so spilled traces answer without
  // touching disk.
  VTime t = VTime::zero();
  for (std::size_t l = 0; l < per_loc_.size(); ++l) {
    if (loc_event_count(static_cast<LocId>(l)) > 0) t = later(t, last_t_[l]);
  }
  return t;
}

VTime Trace::begin_time() const {
  bool any = false;
  VTime t = VTime::max();
  for (std::size_t l = 0; l < per_loc_.size(); ++l) {
    if (loc_event_count(static_cast<LocId>(l)) > 0) {
      t = earlier(t, first_t_[l]);
      any = true;
    }
  }
  return any ? t : VTime::zero();
}

}  // namespace ats::trace
