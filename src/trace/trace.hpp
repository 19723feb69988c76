// Event-trace model for ATS.
//
// The simulated runtimes (mpisim, ompsim) record EPILOG/OTF-style events —
// region enter/exit, point-to-point message send/receive, per-participant
// collective-completion records, lock acquire/release — with virtual
// timestamps.  The analyzer consumes a Trace exactly the way an automatic
// performance tool such as EXPERT consumes a real trace file: it sees only
// the events, not the runtime's internal wait bookkeeping, so detection is a
// genuine reconstruction (message matching, collective grouping, call-path
// nesting).
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/vtime.hpp"

namespace ats::trace {

using LocId = std::int32_t;
using RegionId = std::int32_t;
using CommId = std::int32_t;
inline constexpr std::int32_t kNone = -1;

/// Classification of source-code regions; drives both timeline rendering
/// and the analyzer's time hierarchy (MPI time vs OpenMP time vs user time).
enum class RegionKind : std::uint8_t {
  kUser,        ///< user function / property function body
  kWork,        ///< do_work computation
  kMpiP2P,      ///< MPI_Send/Recv/Isend/... call
  kMpiColl,     ///< MPI collective call
  kMpiOther,    ///< init/finalize/comm management
  kOmpParallel, ///< parallel region body
  kOmpWork,     ///< worksharing construct body
  kOmpSync,     ///< barrier / implicit barrier / critical / lock API
  kIdle,        ///< explicitly-recorded idle period
};

const char* to_string(RegionKind k);
RegionKind region_kind_from_string(const std::string& s);

/// Collective operation tags shared by mpisim and ompsim records.
enum class CollOp : std::uint8_t {
  kBarrier,
  kBcast,
  kScatter,
  kScatterv,
  kGather,
  kGatherv,
  kReduce,
  kAllreduce,
  kAlltoall,
  kAllgather,
  kScan,
  kReduceScatter,
  kCommSplit,
  kCommDup,
  kOmpBarrier,   ///< explicit OpenMP barrier
  kOmpIBarrier,  ///< implicit barrier at end of region/loop/sections/single
};

const char* to_string(CollOp op);
CollOp coll_op_from_string(const std::string& s);

/// True for the "root waits for all" flavour (gather-like).
bool is_root_sink(CollOp op);
/// True for the "all wait for root" flavour (broadcast-like).
bool is_root_source(CollOp op);
/// True for the "all wait for all" flavour (barrier / NxN).
bool is_all_to_all(CollOp op);

enum class EventType : std::uint8_t {
  kEnter,
  kExit,
  kSend,
  kRecv,
  kCollEnd,
  kLockAcquire,
  kLockRelease,
  /// Per-participant collective *call* record, written when a rank enters
  /// the collective — before the runtime knows whether the instance is
  /// consistent.  This is what the collective-correctness checker
  /// (src/analyzer/collcheck.hpp) matches per communicator: a mismatched or
  /// abandoned collective still leaves its begin records even though the
  /// matching kCollEnd never happens.  Appended last so the byte values of
  /// the existing types (part of the §7 binary contract) are unchanged.
  kCollBegin,
};

const char* to_string(EventType t);

/// Reduce-op id carried by kCollBegin records (Event::tag): names the
/// mpisim ReduceOp values without a trace -> mpisim dependency.  Returns
/// "-" for kNone (no reduce op) and "?" for out-of-range ids.
const char* reduce_op_name(std::int32_t rop);

/// One trace record.  Flat struct (not a variant) so serialisation and the
/// replay loop stay simple; unused fields are kNone/zero.
///
/// The field order is the on-disk layout of the binary trace format
/// (docs/TRACE_FORMAT.md §7): 8-byte fields first, then 4-byte, then the
/// two enum bytes, then an *explicit* zeroed tail pad, so the struct has no
/// compiler-inserted padding and a record is exactly 72 deterministic
/// bytes.  Keep the static_asserts below in sync with any change here.
struct Event {
  VTime t;                      // offset  0
  VTime enter_t{};              // offset  8  kCollEnd: participant entry time
  std::int64_t bytes = 0;       // offset 16  kSend/kRecv payload;
                                //            kCollEnd: bytes sent
  std::int64_t bytes_out = 0;   // offset 24  kCollEnd: bytes received
  std::int64_t seq = kNone;     // offset 32  kCollEnd: collective instance
  LocId loc = kNone;            // offset 40
  RegionId region = kNone;      // offset 44  kEnter/kExit
  std::int32_t peer = kNone;    // offset 48  kSend: destination loc;
                                //            kRecv: source; locks: lock id
  std::int32_t tag = kNone;     // offset 52
  CommId comm = kNone;          // offset 56
  std::int32_t root = kNone;    // offset 60  kCollEnd: root as global loc id
  EventType type = EventType::kEnter;  // offset 64
  CollOp op = CollOp::kBarrier;        // offset 65  kCollEnd
  std::uint8_t pad_[6] = {};    // offsets 66-71: always zero on disk
};

static_assert(sizeof(Event) == 72,
              "Event is the binary trace record; its size is part of the "
              "on-disk contract (docs/TRACE_FORMAT.md §7)");
static_assert(alignof(Event) == 8, "binary event blocks are 8-aligned");
static_assert(std::is_trivially_copyable_v<Event>,
              "binary trace io memcpys whole Event records");

enum class LocKind : std::uint8_t { kProcess, kThread };

/// Static description of a location (one lane in the timeline).
struct LocationInfo {
  LocId id = kNone;
  LocId parent = kNone;  ///< forking location for threads; kNone for ranks
  LocKind kind = LocKind::kProcess;
  std::int32_t rank = kNone;    ///< MPI world rank of the owning process
  std::int32_t thread = 0;      ///< thread number within its team (0 = master)
  std::string name;
};

enum class CommKind : std::uint8_t { kMpiComm, kOmpTeam };

/// Static description of a communicator or OpenMP team.
struct CommInfo {
  CommId id = kNone;
  CommKind kind = CommKind::kMpiComm;
  std::vector<LocId> members;  ///< position == rank within the comm/team
  std::string name;
};

struct RegionInfo {
  RegionId id = kNone;
  RegionKind kind = RegionKind::kUser;
  std::string name;
};

/// Interns region names; ids are dense.
class RegionRegistry {
 public:
  RegionId intern(const std::string& name, RegionKind kind);
  const RegionInfo& info(RegionId id) const;
  /// Looks up by name; returns kNone when absent.
  RegionId find(const std::string& name) const;
  std::size_t size() const { return regions_.size(); }

 private:
  std::vector<RegionInfo> regions_;
};

/// An in-memory event trace: location/comm/region metadata plus one
/// time-ordered event vector per location.
class Trace {
 public:
  // ---- metadata -------------------------------------------------------
  RegionRegistry& regions() { return regions_; }
  const RegionRegistry& regions() const { return regions_; }

  /// Registers location `id`.  Ids must arrive densely in spawn order so
  /// that trace locations coincide with engine locations.
  void add_location(LocationInfo info);
  CommId add_comm(CommKind kind, std::vector<LocId> members,
                  std::string name);

  const LocationInfo& location(LocId id) const;
  const CommInfo& comm(CommId id) const;
  std::size_t location_count() const { return locations_.size(); }
  std::size_t comm_count() const { return comms_.size(); }

  // ---- recording ------------------------------------------------------
  /// When disabled, the record_* calls become no-ops (used to measure the
  /// instrumented/uninstrumented overhead delta, cf. paper Ch. 2).
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  void enter(LocId loc, VTime t, RegionId region);
  void exit(LocId loc, VTime t, RegionId region);
  void send(LocId loc, VTime t, LocId dst, std::int32_t tag, CommId comm,
            std::int64_t bytes);
  void recv(LocId loc, VTime t, LocId src, std::int32_t tag, CommId comm,
            std::int64_t bytes);
  void coll_end(LocId loc, VTime t, VTime enter_t, CommId comm,
                std::int64_t seq, CollOp op, std::int32_t root,
                std::int64_t bytes_in, std::int64_t bytes_out);
  /// Collective call record (kCollBegin): what this participant *believes*
  /// it is doing — op, root (global loc id, kNone when non-rooted), reduce
  /// op (`rop`, kNone when the op has none; stored in Event::tag) and the
  /// enclosing MPI call region.  `seq` is the participant's per-rank call
  /// index on `comm`, matching the seq of the eventual kCollEnd.
  void coll_begin(LocId loc, VTime t, CommId comm, std::int64_t seq,
                  CollOp op, std::int32_t root, std::int32_t rop,
                  RegionId region);
  void lock_acquire(LocId loc, VTime t, std::int32_t lock_id);
  void lock_release(LocId loc, VTime t, std::int32_t lock_id);

  /// Records `e` as is on location `e.loc` (the typed recorders above build
  /// their Event and land here).  This is how the binary loader's copy
  /// fallback and the fault injector replay whole records; it does not
  /// check the record's references — callers that take untrusted records
  /// run check_event (trace_io.hpp) first.  Throws for an unknown location
  /// or one whose events are external.
  void append(const Event& e);

  // ---- spill-to-disk (docs/TRACE_FORMAT.md §7, DESIGN.md §12) ----------
  /// Streams event blocks to `path` whenever the resident event payload
  /// exceeds `watermark_bytes`, so a long-running generation never holds
  /// the whole trace in RAM.  Per-location recording order is preserved as
  /// ordered (offset, count) segments in the spill file.  A spilled trace
  /// can still be saved (text or binary — both stream the segments back in
  /// order) but its events are no longer addressable in memory:
  /// events_of()/for_each_merged() throw until the saved trace is reloaded.
  /// Enable
  /// before recording; the spill file is deleted on destruction.
  void enable_spill(std::string path, std::size_t watermark_bytes);
  bool spill_enabled() const { return spill_ != nullptr; }
  /// Event payload bytes currently written to the spill file.
  std::size_t spilled_bytes() const;
  /// Event payload bytes resident in memory (spilled blocks excluded).
  std::size_t memory_bytes() const;

  // ---- views ----------------------------------------------------------
  /// Events of one location, in recording order.  Storage is either the
  /// recording buffer or — after a zero-copy binary load — an external
  /// mapped region kept alive by this Trace.  Throws for locations whose
  /// events were spilled to disk (see enable_spill).
  std::span<const Event> events_of(LocId loc) const;
  std::size_t event_count() const;

  /// Points location `loc`'s event storage at `events`, an external
  /// buffer kept alive by `owner` (an mmap mapping or a loaded byte
  /// buffer).  This is the zero-copy binary-load path: the analyzer walks
  /// each location's records in place, no materialised vector<Event>.
  /// Recording further events to such a location throws.
  void set_external_events(LocId loc, std::span<const Event> events,
                           std::shared_ptr<const void> owner);
  /// True when any location's events live in an external mapped buffer.
  bool external_events() const { return !ext_owners_.empty(); }

  /// Visits every event in global (time, loc) order; events of one
  /// location keep their recording order even at equal timestamps.  `fn`
  /// is invoked as fn(const Event&).  The analyzer visits its
  /// communication events in this order (src/analyzer/analyzer.hpp).
  ///
  /// The order comes from sort_merge_keys over keys gathered location by
  /// location in recording order, which is exactly (time, loc, recording
  /// order) — also for locations recorded out of time order.  The two
  /// transient 16-byte key buffers (32 B/event) are freed when the walk
  /// returns.
  template <typename Fn>
  void for_each_merged(Fn&& fn) const;

  /// One merge-order sort key: a timestamp (VTime::ns() cast to uint64)
  /// and the caller's record.
  struct MergeKey {
    std::uint64_t t;
    const void* ref;
  };
  /// Stable LSD radix sort of `keys` by time: keys with equal times keep
  /// their order, so keys gathered location by location in recording
  /// order come out in (time, loc, recording order).  It costs one pass
  /// per 11 bits of the keys' time range (t_max - t_min), independent of
  /// the location count.  Overwrites every `t` with its offset from the
  /// earliest time.
  static void sort_merge_keys(std::vector<MergeKey>& keys);

  /// Locations whose event buffer was recorded out of time order.  The
  /// simulators always record monotonically, so a non-zero count marks a
  /// hand-built or clock-skewed trace; the analyzer folds it into its
  /// DataQuality summary.
  std::size_t unsorted_location_count() const;
  /// False when location `loc`'s events were recorded out of time order.
  bool time_sorted(LocId loc) const {
    return loc_sorted_[static_cast<std::size_t>(loc)];
  }

  /// Latest timestamp in the trace (zero when empty).
  VTime end_time() const;
  /// Earliest timestamp in the trace (zero when empty).
  VTime begin_time() const;

  // ---- io (see trace_io.cpp / trace_binary.cpp) ------------------------
  /// Text format (docs/TRACE_FORMAT.md §1-§6).
  void save(std::ostream& os) const;
  /// Record-packed binary container (docs/TRACE_FORMAT.md §7).
  void save_binary(std::ostream& os) const;
  static Trace load(std::istream& is);

  // Spilled traces are single-owner (the spill file has one writer) and a
  // deep copy would silently duplicate hundreds of megabytes at weak-scale
  // sizes, so Trace is move-only.
  Trace();   // out-of-line: Spill is incomplete here
  ~Trace();
  Trace(Trace&&) noexcept;
  Trace& operator=(Trace&&) noexcept;
  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

 private:
  struct Spill;

  void maybe_spill();

 public:
  // ---- saver plumbing (trace_io.cpp / trace_binary.cpp) ----------------
  /// Visits the full event sequence of `loc` in recording order as a
  /// series of contiguous chunks (spilled segments are read back through a
  /// bounded scratch buffer, then the resident tail).  This is how both
  /// savers stream a spilled trace without re-materialising it.
  void for_each_chunk_of(
      LocId loc,
      const std::function<void(const Event*, std::size_t)>& fn) const;
  std::size_t loc_event_count(LocId loc) const;

 private:

  RegionRegistry regions_;
  std::vector<LocationInfo> locations_;
  std::vector<CommInfo> comms_;
  std::vector<std::vector<Event>> per_loc_;
  /// Per-location flag: false once an event is recorded with a timestamp
  /// earlier than its predecessor (possible only for hand-built traces; the
  /// simulators record monotonically).  The merge needs no pre-sort for
  /// such buffers; the flag feeds time_sorted() and
  /// unsorted_location_count().
  std::vector<bool> loc_sorted_;
  /// Per-location timestamp extrema, valid when loc_event_count(l) > 0.
  /// Tracked incrementally so begin/end_time need no spilled read-back.
  std::vector<VTime> first_t_;
  std::vector<VTime> last_t_;
  bool enabled_ = true;

  // Zero-copy external storage (binary mmap load); parallel to per_loc_.
  std::vector<std::span<const Event>> ext_;
  std::vector<std::uint8_t> ext_set_;
  std::vector<std::shared_ptr<const void>> ext_owners_;

  std::unique_ptr<Spill> spill_;
  /// Events currently held in per_loc_ buffers (excludes spilled blocks and
  /// external mapped spans); drives the spill watermark in O(1).
  std::size_t resident_events_ = 0;
};

template <typename Fn>
void Trace::for_each_merged(Fn&& fn) const {
  // events_of throws for spilled locations — a spilled trace is a
  // write-only stream until reloaded.
  std::vector<MergeKey> keys;
  keys.reserve(event_count());
  for (std::size_t l = 0; l < per_loc_.size(); ++l) {
    for (const Event& e : events_of(static_cast<LocId>(l))) {
      keys.push_back({static_cast<std::uint64_t>(e.t.ns()), &e});
    }
  }
  sort_merge_keys(keys);
  for (const MergeKey& k : keys) fn(*static_cast<const Event*>(k.ref));
}

}  // namespace ats::trace
