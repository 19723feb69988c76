// Collective-correctness verification (the structural analysis layer).
//
// PARCOACH's dynamic check reduces a per-collective "color" with an
// all-equal operator and aborts the application on mismatch.  ATS analyses
// traces after the fact, so the checker works from the per-participant
// kCollBegin records instead: every member's k-th collective call on a
// communicator must agree with every other member's k-th call on the
// operation, the root and the reduce-op; every member must make the call;
// and every call must complete (a matching kCollEnd).  Because the runtime
// writes the begin record *before* its own consistency checks, the evidence
// survives even when the run aborts mid-collective — the checker then cites
// exactly which ranks called what, at which per-rank call index.
//
// Violations are reported as StructuralDefects alongside the severity tree;
// taxonomy, detection rules and report schema: docs/DEFECTS.md.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "trace/trace.hpp"

namespace ats::analyze {

/// The structural-defect taxonomy (docs/DEFECTS.md).  Order is the report
/// priority: when one collective instance exhibits several anomalies (an
/// aborted run leaves mismatched *and* missing calls), only the
/// highest-priority kind is reported for that instance.
enum class DefectKind : std::uint8_t {
  kOperationMismatch,     ///< members called different collective ops
  kRootMismatch,          ///< rooted op with disagreeing roots
  kReduceOpMismatch,      ///< reduction with disagreeing reduce operators
  kMissingCall,           ///< some members never made the call
  kUnfinishedCollective,  ///< all called, at least one never completed
};

/// Stable kebab-case name ("operation-mismatch", ...), used by the reports
/// and the golden defect files.
const char* to_string(DefectKind k);

/// One rank's view of a collective instance, straight from its kCollBegin
/// record.
struct DefectParticipant {
  trace::LocId loc = trace::kNone;   ///< global location id
  int comm_rank = -1;                ///< rank within the communicator
  std::int64_t call_index = -1;      ///< per-rank collective call index
  trace::CollOp op = trace::CollOp::kBarrier;
  std::int32_t root = trace::kNone;  ///< believed root (global loc id)
  std::int32_t rop = trace::kNone;   ///< reduce-op id (trace::reduce_op_name)
  bool completed = false;            ///< matching kCollEnd seen
};

/// One defective collective instance: the communicator, the per-rank call
/// index identifying the instance, and every participating rank's view.
struct StructuralDefect {
  DefectKind kind = DefectKind::kOperationMismatch;
  trace::CommId comm = trace::kNone;
  std::int64_t call_index = -1;
  /// The first participant's operation (representative; participants carry
  /// the per-rank truth when they disagree).
  trace::CollOp op = trace::CollOp::kBarrier;
  /// Ranks that issued the call, sorted by comm_rank.
  std::vector<DefectParticipant> participants;
  /// Communicator ranks that never issued it (empty unless some are absent).
  std::vector<int> missing;

  /// One-line human-readable report citing ranks and call index, e.g.
  ///   operation-mismatch 'MPI_COMM_WORLD' call #1: ranks {0,2} called
  ///   allreduce, ranks {1,3} called barrier
  std::string describe(const trace::Trace& t) const;
};

/// Streaming checker fed by the analyzer's replay loop: one on_begin per
/// kCollBegin, one on_end per kCollEnd, then finish().  Structurally sound
/// instances are retired as soon as they complete, so the live state on a
/// clean trace is bounded by the number of concurrently open collectives.
class CollectiveChecker {
 public:
  explicit CollectiveChecker(const trace::Trace& trace);

  void on_begin(const trace::Event& e);
  void on_end(const trace::Event& e);

  /// Flushes the remaining (defective) instances and returns the defects,
  /// sorted by (communicator, call index); at most one per instance.
  std::vector<StructuralDefect> finish();

 private:
  struct Group {
    std::vector<DefectParticipant> participants;
    /// Participant index per comm rank (-1: none yet), so a record finds its
    /// participant in O(1); sized to the communicator on first use.
    std::vector<std::int32_t> by_rank;
    /// Indices of participants outside the communicator (corrupted trace).
    std::vector<std::size_t> outsiders;
    std::size_t done = 0;  ///< participants with completed == true
    bool ops_differ = false;
    bool roots_differ = false;
    bool rops_differ = false;
  };

  struct GroupKey {
    std::int32_t comm = 0;
    std::int64_t seq = 0;
    bool operator==(const GroupKey&) const = default;
  };
  struct GroupKeyHash {
    std::size_t operator()(const GroupKey& k) const {
      // splitmix64 finaliser over the packed pair
      std::uint64_t x =
          (static_cast<std::uint64_t>(static_cast<std::uint32_t>(k.comm))
           << 40) ^
          static_cast<std::uint64_t>(k.seq);
      x ^= x >> 30;
      x *= 0xbf58476d1ce4e5b9ULL;
      x ^= x >> 27;
      x *= 0x94d049bb133111ebULL;
      x ^= x >> 31;
      return static_cast<std::size_t>(x);
    }
  };

  int rank_in_comm(trace::CommId comm, trace::LocId loc);
  /// `loc`'s participant in `g` (`rank` is its comm rank), or nullptr.
  static DefectParticipant* participant(Group& g, int rank, trace::LocId loc);

  const trace::Trace& trace_;
  std::unordered_map<GroupKey, Group, GroupKeyHash> groups_;
  /// Lazily built loc -> rank maps, one per communicator consulted.
  std::unordered_map<trace::CommId,
                     std::unordered_map<trace::LocId, int>>
      rank_maps_;
};

}  // namespace ats::analyze
