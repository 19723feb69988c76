// The arrival gate: numbered all-wait instances over a fixed member set.
//
// MPI collectives and OpenMP barriers share one wait rule: a member's k-th
// call joins instance k, and every member leaves at the last member's enter
// plus a completion cost — the gap is the analyzer's "Wait at Barrier" /
// "Wait at NxN".  The gate keeps each member's next sequence number, the
// instance per number (the caller's payload `Data`, the arrival count and
// the latest enter) and the one release step; an instance is erased when
// its last member leaves.  Only the token holder touches a gate, so it
// needs no lock (engine.hpp).
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "common/vtime.hpp"
#include "simt/engine.hpp"

namespace ats::simt {

/// Payload of a gate whose instances carry only the arrival state.
struct NoGateData {};

template <class Data = NoGateData>
class ArrivalGate {
 public:
  struct Instance : Data {
    std::int64_t seq = 0;
    int arrived = 0;
    int exited = 0;
    VTime max_enter;
  };

  explicit ArrivalGate(std::size_t members = 0) : next_seq_(members, 0) {}

  /// Takes member `m`'s next sequence number: its k-th call is instance k.
  std::int64_t next_seq(std::size_t m) { return next_seq_[m]++; }

  /// Instance `seq`, created with a value-initialised payload on first use.
  Instance& open(std::int64_t seq) {
    Instance& inst = table_.try_emplace(seq).first->second;
    inst.seq = seq;
    return inst;
  }

  void arrive(Instance& inst, VTime t) {
    inst.max_enter = later(inst.max_enter, t);
    ++inst.arrived;
  }

  /// The all-wait, right after arrive(): a caller that is not last blocks
  /// with `reason` until woken; the last arriver runs `compute` (it returns
  /// the completion cost), wakes the other `members` at max_enter + cost
  /// and advances its own clock to that time.
  template <class Compute>
  void release(Context& ctx, const Instance& inst,
               std::span<const LocationId> members, const char* reason,
               Compute&& compute) {
    if (static_cast<std::size_t>(inst.arrived) < next_seq_.size()) {
      ctx.block(reason);
      return;
    }
    const VTime end = inst.max_enter + compute();
    for (const LocationId m : members) {
      if (m != ctx.id()) ctx.engine().wake(m, end);
    }
    ctx.advance_to(end);
  }

  /// The member is done with `inst`; the last one to leave erases it.
  void leave(Instance& inst) {
    if (static_cast<std::size_t>(++inst.exited) == next_seq_.size()) {
      table_.erase(inst.seq);
    }
  }

  std::size_t open_instances() const { return table_.size(); }

 private:
  std::vector<std::int64_t> next_seq_;  ///< per member
  std::map<std::int64_t, Instance> table_;
};

}  // namespace ats::simt
