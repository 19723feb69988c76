// Property-based (seeded random program) tests of the simulated runtimes
// and the analyzer: generate random-but-well-formed communication plans
// and check global invariants — completion without deadlock, data
// integrity, bit-determinism, balanced traces, analyzable output.
#include <gtest/gtest.h>

#include <numeric>

#include "gen/registry.hpp"
#include "test_util.hpp"

namespace ats {
namespace {

using core::PropCtx;

/// A random message plan both end-points derive from the same seed: a list
/// of rounds; in each round every rank sends to a pseudo-random partner
/// permutation (ring offset), with random payload size and work.
struct TrafficPlan {
  int rounds;
  std::vector<int> offsets;          // per round: ring distance
  std::vector<int> counts;           // per round: payload element count
  std::vector<double> work_scale;    // per round: work seconds scale

  static TrafficPlan make(std::uint64_t seed, int np) {
    Rng rng(seed);
    TrafficPlan p;
    p.rounds = static_cast<int>(3 + rng.next_below(5));
    for (int r = 0; r < p.rounds; ++r) {
      p.offsets.push_back(
          1 + static_cast<int>(rng.next_below(
                  static_cast<std::uint64_t>(std::max(1, np - 1)))));
      p.counts.push_back(1 + static_cast<int>(rng.next_below(300)));
      p.work_scale.push_back(0.001 + 0.004 * rng.next_double());
    }
    return p;
  }
};

struct RunStats {
  VTime makespan;
  std::size_t events;
  std::int64_t checksum = 0;
};

RunStats run_traffic(std::uint64_t seed, int np) {
  mpi::MpiRunOptions opt;
  opt.nprocs = np;
  const TrafficPlan plan = TrafficPlan::make(seed, np);
  std::vector<std::int64_t> sums(static_cast<std::size_t>(np), 0);
  auto result = mpi::run_mpi(opt, [&](mpi::Proc& p) {
    PropCtx ctx = core::PropCtx::from(p);
    const int me = p.world_rank();
    std::int64_t acc = 0;
    for (int r = 0; r < plan.rounds; ++r) {
      // Random per-rank work from a deterministic distribution.
      core::do_work(ctx, plan.work_scale[static_cast<std::size_t>(r)] *
                             ((me * 7 + r * 3) % 5 + 1) / 5.0);
      const int off = plan.offsets[static_cast<std::size_t>(r)];
      const int cnt = plan.counts[static_cast<std::size_t>(r)];
      const int dst = (me + off) % np;
      const int src = (me + np - off) % np;
      std::vector<std::int32_t> out(static_cast<std::size_t>(cnt));
      std::iota(out.begin(), out.end(), 1000 * me + r);
      std::vector<std::int32_t> in(static_cast<std::size_t>(cnt), -1);
      p.sendrecv(out.data(), cnt, mpi::Datatype::kInt32, dst, r, in.data(),
                 cnt, mpi::Datatype::kInt32, src, r, p.comm_world());
      // Verify the payload came from the expected source.
      EXPECT_EQ(in.front(), 1000 * src + r) << "seed " << seed;
      acc += std::accumulate(in.begin(), in.end(), std::int64_t{0});
    }
    sums[static_cast<std::size_t>(me)] = acc;
  });
  RunStats st;
  st.makespan = result.makespan;
  st.events = result.trace.event_count();
  st.checksum = std::accumulate(sums.begin(), sums.end(), std::int64_t{0});
  // The analyzer must digest any trace the runtime produces.
  const auto analysis = analyze::analyze(result.trace);
  EXPECT_GT(analysis.total_time, VDur::zero());
  return st;
}

class RandomTrafficTest
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, int>> {};

TEST_P(RandomTrafficTest, CompletesCorrectAndDeterministic) {
  const auto [seed, np] = GetParam();
  const RunStats a = run_traffic(seed, np);
  const RunStats b = run_traffic(seed, np);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.checksum, b.checksum);
  EXPECT_GT(a.events, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, RandomTrafficTest,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 7u, 42u, 1234u),
                       ::testing::Values(2, 5, 8)));

/// Random collective sequences: same op order everywhere (as MPI requires),
/// random work in between; invariant: completion + consistent results.
class RandomCollectiveTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomCollectiveTest, SequencesComplete) {
  const std::uint64_t seed = GetParam();
  const int np = 6;
  Rng rng(seed);
  // Pre-draw the op sequence so every rank follows the same script.
  std::vector<int> script;
  const int len = static_cast<int>(4 + rng.next_below(8));
  for (int i = 0; i < len; ++i) {
    script.push_back(static_cast<int>(rng.next_below(6)));
  }
  std::vector<int> roots;
  for (int i = 0; i < len; ++i) {
    roots.push_back(static_cast<int>(rng.next_below(np)));
  }

  mpi::MpiRunOptions opt;
  opt.nprocs = np;
  auto result = mpi::run_mpi(opt, [&](mpi::Proc& p) {
    PropCtx ctx = core::PropCtx::from(p);
    const int me = p.world_rank();
    std::vector<double> buf(static_cast<std::size_t>(np), me + 1.0);
    std::vector<double> out(static_cast<std::size_t>(np), 0.0);
    for (int i = 0; i < len; ++i) {
      core::do_work(ctx, 0.001 * ((me + i) % 4 + 1));
      const int root = roots[static_cast<std::size_t>(i)];
      switch (script[static_cast<std::size_t>(i)]) {
        case 0: p.barrier(p.comm_world()); break;
        case 1:
          p.bcast(buf.data(), np, mpi::Datatype::kDouble, root,
                  p.comm_world());
          break;
        case 2:
          p.reduce(buf.data(), out.data(), np, mpi::Datatype::kDouble,
                   mpi::ReduceOp::kSum, root, p.comm_world());
          break;
        case 3:
          p.allreduce(buf.data(), out.data(), np, mpi::Datatype::kDouble,
                      mpi::ReduceOp::kMax, p.comm_world());
          break;
        case 4:
          p.allgather(buf.data(), 1, out.data(), 1, mpi::Datatype::kDouble,
                      p.comm_world());
          break;
        default:
          p.scan(buf.data(), out.data(), np, mpi::Datatype::kDouble,
                 mpi::ReduceOp::kSum, p.comm_world());
          break;
      }
    }
  });
  // Every collective instance in the trace must be complete (np records).
  std::map<std::pair<int, std::int64_t>, int> groups;
  for (const auto* e : testutil::merged(result.trace)) {
    if (e->type == trace::EventType::kCollEnd) {
      ++groups[{e->comm, e->seq}];
    }
  }
  for (const auto& [key, count] : groups) {
    EXPECT_EQ(count, np) << "comm " << key.first << " seq " << key.second;
  }
  EXPECT_NO_THROW(analyze::analyze(result.trace));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomCollectiveTest,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u));

/// Detection robustness across scales: the flagship property must be
/// detected for any communicator size and any repetition factor.
class DetectionScaleTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(DetectionScaleTest, LateSenderDetectedAtAnyScale) {
  const auto [np, r] = GetParam();
  gen::RunConfig cfg;
  cfg.nprocs = np;
  gen::ParamMap pm;
  pm.set("basework", "0.01");
  pm.set("extrawork", "0.05");
  pm.set("r", std::to_string(r));
  const auto tr = gen::run_single_property("late_sender", pm, cfg);
  const auto result = analyze::analyze(tr);
  const auto dom = result.dominant();
  ASSERT_TRUE(dom.has_value()) << "np=" << np << " r=" << r;
  EXPECT_EQ(dom->prop, analyze::PropertyId::kLateSender);
}

INSTANTIATE_TEST_SUITE_P(Scales, DetectionScaleTest,
                         ::testing::Combine(::testing::Values(2, 3, 5, 8,
                                                              16),
                                            ::testing::Values(1, 4)));

TEST(ScaleSweep, OmpImbalanceDetectedForAnyTeamSize) {
  for (int nthreads : {2, 3, 8}) {
    gen::RunConfig cfg;
    cfg.nprocs = 1;
    gen::ParamMap pm;
    pm.set("df", "linear:low=0.01,high=0.05");
    pm.set("nthreads", std::to_string(nthreads));
    const auto tr =
        gen::run_single_property("imbalance_in_omp_pregion", pm, cfg);
    const auto result = analyze::analyze(tr);
    const auto dom = result.dominant();
    ASSERT_TRUE(dom.has_value()) << nthreads;
    EXPECT_EQ(dom->prop, analyze::PropertyId::kImbalanceInParallelRegion)
        << nthreads;
  }
}

}  // namespace
}  // namespace ats
