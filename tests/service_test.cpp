// Tests for the analysis service (docs/SERVICE.md): wire protocol,
// admission control and load shedding, the crash-consistent result cache,
// exactly-once recovery, and the end-to-end server over a real Unix
// socket (in-process Server + Client).
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/fsatomic.hpp"
#include "runner/supervisor.hpp"
#include "service/admission.hpp"
#include "service/cache.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"
#include "service/recovery.hpp"
#include "service/server.hpp"

namespace ats::service {
namespace {

// ------------------------------------------------------------- protocol

TEST(ServiceProtocol, ParsesAnalyzeRequest) {
  const Request r = parse_request(
      "analyze prop=late_sender np=8 extrawork=0.05 deadline_ms=2000");
  EXPECT_EQ(r.op, Op::kAnalyze);
  EXPECT_EQ(r.prop, "late_sender");
  EXPECT_EQ(r.np, 8);
  EXPECT_EQ(r.deadline.count(), 2000);
  EXPECT_EQ(r.params.get_raw("extrawork", ""), "0.05");
}

TEST(ServiceProtocol, ParsesSweepRequest) {
  const Request r =
      parse_request("sweep prop=late_sender axis=np values=2,4,8");
  EXPECT_EQ(r.op, Op::kSweep);
  EXPECT_EQ(r.axis, "np");
  EXPECT_EQ(r.values, (std::vector<std::string>{"2", "4", "8"}));
}

TEST(ServiceProtocol, MalformedRequestsThrowUsage) {
  EXPECT_THROW(parse_request(""), UsageError);
  EXPECT_THROW(parse_request("frobnicate prop=x"), UsageError);
  EXPECT_THROW(parse_request("analyze"), UsageError);           // no prop
  EXPECT_THROW(parse_request("analyze prop=x np=zero"), UsageError);
  EXPECT_THROW(parse_request("analyze prop=x np=0"), UsageError);
  EXPECT_THROW(parse_request("sweep prop=x values=1"), UsageError);  // no axis
}

TEST(ServiceProtocol, CanonicalLineIsOrderAndDeadlineInvariant) {
  const Request a =
      parse_request("analyze b=2 prop=late_sender a=1 np=4 deadline_ms=50");
  const Request b =
      parse_request("analyze np=4 a=1 prop=late_sender b=2 deadline_ms=999");
  EXPECT_EQ(canonical_request_line(a), canonical_request_line(b));
  // Different work is a different line.
  const Request c = parse_request("analyze prop=late_sender a=2 b=2 np=4");
  EXPECT_NE(canonical_request_line(a), canonical_request_line(c));
}

TEST(ServiceProtocol, ResponseParsingSwallowsMsgTail) {
  const Response r = parse_response_line(
      "error code=usage msg=unknown property 'nope' (see --list)");
  EXPECT_EQ(r.status, Status::kError);
  EXPECT_EQ(r.get("code"), "usage");
  EXPECT_EQ(r.get("msg"), "unknown property 'nope' (see --list)");
}

TEST(ServiceProtocol, RequestClassPartition) {
  EXPECT_EQ(request_class(Op::kAnalyze), RequestClass::kAnalyze);
  EXPECT_EQ(request_class(Op::kSweep), RequestClass::kSweep);
  EXPECT_EQ(request_class(Op::kGenerate), RequestClass::kGenerate);
  EXPECT_EQ(request_class(Op::kDiff), RequestClass::kControl);
  EXPECT_EQ(request_class(Op::kStatus), RequestClass::kControl);
  EXPECT_EQ(request_class(Op::kPing), RequestClass::kControl);
  EXPECT_EQ(request_class(Op::kShutdown), RequestClass::kControl);
}

TEST(ServiceProtocol, ParsesDiffRequest) {
  const Request r = parse_request("diff fp_a=dead fp_b=Beef values=2,4,8");
  EXPECT_EQ(r.op, Op::kDiff);
  EXPECT_EQ(r.fp_a, 0xdeadu);
  EXPECT_EQ(r.fp_b, 0xbeefu);  // hex digits are case-insensitive
  EXPECT_EQ(r.values, (std::vector<std::string>{"2", "4", "8"}));
  // Canonical line round-trips through the parser.
  const std::string canon = canonical_request_line(r);
  EXPECT_EQ(canonical_request_line(parse_request(canon)), canon);
}

TEST(ServiceProtocol, MalformedDiffRequestsThrowUsage) {
  EXPECT_THROW(parse_request("diff fp_b=1 values=2"), UsageError);
  EXPECT_THROW(parse_request("diff fp_a=1 values=2"), UsageError);
  EXPECT_THROW(parse_request("diff fp_a=1 fp_b=2"), UsageError);  // no values
  EXPECT_THROW(parse_request("diff fp_a=0 fp_b=2 values=2"), UsageError);
  EXPECT_THROW(parse_request("diff fp_a=nothex fp_b=2 values=2"), UsageError);
  // 17 hex digits overflow a uint64 fingerprint.
  EXPECT_THROW(parse_request("diff fp_a=11112222333344445 fp_b=2 values=2"),
               UsageError);
  EXPECT_THROW(parse_request("diff fp_a=1 fp_b=2 values=2,,4"), UsageError);
}

// ------------------------------------------------------------ admission

QueuedRequest make_task(const std::string& line) {
  QueuedRequest t;
  t.req = parse_request(line);
  t.canonical = canonical_request_line(t.req);
  t.id = runner::fnv1a64(t.canonical);
  return t;
}

TEST(ServiceAdmission, ShedsBeyondQueueDepth) {
  AdmissionOptions opt;
  opt.queue_depth = 2;
  AdmissionController ac(opt);
  EXPECT_FALSE(ac.admit(make_task("analyze prop=a np=2")));
  EXPECT_FALSE(ac.admit(make_task("analyze prop=b np=2")));
  const auto shed = ac.admit(make_task("analyze prop=c np=2"));
  ASSERT_TRUE(shed.has_value());
  EXPECT_GE(shed->retry_after_ms, 1);
  EXPECT_EQ(shed->queued, 2);
}

TEST(ServiceAdmission, ClassSlotsLimitConcurrency) {
  AdmissionOptions opt;
  opt.sweep_slots = 1;
  opt.analyze_slots = 1;
  AdmissionController ac(opt);
  ASSERT_FALSE(ac.admit(make_task("sweep prop=a axis=np values=2,4")));
  ASSERT_FALSE(ac.admit(make_task("sweep prop=b axis=np values=2,4")));
  ASSERT_FALSE(ac.admit(make_task("analyze prop=c np=2")));
  QueuedRequest t;
  ASSERT_TRUE(ac.next(&t));
  EXPECT_EQ(t.req.prop, "a");
  // The second sweep is blocked on the single sweep slot, so the analyze
  // overtakes it; within a class, order stays FIFO.
  ASSERT_TRUE(ac.next(&t));
  EXPECT_EQ(t.req.prop, "c");
  ac.release(RequestClass::kSweep);
  ASSERT_TRUE(ac.next(&t));
  EXPECT_EQ(t.req.prop, "b");
}

TEST(ServiceAdmission, ShutdownDrainsThenStops) {
  AdmissionController ac(AdmissionOptions{});
  ASSERT_FALSE(ac.admit(make_task("analyze prop=a np=2")));
  ac.shutdown();
  EXPECT_TRUE(ac.admit(make_task("analyze prop=b np=2")).has_value());
  QueuedRequest t;
  EXPECT_TRUE(ac.next(&t));   // queued work still drains
  ac.release(RequestClass::kAnalyze);
  EXPECT_FALSE(ac.next(&t));  // then the pool winds down
}

// ---------------------------------------------------------------- cache

TEST(ServiceCache, OwnerSimulatesWaitersReuse) {
  ResultCache cache("");
  gen::ExperimentRow row;
  ASSERT_EQ(cache.lookup_or_begin(42, &row), ResultCache::Found::kOwner);
  std::atomic<int> hits{0};
  std::vector<std::thread> waiters;
  for (int i = 0; i < 4; ++i) {
    waiters.emplace_back([&] {
      gen::ExperimentRow r;
      if (cache.lookup_or_begin(42, &r) == ResultCache::Found::kWaited &&
          r.value == "published") {
        hits.fetch_add(1);
      }
    });
  }
  gen::ExperimentRow done;
  done.value = "published";
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  cache.publish(42, done);
  for (auto& t : waiters) t.join();
  EXPECT_EQ(hits.load(), 4);
  EXPECT_EQ(cache.lookup_or_begin(42, &row), ResultCache::Found::kHit);
}

TEST(ServiceCache, HangRowsAreNeverCached) {
  ResultCache cache("");
  gen::ExperimentRow row;
  ASSERT_EQ(cache.lookup_or_begin(7, &row), ResultCache::Found::kOwner);
  gen::ExperimentRow hung;
  hung.outcome = gen::RunOutcome::kHang;
  cache.publish(7, hung);
  // The next caller must re-own and re-simulate: a hang is a property of
  // the request's deadline, not of the cell.
  EXPECT_EQ(cache.lookup_or_begin(7, &row), ResultCache::Found::kOwner);
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(ServiceCache, AbandonPromotesNextCaller) {
  ResultCache cache("");
  gen::ExperimentRow row;
  ASSERT_EQ(cache.lookup_or_begin(9, &row), ResultCache::Found::kOwner);
  cache.abandon(9);
  EXPECT_EQ(cache.lookup_or_begin(9, &row), ResultCache::Found::kOwner);
}

TEST(ServiceCache, WarmReloadAndTornLineTolerance) {
  const std::string path = testing::TempDir() + "ats_service_cache.journal";
  std::remove(path.c_str());
  gen::ExperimentRow row;
  row.value = "4";
  row.detected = true;
  row.dominant = "late sender";
  {
    ResultCache cache(path);
    ASSERT_EQ(cache.lookup_or_begin(0xabcd, &row), ResultCache::Found::kOwner);
    cache.publish(0xabcd, row);
  }
  // A crash mid-write cannot happen with the atomic journal, but a torn
  // trailing fragment (e.g. a foreign writer) must degrade to "one line
  // lost", never to a misparse.
  {
    std::ofstream f(path, std::ios::app);
    f << "abcd\t0\ttorn-fragment-without-newline";
  }
  ResultCache warm(path);
  EXPECT_EQ(warm.stats().entries, 1u);
  gen::ExperimentRow got;
  EXPECT_EQ(warm.lookup_or_begin(0xabcd, &got), ResultCache::Found::kHit);
  EXPECT_EQ(got.value, "4");
  EXPECT_EQ(got.dominant, "late sender");
  std::remove(path.c_str());
}

// ------------------------------------------------------------- recovery

TEST(ServiceRecovery, PendingIsAdmittedMinusDoneDeduped) {
  const std::string path = testing::TempDir() + "ats_service_recovery.journal";
  std::remove(path.c_str());
  {
    RecoveryLog log(path);
    log.admit(1, "analyze prop=a np=2");
    log.admit(2, "analyze prop=b np=2");
    log.admit(2, "analyze prop=b np=2");  // duplicate in-flight admission
    log.admit(3, "analyze prop=c np=2");
    log.done(1);
    log.done(2);  // one of the two b's completed
  }
  RecoveryLog reloaded(path);
  // a: done.  b: net-pending, deduplicated to ONE re-admission.  c: pending.
  EXPECT_EQ(reloaded.pending(),
            (std::vector<std::string>{"analyze prop=b np=2",
                                      "analyze prop=c np=2"}));
  // Load compacted the journal: a fresh load sees the same pending set.
  RecoveryLog again(path);
  EXPECT_EQ(again.pending(), reloaded.pending());
  std::remove(path.c_str());
}

TEST(ServiceRecovery, DoneWithMalformedIdLeavesAdmissionPending) {
  const std::string path = testing::TempDir() + "ats_service_badid.journal";
  std::remove(path.c_str());
  {
    std::ofstream out(path);
    // "1fzz" is not an id: a prefix parse would read it as 0x1f and
    // cancel the admission.
    out << "admit 1f analyze prop=a np=2\n"
        << "done 1fzz\n";
  }
  RecoveryLog log(path);
  EXPECT_EQ(log.pending(), (std::vector<std::string>{"analyze prop=a np=2"}));
  std::remove(path.c_str());
}

TEST(ServiceRecovery, CompactionKeepsEveryOutstandingAdmission) {
  const std::string path = testing::TempDir() + "ats_service_compact.journal";
  std::remove(path.c_str());
  {
    RecoveryLog log(path);
    log.admit(0xabc, "analyze prop=x np=2");
    log.admit(0xabc, "analyze prop=x np=2");  // two in-flight admissions
    for (std::uint64_t id = 1; id <= 64; ++id) {
      log.admit(id, "analyze prop=y np=" + std::to_string(id));
      log.done(id);  // the 64th done compacts
    }
    log.done(0xabc);  // one of the two completed: one is still in flight
  }
  RecoveryLog reloaded(path);
  EXPECT_EQ(reloaded.pending(),
            (std::vector<std::string>{"analyze prop=x np=2"}));
  std::remove(path.c_str());
}

TEST(ServiceRecovery, DisabledWhenPathEmpty) {
  RecoveryLog log("");
  log.admit(1, "analyze prop=a np=2");
  EXPECT_FALSE(log.enabled());
  EXPECT_TRUE(log.pending().empty());
}

// ------------------------------------------------------- server (E2E)

/// Unique-ish socket path per test (sun_path caps at ~107 bytes, so keep
/// it short and in TempDir).
std::string sock_path(const char* tag) {
  return testing::TempDir() + "ats_" + tag + ".sock";
}

ServerOptions base_options(const char* tag) {
  ServerOptions opt;
  opt.socket_path = sock_path(tag);
  opt.workers = 2;
  return opt;
}

TEST(ServiceServer, AnalyzeThenCacheHit) {
  Server server(base_options("basic"));
  server.start();
  Client client(server.options().socket_path);
  const Response first =
      client.call("analyze prop=late_sender np=4 extrawork=0.05");
  ASSERT_EQ(first.status, Status::kOk) << first.first_line;
  EXPECT_EQ(first.get("outcome"), "ok");
  EXPECT_EQ(first.get("cached"), "0");
  EXPECT_EQ(first.get("detected"), "1");
  const Response second =
      client.call("analyze prop=late_sender np=4 extrawork=0.05");
  ASSERT_EQ(second.status, Status::kOk);
  EXPECT_EQ(second.get("cached"), "1");
  EXPECT_EQ(second.get("severity_ns"), first.get("severity_ns"));
  EXPECT_EQ(server.counters().simulations, 1u);
  server.stop();
}

TEST(ServiceServer, ConcurrentIdenticalRequestsSimulateOnce) {
  Server server(base_options("dedup"));
  server.start();
  constexpr int kClients = 6;
  std::atomic<int> ok{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&] {
      Client c(server.options().socket_path);
      const Response r = c.call("analyze prop=late_sender np=6");
      if (r.status == Status::kOk && r.get("outcome") == "ok") ok.fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok.load(), kClients);
  // One simulation; everyone else was a cache hit or an in-flight waiter.
  EXPECT_EQ(server.counters().simulations, 1u);
  const auto cs = server.cache_stats();
  EXPECT_EQ(cs.hits + cs.waits, static_cast<std::uint64_t>(kClients - 1));
  server.stop();
}

TEST(ServiceServer, SaturationShedsWithRetryAfter) {
  ServerOptions opt = base_options("shed");
  opt.workers = 1;
  opt.analyze_slots = 1;
  opt.queue_depth = 1;
  Server server(opt);
  server.start();
  constexpr int kClients = 5;
  std::atomic<int> shed{0}, served{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      Client c(server.options().socket_path);
      // Distinct slow requests (no dedup): each burns its own deadline.
      const Response r = c.call("analyze prop=pathological_hang step=0.00" +
                                std::to_string(i + 1) +
                                " np=1 deadline_ms=400");
      if (r.status == Status::kShed) {
        EXPECT_GE(r.get_int("retry_after_ms"), 1);
        shed.fetch_add(1);
      } else {
        // Admitted: either classified as a hang at its deadline or the
        // deadline expired while queued — never a silent stall.
        const bool hung = r.status == Status::kOk && r.get("outcome") == "hang";
        const bool expired =
            r.status == Status::kError && r.get("code") == "deadline";
        EXPECT_TRUE(hung || expired) << r.first_line;
        served.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(shed.load() + served.load(), kClients);
  // 1 executing + 1 queued at most: with 5 near-simultaneous arrivals at
  // least one must have been shed, and the counters must agree.
  EXPECT_GE(shed.load(), 1);
  EXPECT_EQ(server.counters().shed, static_cast<std::uint64_t>(shed.load()));
  server.stop();
}

TEST(ServiceServer, DeadlineClassifiesPathologicalSpecAsHang) {
  Server server(base_options("deadline"));
  server.start();
  Client client(server.options().socket_path);
  const Response r =
      client.call("analyze prop=pathological_hang np=1 deadline_ms=300");
  ASSERT_EQ(r.status, Status::kOk) << r.first_line;
  EXPECT_EQ(r.get("outcome"), "hang");
  // Hangs are deadline-relative, so they must not be served from cache.
  const Response again =
      client.call("analyze prop=pathological_hang np=1 deadline_ms=300");
  ASSERT_EQ(again.status, Status::kOk);
  EXPECT_EQ(again.get("cached"), "0");
  EXPECT_EQ(server.counters().simulations, 2u);
  server.stop();
}

TEST(ServiceServer, MalformedAndUnknownRequestsDoNotKillTheConnection) {
  Server server(base_options("malformed"));
  server.start();
  Client client(server.options().socket_path);
  EXPECT_EQ(client.call("gibberish").status, Status::kError);
  EXPECT_EQ(client.call("analyze prop=no_such_property np=2").get("code"),
            "usage");
  EXPECT_EQ(client.call("analyze prop=late_sender np=nope").get("code"),
            "usage");
  EXPECT_EQ(client.call("sweep prop=late_sender axis=bogus values=1,2")
                .get("code"),
            "usage");
  // The connection survived all of it.
  EXPECT_EQ(client.call("ping").status, Status::kOk);
  EXPECT_EQ(server.counters().errors, 4u);
  server.stop();
}

TEST(ServiceServer, OversizedSweepIsRejected) {
  ServerOptions opt = base_options("oversweep");
  opt.max_sweep_values = 4;
  Server server(opt);
  server.start();
  Client client(server.options().socket_path);
  const Response r =
      client.call("sweep prop=late_sender axis=np values=2,3,4,5,6");
  EXPECT_EQ(r.status, Status::kError);
  EXPECT_EQ(r.get("code"), "too_large");
  server.stop();
}

TEST(ServiceServer, GenerateReturnsCompilableSourceFrame) {
  Server server(base_options("gen"));
  server.start();
  Client client(server.options().socket_path);
  const Response r = client.call("generate prop=late_sender");
  ASSERT_EQ(r.status, Status::kOk) << r.first_line;
  EXPECT_EQ(static_cast<std::size_t>(r.get_int("bytes")), r.payload.size());
  EXPECT_NE(r.payload.find("int main"), std::string::npos);
  EXPECT_NE(r.payload.find("late_sender"), std::string::npos);
  server.stop();
}

TEST(ServiceServer, RepeatedSweepServedEntirelyFromCache) {
  Server server(base_options("sweep"));
  server.start();
  Client client(server.options().socket_path);
  const std::string req = "sweep prop=late_sender axis=np values=2,4,8";
  const Response first = client.call(req);
  ASSERT_EQ(first.status, Status::kOk) << first.first_line;
  ASSERT_EQ(first.rows.size(), 3u);
  EXPECT_EQ(first.get_int("cached"), 0);
  EXPECT_EQ(server.counters().simulations, 3u);
  const Response again = client.call(req);
  ASSERT_EQ(again.status, Status::kOk);
  EXPECT_EQ(again.get_int("cached"), 3);  // zero re-simulation
  EXPECT_EQ(again.rows, first.rows);      // bit-identical rows
  EXPECT_EQ(server.counters().simulations, 3u);
  server.stop();
}

TEST(ServiceServer, StatusReportsCountersAndCache) {
  Server server(base_options("status"));
  server.start();
  Client client(server.options().socket_path);
  ASSERT_EQ(client.call("analyze prop=late_sender np=4").status, Status::kOk);
  const Response s = client.call("status");
  ASSERT_EQ(s.status, Status::kOk);
  EXPECT_EQ(s.get_int("accepted"), 1);
  EXPECT_EQ(s.get_int("completed"), 1);
  EXPECT_EQ(s.get_int("simulations"), 1);
  EXPECT_EQ(s.get_int("cache_entries"), 1);
  EXPECT_GE(s.get_int("retry_after_ms"), 1);
  EXPECT_EQ(s.get_int("workers"), 2);
  server.stop();
}

TEST(ServiceServer, WarmRestartServesFromDiskCache) {
  const std::string state = testing::TempDir() + "ats_warm_state";
  std::filesystem::remove_all(state);
  ServerOptions opt = base_options("warm1");
  opt.state_dir = state;
  {
    Server first(opt);
    first.start();
    Client c(first.options().socket_path);
    ASSERT_EQ(c.call("analyze prop=late_sender np=4").get("cached"), "0");
    EXPECT_EQ(first.counters().simulations, 1u);
    first.stop();
  }
  ServerOptions opt2 = base_options("warm2");
  opt2.state_dir = state;
  Server second(opt2);
  second.start();
  Client c(second.options().socket_path);
  const Response r = c.call("analyze prop=late_sender np=4");
  ASSERT_EQ(r.status, Status::kOk);
  EXPECT_EQ(r.get("cached"), "1");
  EXPECT_EQ(second.counters().simulations, 0u);  // nothing re-simulated
  second.stop();
  std::filesystem::remove_all(state);
}

TEST(ServiceServer, InterruptedWorkRecoversExactlyOnce) {
  const std::string state = testing::TempDir() + "ats_recover_state";
  std::filesystem::remove_all(state);
  std::filesystem::create_directories(state);
  // Simulate a daemon SIGKILL'd mid-request: the in-flight journal holds
  // admissions without completions — the same request twice (two clients
  // were in flight) plus one request that did complete.
  const Request req = parse_request("analyze prop=late_sender np=4");
  const std::string canonical = canonical_request_line(req);
  const std::uint64_t id = runner::fnv1a64(canonical);
  const Request done_req = parse_request("analyze prop=late_sender np=2");
  const std::uint64_t done_id =
      runner::fnv1a64(canonical_request_line(done_req));
  {
    AtomicJournal j(state + "/inflight.journal");
    std::ostringstream admit1, admit2, admit3, done;
    admit1 << "admit " << std::hex << id << " " << canonical;
    j.append(admit1.str());
    j.append(admit1.str());  // second identical in-flight admission
    admit3 << "admit " << std::hex << done_id << " "
           << canonical_request_line(done_req);
    j.append(admit3.str());
    done << "done " << std::hex << done_id;
    j.append(done.str());
  }
  ServerOptions opt = base_options("recover");
  opt.state_dir = state;
  Server server(opt);
  server.start();  // recovery runs before the socket opens
  // Exactly one re-admission for the duplicated request, zero for the
  // completed one.
  EXPECT_EQ(server.counters().recovered, 1u);
  EXPECT_EQ(server.counters().simulations, 1u);
  // The recovered result is in the cache: the client's retry is a hit.
  Client c(server.options().socket_path);
  const Response r = c.call("analyze prop=late_sender np=4");
  ASSERT_EQ(r.status, Status::kOk);
  EXPECT_EQ(r.get("cached"), "1");
  server.stop();
  // After a clean pass, a fresh recovery log sees nothing pending.
  RecoveryLog after(state + "/inflight.journal");
  EXPECT_TRUE(after.pending().empty());
  std::filesystem::remove_all(state);
}

// --------------------------------------------------- server (diff verb)

TEST(ServiceServer, DiffVerbComparesCachedSweepsWithoutSimulating) {
  Server server(base_options("diffverb"));
  server.start();
  Client client(server.options().socket_path);
  const Response ra =
      client.call("sweep prop=late_sender axis=np values=2,4 extrawork=0.05");
  ASSERT_EQ(ra.status, Status::kOk) << ra.first_line;
  const Response rb =
      client.call("sweep prop=late_sender axis=np values=2,4 extrawork=0.1");
  ASSERT_EQ(rb.status, Status::kOk) << rb.first_line;
  const std::string fp_a = ra.get("fp"), fp_b = rb.get("fp");
  ASSERT_NE(fp_a, "");
  ASSERT_NE(fp_a, fp_b);  // different params, different plan fingerprint
  const std::uint64_t sims = server.counters().simulations;

  // Cross-run diff: doubled extrawork regresses, attributed per value.
  const Response d =
      client.call("diff fp_a=" + fp_a + " fp_b=" + fp_b + " values=2,4");
  ASSERT_EQ(d.status, Status::kOk) << d.first_line;
  EXPECT_EQ(d.get("op"), "diff");
  ASSERT_EQ(d.rows.size(), 2u);
  EXPECT_GE(d.get_int("changed"), 1);
  EXPECT_EQ(d.get("regressed"), "1");

  // Self-diff of a fingerprint is clean by construction.
  const Response self =
      client.call("diff fp_a=" + fp_a + " fp_b=" + fp_a + " values=2,4");
  ASSERT_EQ(self.status, Status::kOk);
  EXPECT_EQ(self.get_int("changed"), 0);
  EXPECT_EQ(self.get("regressed"), "0");

  // The verb's contract: pure cache reads, zero fresh simulation.
  EXPECT_EQ(server.counters().simulations, sims);
  server.stop();
}

TEST(ServiceServer, DiffOfUncachedFingerprintErrorsInsteadOfSimulating) {
  Server server(base_options("diffcold"));
  server.start();
  Client client(server.options().socket_path);
  const Response r = client.call("diff fp_a=1 fp_b=2 values=4");
  EXPECT_EQ(r.status, Status::kError);
  EXPECT_EQ(r.get("code"), "not_cached");
  EXPECT_EQ(server.counters().simulations, 0u);
  // Bad fingerprints are a usage error, and the connection survives both.
  EXPECT_EQ(client.call("diff fp_a=zz fp_b=2 values=4").get("code"), "usage");
  EXPECT_EQ(client.call("ping").status, Status::kOk);
  server.stop();
}

// --------------------------------------------- server (frame robustness)

/// Raw Unix-socket connection, bypassing the Client's framing: the
/// robustness tests speak deliberately broken protocol.
class RawConn {
 public:
  explicit RawConn(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    connected_ = fd_ >= 0 && ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                                       sizeof(addr)) == 0;
    timeval tv{2, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  ~RawConn() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool connected() const { return connected_; }
  bool send_raw(const std::string& bytes) {
    return ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL) ==
           static_cast<ssize_t>(bytes.size());
  }
  /// Reads until a newline or EOF (empty string on timeout/EOF-first).
  std::string recv_line() {
    std::string buf;
    char c;
    while (::recv(fd_, &c, 1, 0) == 1) {
      if (c == '\n') return buf;
      buf.push_back(c);
    }
    return buf;
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
};

TEST(ServiceServer, BinaryGarbageFramesGetErrorResponsesNotCrashes) {
  Server server(base_options("garbage"));
  server.start();
  RawConn raw(server.options().socket_path);
  ASSERT_TRUE(raw.connected());
  // A line of binary junk (no CR/LF bytes inside) must produce an error
  // response on the same connection, which then keeps working.
  std::string junk = "\x01\x02\xfe\xff gar\tbage \x7f=\x03";
  ASSERT_TRUE(raw.send_raw(junk + "\n"));
  const std::string resp = raw.recv_line();
  EXPECT_EQ(resp.rfind("error", 0), 0u) << resp;
  ASSERT_TRUE(raw.send_raw("ping\n"));
  EXPECT_EQ(raw.recv_line().rfind("ok", 0), 0u);
  server.stop();
}

TEST(ServiceServer, TruncatedFrameNeverWedgesAWorker) {
  Server server(base_options("truncated"));
  server.start();
  {
    // Half a request, never terminated: the client vanishes mid-frame.
    RawConn raw(server.options().socket_path);
    ASSERT_TRUE(raw.connected());
    ASSERT_TRUE(raw.send_raw("analyze prop=late_sen"));
  }  // destructor closes the socket
  // The partial line dies with its connection — no worker is stuck and no
  // request was fabricated from the fragment.
  Client client(server.options().socket_path);
  const Response r = client.call("ping");
  EXPECT_EQ(r.status, Status::kOk);
  EXPECT_EQ(server.counters().accepted, 0u);
  server.stop();
}

TEST(ServiceServer, OversizedFrameIsRejectedAndConnectionDropped) {
  Server server(base_options("oversized"));
  server.start();
  RawConn raw(server.options().socket_path);
  ASSERT_TRUE(raw.connected());
  // 80KiB without a newline blows the 64KiB request-line bound: the server
  // answers too_large and hangs up rather than buffering without limit.
  const std::string flood(80 * 1024, 'a');
  ASSERT_TRUE(raw.send_raw(flood));
  const std::string resp = raw.recv_line();
  EXPECT_NE(resp.find("too_large"), std::string::npos) << resp;
  EXPECT_EQ(raw.recv_line(), "");  // connection closed after the reject
  // The daemon itself is unharmed.
  Client client(server.options().socket_path);
  EXPECT_EQ(client.call("ping").status, Status::kOk);
  EXPECT_GE(server.counters().errors, 1u);
  server.stop();
}

TEST(ServiceServer, ShutdownRequestStopsTheDaemon) {
  Server server(base_options("shutdown"));
  server.start();
  Client client(server.options().socket_path);
  const Response r = client.call("shutdown");
  EXPECT_EQ(r.status, Status::kOk);
  server.wait();  // returns because the request triggered request_stop()
  server.stop();
}

}  // namespace
}  // namespace ats::service
