// Golden-file coverage of the trace_io diagnostic contract
// (docs/TRACE_FORMAT.md): every DiagnosticKind is provoked exactly once,
// strict mode throws with a file:line-style message citing the format
// document, lenient mode records the diagnostic and keeps the rest of the
// file, and a pristine dump round-trips byte-identically through the
// lenient path.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>

#include "test_util.hpp"
#include "trace/trace.hpp"
#include "trace/trace_io.hpp"

namespace ats::trace {
namespace {

LocationInfo proc_info(LocId id, const std::string& name) {
  LocationInfo li;
  li.id = id;
  li.kind = LocKind::kProcess;
  li.rank = id;
  li.name = name;
  return li;
}

/// A small trace exercising every record type the serialiser emits.
Trace make_base_trace() {
  Trace t;
  t.add_location(proc_info(0, "rank 0"));
  t.add_location(proc_info(1, "rank 1"));
  t.add_comm(CommKind::kMpiComm, {0, 1}, "world");
  const RegionId main_r = t.regions().intern("main", RegionKind::kUser);
  const RegionId send_r = t.regions().intern("MPI_Send", RegionKind::kMpiP2P);
  t.enter(0, VTime(100), main_r);
  t.enter(1, VTime(100), main_r);
  t.enter(0, VTime(200), send_r);
  t.send(0, VTime(250), 1, 7, 0, 64);
  t.exit(0, VTime(300), send_r);
  t.recv(1, VTime(400), 0, 7, 0, 64);
  t.coll_end(0, VTime(500), VTime(450), 0, 0, CollOp::kBarrier, -1, 0, 0);
  t.coll_end(1, VTime(500), VTime(420), 0, 0, CollOp::kBarrier, -1, 0, 0);
  t.lock_acquire(0, VTime(600), 1);
  t.lock_release(0, VTime(650), 1);
  t.exit(0, VTime(700), main_r);
  t.exit(1, VTime(700), main_r);
  return t;
}

std::string base_text() {
  std::ostringstream os;
  make_base_trace().save(os);
  return os.str();
}

/// Loads `text` leniently and asserts it produced exactly one diagnostic
/// of `kind`; returns that diagnostic.
ParseDiagnostic expect_single(const std::string& text, DiagnosticKind kind) {
  std::istringstream in(text);
  const LoadResult res = load_trace(in);
  EXPECT_EQ(res.diagnostics.size(), 1u) << "for kind " << to_string(kind);
  EXPECT_FALSE(res.ok());
  if (res.diagnostics.empty()) return {};
  EXPECT_EQ(res.diagnostics.front().kind, kind)
      << "got " << res.diagnostics.front().str();
  return res.diagnostics.front();
}

/// Strict mode must throw on the same input, citing the format document.
void expect_strict_throw(const std::string& text) {
  std::istringstream in(text);
  LoadOptions opt;
  opt.strict = true;
  try {
    (void)load_trace(in, opt);
    FAIL() << "strict load accepted a damaged trace";
  } catch (const TraceError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("trace:"), std::string::npos) << what;
    EXPECT_NE(what.find("docs/TRACE_FORMAT.md"), std::string::npos) << what;
  }
}

TEST(TraceIoDiagnostics, BadHeader) {
  const std::string text = "NOT-A-TRACE 9\n";
  const auto d = expect_single(text, DiagnosticKind::kBadHeader);
  EXPECT_EQ(d.line, 1);
  expect_strict_throw(text);
  std::istringstream in(text);
  EXPECT_FALSE(load_trace(in).header_ok);
}

TEST(TraceIoDiagnostics, EmptyStreamIsBadHeader) {
  expect_single("", DiagnosticKind::kBadHeader);
  expect_strict_throw("");
}

TEST(TraceIoDiagnostics, UnknownRecord) {
  const std::string text = base_text() + "frobnicate 1 2 3\n";
  const auto d = expect_single(text, DiagnosticKind::kUnknownRecord);
  EXPECT_NE(d.message.find("frobnicate"), std::string::npos);
  expect_strict_throw(text);
}

TEST(TraceIoDiagnostics, MalformedRecord) {
  const std::string text = base_text() + "E 0 not-a-number 0\n";
  const auto d = expect_single(text, DiagnosticKind::kMalformedRecord);
  EXPECT_GT(d.column, 1) << "column should point at the bad field";
  expect_strict_throw(text);
}

TEST(TraceIoDiagnostics, UnknownLocation) {
  const std::string text = base_text() + "E 99 100 0\n";
  expect_single(text, DiagnosticKind::kUnknownLocation);
  expect_strict_throw(text);
}

TEST(TraceIoDiagnostics, UnknownRegion) {
  const std::string text = base_text() + "E 0 100 99\n";
  expect_single(text, DiagnosticKind::kUnknownRegion);
  expect_strict_throw(text);
}

TEST(TraceIoDiagnostics, UnknownComm) {
  const std::string text = base_text() + "S 0 100 1 7 99 64\n";
  expect_single(text, DiagnosticKind::kUnknownComm);
  expect_strict_throw(text);
}

TEST(TraceIoDiagnostics, IdOrder) {
  // The base trace has regions 0 and 1; id 7 violates dense ordering.
  const std::string text = base_text() + "region 7 user late arrival\n";
  expect_single(text, DiagnosticKind::kIdOrder);
  expect_strict_throw(text);
}

TEST(TraceIoDiagnostics, BadEnum) {
  const std::string text = base_text() + "region 2 alien zone\n";
  const auto d = expect_single(text, DiagnosticKind::kBadEnum);
  EXPECT_NE(d.message.find("alien"), std::string::npos);
  expect_strict_throw(text);
}

TEST(TraceIoDiagnostics, Truncated) {
  // Cut the file mid-record: the final line loses its newline and part of
  // its payload, which must surface as kTruncated, not kMalformedRecord.
  std::string text = base_text();
  ASSERT_GT(text.size(), 10u);
  text.resize(text.size() - 6);
  std::istringstream in(text);
  const LoadResult res = load_trace(in);
  ASSERT_EQ(res.diagnostics.size(), 1u);
  EXPECT_EQ(res.diagnostics.front().kind, DiagnosticKind::kTruncated);
  expect_strict_throw(text);
}

TEST(TraceIoDiagnostics, DiagnosticMessageCitesSpec) {
  const auto d =
      expect_single(base_text() + "E 99 100 0\n",
                    DiagnosticKind::kUnknownLocation);
  const std::string s = d.str();
  EXPECT_NE(s.find("trace:"), std::string::npos) << s;
  EXPECT_NE(s.find("unknown-location"), std::string::npos) << s;
  EXPECT_NE(s.find("docs/TRACE_FORMAT.md"), std::string::npos) << s;
}

TEST(TraceIoDiagnostics, DiagnosticLineNumbersAreExact) {
  // The appended bad record sits on line <record-count + 2> (header is
  // line 1, records follow one per line).
  const std::string good = base_text();
  const auto lines = static_cast<int>(
      std::count(good.begin(), good.end(), '\n'));
  const auto d = expect_single(good + "E 99 100 0\n",
                               DiagnosticKind::kUnknownLocation);
  EXPECT_EQ(d.line, lines + 1);
}

TEST(TraceIoDiagnostics, LenientKeepsGoodRecords) {
  // Damage one event line in the middle: everything else must survive.
  std::string text = base_text();
  const std::size_t pos = text.find("\nR 1 ");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 5, "\nR 9 ");  // recv now names unknown location 9
  std::istringstream in(text);
  const LoadResult res = load_trace(in);
  EXPECT_TRUE(res.header_ok);
  EXPECT_EQ(res.records_dropped, 1u);
  EXPECT_EQ(res.trace.event_count(), make_base_trace().event_count() - 1);
}

TEST(TraceIoDiagnostics, MaxDiagnosticsCapsStorageNotCounting) {
  std::string text = base_text();
  for (int i = 0; i < 10; ++i) text += "E 99 100 0\n";
  std::istringstream in(text);
  LoadOptions opt;
  opt.max_diagnostics = 3;
  const LoadResult res = load_trace(in, opt);
  EXPECT_EQ(res.diagnostics.size(), 3u);
  EXPECT_EQ(res.records_dropped, 10u);
}

TEST(TraceIoDiagnostics, ImplausibleCommCountRejected) {
  // A member count far beyond what the line could hold must be rejected
  // up front (it also guards the pre-allocation).
  const std::string text =
      base_text() + "comm 1 mpi 99999999 0 1 oversized\n";
  expect_single(text, DiagnosticKind::kMalformedRecord);
}

TEST(TraceIoDiagnostics, PristineRoundTripIsByteIdentical) {
  const std::string first = base_text();
  std::istringstream in(first);
  const LoadResult res = load_trace(in);
  EXPECT_TRUE(res.ok());
  EXPECT_TRUE(res.diagnostics.empty());
  EXPECT_EQ(res.records_dropped, 0u);
  std::ostringstream out;
  res.trace.save(out);
  EXPECT_EQ(out.str(), first);
}

TEST(TraceIoDiagnostics, MergedTieOrderSurvivesRoundTrip) {
  // Timestamp ties pin the merge order to (time, loc, recording order);
  // that order must be identical after a save/load round trip.
  Trace t;
  t.add_location(proc_info(0, "a"));
  t.add_location(proc_info(1, "b"));
  const RegionId r = t.regions().intern("x", RegionKind::kUser);
  const RegionId s = t.regions().intern("y", RegionKind::kWork);
  t.enter(1, VTime(100), r);
  t.enter(1, VTime(100), s);
  t.enter(0, VTime(100), r);
  t.exit(1, VTime(100), s);
  t.exit(1, VTime(100), r);
  t.exit(0, VTime(100), r);
  std::stringstream ss;
  t.save(ss);
  const Trace u = Trace::load(ss);
  const auto a = testutil::merged(t);
  const auto b = testutil::merged(u);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i]->loc, b[i]->loc) << "index " << i;
    EXPECT_EQ(a[i]->t, b[i]->t) << "index " << i;
    EXPECT_EQ(a[i]->type, b[i]->type) << "index " << i;
    EXPECT_EQ(a[i]->region, b[i]->region) << "index " << i;
  }
}

}  // namespace
}  // namespace ats::trace
