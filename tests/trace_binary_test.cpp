// Binary trace container (docs/TRACE_FORMAT.md §7): lossless round-trips
// against the text format, zero-copy mmap loading, spill-to-disk
// streaming, and the format auto-detection used by the CLI tools.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analyzer/analyzer.hpp"
#include "gen/registry.hpp"
#include "report/cube_view.hpp"
#include "test_util.hpp"
#include "trace/trace_binary.hpp"
#include "trace/trace_io.hpp"

namespace ats {
namespace {

trace::Trace sample_trace() {
  gen::RunConfig cfg;
  cfg.nprocs = 4;
  cfg.mpi_cost = testutil::clean_mpi_cost();
  const auto& def = gen::Registry::instance().find("late_sender");
  return gen::run_single_property(def, def.positive, cfg);
}

std::string text_of(const trace::Trace& t) {
  std::ostringstream os;
  t.save(os);
  return os.str();
}

std::string binary_of(const trace::Trace& t) {
  std::ostringstream os;
  t.save_binary(os);
  return os.str();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// RAII scratch file for mmap-path tests.
struct TempFile {
  std::string path;
  explicit TempFile(std::string p, const std::string& bytes)
      : path(std::move(p)) {
    std::ofstream(path, std::ios::binary) << bytes;
  }
  ~TempFile() { std::remove(path.c_str()); }
};

// ------------------------------------------------------------- round trip

TEST(TraceBinary, TextBinaryTextIsByteIdentical) {
  const trace::Trace t = sample_trace();
  const std::string pristine = text_of(t);
  const trace::LoadResult loaded = trace::load_trace_binary(
      std::make_shared<const std::string>(binary_of(t)));
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded.diagnostics.empty());
  EXPECT_EQ(loaded.trace.event_count(), t.event_count());
  EXPECT_EQ(text_of(loaded.trace), pristine);
}

TEST(TraceBinary, BinaryReserialisationIsByteIdentical) {
  const trace::Trace t = sample_trace();
  const std::string bin = binary_of(t);
  const trace::LoadResult loaded =
      trace::load_trace_binary(std::make_shared<const std::string>(bin));
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(binary_of(loaded.trace), bin);
}

TEST(TraceBinary, AnalysisIdenticalThroughEitherContainer) {
  const trace::Trace t = sample_trace();
  const std::string via_text = [&] {
    std::istringstream in(text_of(t));
    const trace::LoadResult r = trace::load_trace(in);
    const auto a = analyze::analyze(r.trace);
    return report::severity_csv(a, r.trace);
  }();
  const std::string via_binary = [&] {
    const trace::LoadResult r = trace::load_trace_binary(
        std::make_shared<const std::string>(binary_of(t)));
    const auto a = analyze::analyze(r.trace);
    return report::severity_csv(a, r.trace);
  }();
  EXPECT_EQ(via_text, via_binary);
}

TEST(TraceBinary, GoldenCorpusAnalyzesIdenticallyEitherWay) {
  // Every golden trace (text container) must convert to binary and back
  // with a byte-identical severity profile — the corpus-wide lossless
  // guarantee the ISSUE's round-trip criterion asks for.  Lenient mode:
  // the defect-family traces are salvaged from runs that fail by design,
  // so they legitimately end mid-operation; their structural-defect
  // reports must survive the container change bit for bit too.
  analyze::AnalyzerOptions aopt;
  aopt.lenient = true;
  std::size_t checked = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(ATS_GOLDEN_DIR)) {
    if (entry.path().extension() != ".trace") continue;
    const std::string bytes = read_file(entry.path().string());
    // The checked-in file is exactly what Trace::save writes for it.
    std::istringstream strict_in(bytes);
    EXPECT_EQ(text_of(trace::Trace::load(strict_in)), bytes) << entry.path();
    std::istringstream in(bytes);
    const trace::LoadResult text_loaded = trace::load_trace(in);
    ASSERT_TRUE(text_loaded.ok()) << entry.path();
    const trace::LoadResult bin_loaded = trace::load_trace_binary(
        std::make_shared<const std::string>(binary_of(text_loaded.trace)));
    ASSERT_TRUE(bin_loaded.ok()) << entry.path();
    EXPECT_EQ(text_of(bin_loaded.trace), text_of(text_loaded.trace))
        << entry.path();
    const auto ta = analyze::analyze(text_loaded.trace, aopt);
    const auto ba = analyze::analyze(bin_loaded.trace, aopt);
    EXPECT_EQ(report::severity_csv(ta, text_loaded.trace),
              report::severity_csv(ba, bin_loaded.trace))
        << entry.path();
    EXPECT_EQ(report::render_defects(ta, text_loaded.trace),
              report::render_defects(ba, bin_loaded.trace))
        << entry.path();
    ++checked;
  }
  EXPECT_GE(checked, 10u) << "golden corpus unexpectedly small";
}

// -------------------------------------------------------------- zero copy

TEST(TraceBinary, MmapLoadIsZeroCopy) {
  const trace::Trace t = sample_trace();
  TempFile file("trace_binary_test.zc.atsbin", binary_of(t));
  const trace::LoadResult loaded = trace::load_trace_binary_file(file.path);
  ASSERT_TRUE(loaded.ok());
  // The mapping is page-aligned and the container pads event blocks to
  // 8 bytes, so every location's span points into the file — no copies.
  EXPECT_TRUE(loaded.trace.external_events());
  EXPECT_EQ(text_of(loaded.trace), text_of(t));
}

TEST(TraceBinary, AutoFileLoaderDispatchesOnMagic) {
  const trace::Trace t = sample_trace();
  TempFile bin("trace_binary_test.auto.atsbin", binary_of(t));
  TempFile txt("trace_binary_test.auto.atstrace", text_of(t));
  const trace::LoadResult from_bin = trace::load_trace_auto_file(bin.path);
  const trace::LoadResult from_txt = trace::load_trace_auto_file(txt.path);
  ASSERT_TRUE(from_bin.ok());
  ASSERT_TRUE(from_txt.ok());
  EXPECT_EQ(text_of(from_bin.trace), text_of(from_txt.trace));
}

TEST(TraceBinary, DetectFormatClassifiesBothContainers) {
  const trace::Trace t = sample_trace();
  std::istringstream bin(binary_of(t));
  std::istringstream txt(text_of(t));
  EXPECT_EQ(trace::detect_trace_format(bin), trace::TraceFormat::kBinary);
  EXPECT_EQ(trace::detect_trace_format(txt), trace::TraceFormat::kText);
  // Detection peeks; the stream must still load from the start.
  EXPECT_TRUE(trace::load_trace(txt).ok());
}

// ------------------------------------------------------------ diagnostics

TEST(TraceBinary, DiagnosticCitesRecordOrdinalAndOffset) {
  const trace::Trace t = sample_trace();
  std::string bytes = binary_of(t);
  bytes[0] = 'Z';
  const trace::LoadResult res = trace::load_trace_binary(
      std::make_shared<const std::string>(bytes));
  EXPECT_FALSE(res.header_ok);
  ASSERT_FALSE(res.diagnostics.empty());
  const std::string s = res.diagnostics.front().str();
  EXPECT_NE(s.find("trace[bin]:record"), std::string::npos) << s;
  EXPECT_NE(s.find("§7"), std::string::npos) << s;
}

TEST(TraceBinary, BothLoadersReportTheSameRecordDefects) {
  // One planted defect per checkable field of each event type, between
  // valid records.  Lock records reference only their location, which the
  // binary container encodes as block membership, so they appear as
  // survivors only.
  using trace::CollOp;
  using trace::DiagnosticKind;
  using trace::Event;
  using trace::EventType;
  const auto bad_op = static_cast<CollOp>(200);
  struct Planted {
    Event e;
    std::optional<DiagnosticKind> defect;
  };
  const std::vector<Planted> records = {
      {{.t = VTime(1), .loc = 0, .region = 0, .type = EventType::kEnter}, {}},
      {{.t = VTime(2), .loc = 0, .region = 9, .type = EventType::kEnter},
       DiagnosticKind::kUnknownRegion},
      {{.t = VTime(3), .loc = 0, .region = 9, .type = EventType::kExit},
       DiagnosticKind::kUnknownRegion},
      {{.t = VTime(4), .bytes = 8, .loc = 0, .peer = 1, .tag = 3, .comm = 7,
        .type = EventType::kSend},
       DiagnosticKind::kUnknownComm},
      {{.t = VTime(5), .bytes = 8, .loc = 0, .peer = 1, .tag = 3, .comm = 0,
        .type = EventType::kSend},
       {}},
      {{.t = VTime(6), .loc = 0, .peer = 2, .type = EventType::kLockAcquire},
       {}},
      {{.t = VTime(7), .loc = 0, .peer = 2, .type = EventType::kLockRelease},
       {}},
      {{.t = VTime(8), .loc = 0, .region = 0, .type = EventType::kExit}, {}},
      {{.t = VTime(1), .bytes = 8, .loc = 1, .peer = 0, .tag = 3, .comm = -2,
        .type = EventType::kRecv},
       DiagnosticKind::kUnknownComm},
      {{.t = VTime(2), .enter_t = VTime(1), .seq = 0, .loc = 1, .comm = 7,
        .type = EventType::kCollEnd},
       DiagnosticKind::kUnknownComm},
      {{.t = VTime(3), .enter_t = VTime(2), .seq = 1, .loc = 1, .comm = 0,
        .type = EventType::kCollEnd, .op = bad_op},
       DiagnosticKind::kBadEnum},
      {{.t = VTime(4), .seq = 2, .loc = 1, .region = 0, .comm = 0,
        .type = EventType::kCollBegin, .op = bad_op},
       DiagnosticKind::kBadEnum},
      {{.t = VTime(5), .seq = 2, .loc = 1, .region = 0, .comm = 7,
        .type = EventType::kCollBegin},
       DiagnosticKind::kUnknownComm},
      {{.t = VTime(6), .seq = 2, .loc = 1, .region = 9, .comm = 0,
        .type = EventType::kCollBegin},
       DiagnosticKind::kUnknownRegion},
      {{.t = VTime(7), .enter_t = VTime(4), .seq = 2, .loc = 1, .comm = 0,
        .type = EventType::kCollEnd},
       {}},
  };
  trace::Trace planted;
  trace::Trace survivors;
  for (trace::Trace* t : {&planted, &survivors}) {
    for (trace::LocId l = 0; l < 2; ++l) {
      trace::LocationInfo li;
      li.id = l;
      li.rank = l;
      li.name = "rank " + std::to_string(l);
      t->add_location(li);
    }
    t->add_comm(trace::CommKind::kMpiComm, {0, 1}, "world");
    t->regions().intern("main", trace::RegionKind::kUser);
  }
  std::vector<DiagnosticKind> expected;
  for (const Planted& p : records) {
    planted.append(p.e);
    if (p.defect) {
      expected.push_back(*p.defect);
    } else {
      survivors.append(p.e);
    }
  }
  std::istringstream in(text_of(planted));
  const trace::LoadResult from_text = trace::load_trace(in);
  const trace::LoadResult from_binary = trace::load_trace_binary(
      std::make_shared<const std::string>(binary_of(planted)));
  for (const trace::LoadResult* r : {&from_text, &from_binary}) {
    std::vector<DiagnosticKind> got;
    for (const auto& d : r->diagnostics) got.push_back(d.kind);
    EXPECT_EQ(got, expected);
    EXPECT_EQ(r->records_dropped, expected.size());
    EXPECT_EQ(text_of(r->trace), text_of(survivors));
  }
}

// ------------------------------------------------------ spill-to-disk

TEST(TraceSpill, SpilledTraceSavesBothContainersLosslessly) {
  const char* spill_path = "trace_binary_test.spill";
  // Twin traces, same pushes: one spills at a tiny watermark, the other
  // stays resident; both serialisations must match exactly.
  trace::Trace resident;
  trace::Trace spilling;
  for (trace::Trace* t : {&resident, &spilling}) {
    trace::LocationInfo li;
    li.id = 0;
    li.kind = trace::LocKind::kProcess;
    li.name = "p0";
    t->add_location(li);
    li.id = 1;
    li.name = "p1";
    t->add_location(li);
  }
  spilling.enable_spill(spill_path, 4096);  // ~56 events of 72 bytes
  for (trace::Trace* t : {&resident, &spilling}) {
    const auto work =
        t->regions().intern("work", trace::RegionKind::kWork);
    for (int i = 0; i < 500; ++i) {
      for (trace::LocId l = 0; l < 2; ++l) {
        t->enter(l, VTime(i * 100 + l), work);
        t->exit(l, VTime(i * 100 + 50 + l), work);
      }
    }
  }
  ASSERT_TRUE(spilling.spill_enabled());
  EXPECT_GT(spilling.spilled_bytes(), 0u);
  EXPECT_LT(spilling.memory_bytes(), resident.memory_bytes());
  EXPECT_EQ(spilling.event_count(), resident.event_count());
  // Random access to spilled locations is refused, not silently wrong.
  EXPECT_THROW((void)spilling.events_of(0), TraceError);
  // Both save paths stream the spilled segments back in order.
  EXPECT_EQ(text_of(spilling), text_of(resident));
  EXPECT_EQ(binary_of(spilling), binary_of(resident));
  // Save + reload restores random access.
  const trace::LoadResult reloaded = trace::load_trace_binary(
      std::make_shared<const std::string>(binary_of(spilling)));
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(reloaded.trace.events_of(0).size(), 1000u);
}

TEST(TraceSpill, SpillFileIsRemovedOnDestruction) {
  const char* spill_path = "trace_binary_test.spill2";
  {
    trace::Trace t;
    trace::LocationInfo li;
    li.id = 0;
    li.kind = trace::LocKind::kProcess;
    li.name = "p0";
    t.add_location(li);
    t.enable_spill(spill_path, 256);
    const auto work = t.regions().intern("w", trace::RegionKind::kWork);
    for (int i = 0; i < 100; ++i) {
      t.enter(0, VTime(i * 10), work);
      t.exit(0, VTime(i * 10 + 5), work);
    }
    EXPECT_GT(t.spilled_bytes(), 0u);
    EXPECT_TRUE(std::filesystem::exists(spill_path));
  }
  EXPECT_FALSE(std::filesystem::exists(spill_path));
}

TEST(TraceSpill, RunMpiSpillOptionProducesIdenticalTrace) {
  const auto& def = gen::Registry::instance().find("late_sender");
  gen::RunConfig cfg;
  cfg.nprocs = 4;
  cfg.mpi_cost = testutil::clean_mpi_cost();
  const trace::Trace plain =
      gen::run_single_property(def, def.positive, cfg);

  mpi::MpiRunOptions opt;
  opt.nprocs = 4;
  opt.cost = testutil::clean_mpi_cost();
  opt.trace_spill_path = "trace_binary_test.spill3";
  opt.trace_spill_watermark = 1024;
  auto run = mpi::run_mpi(opt, [&](mpi::Proc& p) {
    core::PropCtx ctx = core::PropCtx::from(p);
    def.invoke(ctx, def.positive);
  });
  EXPECT_GT(run.trace.spilled_bytes(), 0u);
  EXPECT_EQ(text_of(run.trace), text_of(plain));
}

}  // namespace
}  // namespace ats
