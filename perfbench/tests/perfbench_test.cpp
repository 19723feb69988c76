// Unit tests of the benchmark's own arithmetic: tail-percentile selection
// and span self time.  Run with ctest in the perfbench build directory.
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "spans.hpp"
#include "stats.hpp"

namespace {

int failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: CHECK(%s) failed\n", __FILE__,     \
                   __LINE__, #cond);                                  \
      ++failures;                                                     \
    }                                                                 \
  } while (0)

using perfbench::Span;

std::vector<double> iota_samples(std::size_t n) {
  std::vector<double> v;
  // Reversed, so tail() must sort.
  for (std::size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;
}

void test_tail_selection() {
  // n = 19: even the median (rank 10) has only 9 samples beyond it.
  {
    auto v = iota_samples(19);
    const auto t = perfbench::tail(v);
    CHECK(t.percentile == 50.0);
    CHECK(!t.enough);
    CHECK(t.samples == 19);
    CHECK(t.value == 10.0);
  }
  // n = 20: the median has exactly 10 beyond; p90 (rank 18) has 2.
  {
    auto v = iota_samples(20);
    const auto t = perfbench::tail(v);
    CHECK(t.percentile == 50.0);
    CHECK(t.enough);
    CHECK(t.beyond == 10);
    CHECK(t.value == 10.0);
  }
  // n = 100: p90 is rank 90 with 10 beyond; p99 has 1.
  {
    auto v = iota_samples(100);
    const auto t = perfbench::tail(v);
    CHECK(t.percentile == 90.0);
    CHECK(t.beyond == 10);
    CHECK(t.value == 90.0);
    CHECK(t.samples == 100);
  }
  // n = 999: p99 is rank 990 with 9 beyond -- not enough, stay at p90.
  {
    auto v = iota_samples(999);
    const auto t = perfbench::tail(v);
    CHECK(t.percentile == 90.0);
    CHECK(t.beyond == 99);
    CHECK(t.value == 900.0);
  }
  // n = 1000: p99 (rank 990) has 10 beyond.
  {
    auto v = iota_samples(1000);
    const auto t = perfbench::tail(v);
    CHECK(t.percentile == 99.0);
    CHECK(t.beyond == 10);
    CHECK(t.value == 990.0);
  }
  // n = 50000: the top of the ladder, p99.9 (rank 49950, 50 beyond).
  {
    auto v = iota_samples(50000);
    const auto t = perfbench::tail(v);
    CHECK(t.percentile == 99.9);
    CHECK(t.beyond == 50);
    CHECK(t.value == 49950.0);
  }
  {
    std::vector<double> v;
    const auto t = perfbench::tail(v);
    CHECK(t.samples == 0);
    CHECK(!t.enough);
  }
}

void test_median() {
  std::vector<double> odd{3, 1, 2};
  CHECK(perfbench::median(odd) == 2.0);
  std::vector<double> even{4, 1, 3, 2};
  CHECK(perfbench::median(even) == 2.5);
  std::vector<double> none;
  CHECK(perfbench::median(none) == 0.0);
}

Span span(const char* name, std::int64_t a, std::int64_t b,
          std::int64_t parent) {
  Span s;
  s.name = name;
  s.start_ns = a;
  s.end_ns = b;
  s.parent = parent;
  return s;
}

void test_self_time_nested() {
  // op [0,100) > analyze [10,60) > merge [20,40): each level subtracts
  // only its direct children.
  const std::vector<Span> spans = {span("op", 0, 100, -1),
                                   span("analyzer.analyze", 10, 60, 0),
                                   span("trace.merge", 20, 40, 1)};
  const auto self = perfbench::self_times(spans);
  CHECK(self[0] == 50);
  CHECK(self[1] == 30);
  CHECK(self[2] == 20);
}

void test_self_time_overlapping() {
  // Two children overlapping in [30,50) cover [10,70) once: 60 ns.
  const std::vector<Span> spans = {span("op", 0, 100, -1),
                                   span("a.x", 10, 50, 0),
                                   span("b.y", 30, 70, 0)};
  const auto self = perfbench::self_times(spans);
  CHECK(self[0] == 40);
  CHECK(self[1] == 40);
  CHECK(self[2] == 40);
  // A child contained in another child, and one sticking out of the
  // parent, are clipped: [5,20) inside [0,40); [90,130) clipped to 10.
  const std::vector<Span> clipped = {span("op", 0, 100, -1),
                                     span("a.x", 0, 40, 0),
                                     span("a.y", 5, 20, 0),
                                     span("c.z", 90, 130, 0)};
  CHECK(perfbench::self_times(clipped)[0] == 50);
  CHECK(perfbench::covered_ns(0, 100, {{50, 60}, {10, 20}, {15, 55}}) == 50);
  CHECK(perfbench::covered_ns(0, 100, {}) == 0);
}

void test_stage_table() {
  // Two ops and one set-up root; spans of op 1 cover 90 of 100 ns, op 2
  // covers all of its 100 ns.
  std::vector<Span> spans = {span("op", 0, 100, -1), span("gen.simulate", 0, 90, 0),
                             span("op", 200, 300, -1),
                             span("analyzer.analyze", 200, 300, 2),
                             span("setup", 0, 1000, -1)};
  spans[0].op = 0;
  spans[1].op = 0;
  spans[2].op = 1;
  spans[3].op = 1;
  spans[4].op = perfbench::kSetupOp;
  const auto self = perfbench::self_times(spans);
  const auto t = perfbench::stage_table(spans, self, false);
  CHECK(t.roots == 2);
  CHECK(t.coverage == 0.95);
  CHECK(t.min_root_coverage == 0.9);
  CHECK(t.roots_covered_95 == 0.5);
  CHECK(t.self_ms("gen.simulate") == 90e-6);
  CHECK(t.layer_share("analyzer") == 0.5);
  const auto s = perfbench::stage_table(spans, self, true);
  CHECK(s.roots == 1);
  CHECK(s.coverage == 0.0);
}

void test_span_log() {
  perfbench::SpanLog log;
  perfbench::thread_log() = &log;
  log.set_op(7);
  {
    perfbench::Scope op("op");
    perfbench::Scope child("gen.simulate");
  }
  perfbench::thread_log() = nullptr;
  { perfbench::Scope ignored("op"); }  // no log: records nothing
  const auto& s = log.spans();
  CHECK(s.size() == 2);
  CHECK(s[0].parent == -1);
  CHECK(s[1].parent == 0);
  CHECK(s[1].op == 7);
  CHECK(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
  const auto merged = perfbench::merge_logs({&log, &log});
  CHECK(merged.size() == 4);
  CHECK(merged[3].parent == 2);
}

}  // namespace

int main() {
  test_tail_selection();
  test_median();
  test_self_time_nested();
  test_self_time_overlapping();
  test_stage_table();
  test_span_log();
  if (failures) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench_test: all checks passed\n");
  return 0;
}
