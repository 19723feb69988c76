// Unit tests for common/: virtual time, RNG, stats, string helpers.
#include <gtest/gtest.h>
#include <sys/stat.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdint>
#include <limits>
#include <random>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/fsatomic.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/strutil.hpp"
#include "common/vtime.hpp"

namespace ats {
namespace {

TEST(VDur, SecondsRoundTrip) {
  EXPECT_EQ(VDur::seconds(1.5).ns(), 1500000000);
  EXPECT_DOUBLE_EQ(VDur::seconds(0.25).sec(), 0.25);
  EXPECT_EQ(VDur::seconds(0.0), VDur::zero());
}

TEST(VDur, SecondsRoundsToNearestNanosecond) {
  EXPECT_EQ(VDur::seconds(1e-9).ns(), 1);
  EXPECT_EQ(VDur::seconds(0.4e-9).ns(), 0);
  EXPECT_EQ(VDur::seconds(0.6e-9).ns(), 1);
}

TEST(VDur, RejectsNonFinite) {
  EXPECT_THROW(VDur::seconds(std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  EXPECT_THROW(VDur::seconds(std::nan("")), std::invalid_argument);
}

TEST(VDur, Arithmetic) {
  const VDur a = VDur::millis(3);
  const VDur b = VDur::micros(500);
  EXPECT_EQ((a + b).ns(), 3500000);
  EXPECT_EQ((a - b).ns(), 2500000);
  EXPECT_EQ((a * 2.0).ns(), 6000000);
  EXPECT_EQ((a * std::int64_t{4}).ns(), 12000000);
  EXPECT_EQ((a / std::int64_t{3}).ns(), 1000000);
  EXPECT_DOUBLE_EQ(a / b, 6.0);
  EXPECT_EQ(-a, VDur::millis(-3));
}

TEST(VDur, DivisionByZeroDurationThrows) {
  EXPECT_THROW(VDur::millis(1) / VDur::zero(), std::invalid_argument);
}

TEST(VDur, Comparisons) {
  EXPECT_LT(VDur::micros(1), VDur::millis(1));
  EXPECT_EQ(longer(VDur::micros(3), VDur::micros(5)), VDur::micros(5));
  EXPECT_EQ(shorter(VDur::micros(3), VDur::micros(5)), VDur::micros(3));
  EXPECT_EQ(non_negative(VDur::millis(-2)), VDur::zero());
  EXPECT_EQ(non_negative(VDur::millis(2)), VDur::millis(2));
}

TEST(VDur, HumanReadable) {
  EXPECT_EQ(VDur::nanos(12).str(), "12 ns");
  EXPECT_EQ(VDur::micros(3).str(), "3.00 us");
  EXPECT_EQ(VDur::millis(12).str(), "12.00 ms");
  EXPECT_EQ(VDur::seconds(2.5).str(), "2.500 s");
}

TEST(VTime, Arithmetic) {
  const VTime t = VTime::zero() + VDur::millis(10);
  EXPECT_EQ(t.ns(), 10000000);
  EXPECT_EQ(t - VTime::zero(), VDur::millis(10));
  EXPECT_EQ(later(t, VTime::zero()), t);
  EXPECT_EQ(earlier(t, VTime::zero()), VTime::zero());
}

TEST(Rng, DeterministicPerSeed) {
  Rng a(42, 0), b(42, 0);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, StreamsDiffer) {
  Rng a(42, 0), b(42, 1);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, NextBelowInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.next_below(13), 13u);
}

TEST(Rng, NextBelowZeroThrows) {
  Rng r(7);
  EXPECT_THROW(r.next_below(0), std::invalid_argument);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, IntRangeInclusive) {
  Rng r(7);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = r.next_in(std::int64_t{-2}, std::int64_t{2});
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all values hit
}

TEST(Rng, LoGreaterThanHiThrows) {
  Rng r(7);
  EXPECT_THROW(r.next_in(std::int64_t{3}, std::int64_t{2}),
               std::invalid_argument);
}

TEST(RunningStats, Basics) {
  RunningStats s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.sum(), 10.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.variance(), 1.25, 1e-12);
  EXPECT_DOUBLE_EQ(s.imbalance(), 4.0 / 2.5);
}

TEST(RunningStats, EmptyIsSafe) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.imbalance(), 1.0);
}

TEST(StrUtil, JoinSplit) {
  EXPECT_EQ(join({"a", "b", "c"}, ","), "a,b,c");
  EXPECT_EQ(join({}, ","), "");
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
}

TEST(StrUtil, Padding) {
  EXPECT_EQ(pad_right("ab", 4), "ab  ");
  EXPECT_EQ(pad_right("abcdef", 4), "abcd");
  EXPECT_EQ(pad_left("ab", 4), "  ab");
  EXPECT_EQ(pad_left("abcdef", 4), "abcdef");
}

TEST(StrUtil, Formatting) {
  EXPECT_EQ(fmt_double(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_percent(0.123, 1), "12.3%");
  EXPECT_TRUE(starts_with("late_sender", "late"));
  EXPECT_FALSE(starts_with("late", "late_sender"));
  EXPECT_EQ(repeat('-', 3), "---");
}

std::string printf_fixed(double v, int precision, const char* suffix = "") {
  const int n = std::snprintf(nullptr, 0, "%.*f%s", precision, v, suffix);
  std::string out(static_cast<std::size_t>(n) + 1, '\0');
  std::snprintf(out.data(), out.size(), "%.*f%s", precision, v, suffix);
  out.pop_back();
  return out;
}

// fmt_double and fmt_percent must print exactly what "%.*f" prints, at any
// magnitude: a fixed-size snprintf buffer used to cut |v| >= ~1e53 short.
TEST(StrUtil, FixedFormattingMatchesPrintf) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> pinned = {
      -0.0, 5e-10, 1e-10, 1e300, -1e300, inf, -inf, nan, -nan,
      std::numeric_limits<double>::max(), 1e53, 2.5, 0.125};
  std::mt19937_64 gen(20031);
  std::vector<double> values = pinned;
  for (int i = 0; i < 1000; ++i) {
    // Raw bit patterns reach every exponent, subnormals and NaNs included.
    values.push_back(std::bit_cast<double>(gen()));
  }
  for (double v : values) {
    for (int precision : {0, 1, 3, 6, 9, 17}) {
      ASSERT_EQ(fmt_double(v, precision), printf_fixed(v, precision))
          << "precision " << precision;
      ASSERT_EQ(fmt_percent(v, precision),
                printf_fixed(v * 100.0, precision, "%"))
          << "precision " << precision;
    }
  }
  EXPECT_EQ(fmt_double(1e300, 9).size(), 301u + 1u + 9u);
  EXPECT_EQ(fmt_double(5e-10, 9), printf_fixed(5e-10, 9));
  EXPECT_EQ(fmt_double(-0.0, 3), "-0.000");
  EXPECT_EQ(fmt_double(0.5, 120), printf_fixed(0.5, 120));

  // Severity seconds print from integer nanoseconds below kExactNsBound.
  // Sample whole nanoseconds on both sides of the bound up to 2^53, as
  // VDur::sec() makes them (ns * 1e-9) and as a CSV parse does (ns / 1e9),
  // their neighbouring doubles, and both signs.
  const auto seconds_field = [](double v) {
    std::string row;
    append_severity_row(row, "p", "c", "l", v);
    return row.substr(6, row.size() - 7);
  };
  const std::int64_t bound = kExactNsBound;
  std::vector<std::int64_t> ns = {0, 1, 999999999, 1000000000, bound - 2,
                                  bound - 1, bound, bound + 1,
                                  std::int64_t{1} << 52,
                                  (std::int64_t{1} << 53) - 1};
  for (int i = 0; i < 4000; ++i) {
    // Uniform over [0, 2^53), then log-uniform so small values show up.
    ns.push_back(static_cast<std::int64_t>(gen() >> 11));
    ns.push_back(static_cast<std::int64_t>(gen() >> (11 + gen() % 53)));
  }
  for (std::int64_t n : ns) {
    for (double v : {static_cast<double>(n) * 1e-9,
                     static_cast<double>(n) / 1e9}) {
      for (double w : {v, -v, std::nextafter(v, 0.0),
                       std::nextafter(v, 1e300)}) {
        ASSERT_EQ(seconds_field(w), printf_fixed(w, 9)) << "ns " << n;
      }
    }
  }
  for (double v : values) ASSERT_EQ(seconds_field(v), printf_fixed(v, 9));
  EXPECT_EQ(seconds_field(-0.0), "-0.000000000");
  EXPECT_EQ(seconds_field(static_cast<double>(bound - 1) * 1e-9),
            "2251799.813685247");
}

// VDur::str's adaptive units print what their printf formats print.
TEST(VDur, StrMatchesPrintfFormats) {
  std::mt19937_64 gen(7);
  std::vector<std::int64_t> ns = {0, -1, 999, 1000, 999999, 1000000,
                                  999999999, 1000000000, -1500000};
  for (int i = 0; i < 2000; ++i) {
    ns.push_back(static_cast<std::int64_t>(gen() >> (gen() % 64)));
  }
  for (std::int64_t n : ns) {
    const double a = std::abs(static_cast<double>(n));
    const double d = static_cast<double>(n);
    std::string want;
    if (a < 1e3) {
      want = std::to_string(n) + " ns";
    } else if (a < 1e6) {
      want = printf_fixed(d / 1e3, 2, " us");
    } else if (a < 1e9) {
      want = printf_fixed(d / 1e6, 2, " ms");
    } else {
      want = printf_fixed(d / 1e9, 3, " s");
    }
    ASSERT_EQ(VDur(n).str(), want);
    std::string appended = "x";
    VDur(n).append_to(appended);
    ASSERT_EQ(appended, "x" + want);
  }
}

TEST(StrUtil, PaddingAppendsAfterExistingText) {
  std::string out = ">";
  append_pad_right(out, "ab", 4);
  append_pad_right(out, "abcdef", 4);
  const std::size_t from = out.size();
  out += "ab";
  right_align(out, from, 4);
  out += "abcdef";
  right_align(out, out.size() - 6, 4);
  EXPECT_EQ(out, ">ab  abcd  ababcdef");
}

TEST(StrUtil, SeverityRowIsTheCsvSchema) {
  std::string out(kSeverityCsvHeader);
  out += '\n';
  append_severity_row(out, "late sender", "main > MPI_Recv", "rank 1",
                      0.0123456789);
  EXPECT_EQ(out,
            "property,call_path,location,severity_sec\n"
            "late sender,main > MPI_Recv,rank 1,0.012345679\n");
}

TEST(StrUtil, Hex64RoundTripsAndRejectsNonHex) {
  EXPECT_EQ(hex64(0), "0");
  EXPECT_EQ(hex64(1), "1");
  EXPECT_EQ(hex64(UINT64_MAX), "ffffffffffffffff");
  EXPECT_EQ(hex64(0xdeadbeefcafef00dULL), "deadbeefcafef00d");
  for (const std::uint64_t v :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{0x1f},
        std::uint64_t{0xdeadbeefcafef00dULL}, UINT64_MAX}) {
    std::uint64_t back = 7;
    ASSERT_TRUE(parse_hex64(hex64(v), &back)) << hex64(v);
    EXPECT_EQ(back, v);
  }
  std::uint64_t mixed = 0;
  ASSERT_TRUE(parse_hex64("DeAdBeEf", &mixed));  // either case
  EXPECT_EQ(mixed, 0xdeadbeefULL);
  ASSERT_TRUE(parse_hex64("FFFFFFFFFFFFFFFF", &mixed));
  EXPECT_EQ(mixed, UINT64_MAX);
  for (const char* bad : {"", "0x1f", " 1f", "1f ", "1fzz", "-1", "+1",
                          "10000000000000000", "00000000000000001"}) {
    std::uint64_t out = 42;
    EXPECT_FALSE(parse_hex64(bad, &out)) << "'" << bad << "'";
    EXPECT_EQ(out, 42u) << "'" << bad << "'";
  }
}

TEST(StrUtil, DecimalIntegersParseWholeFieldsInRange) {
  EXPECT_EQ(parse_decimal<int>("0"), 0);
  EXPECT_EQ(parse_decimal<int>("-17"), -17);
  EXPECT_EQ(parse_decimal<int>("2147483647"), INT32_MAX);
  EXPECT_EQ(parse_decimal<int>("-2147483648"), INT32_MIN);
  EXPECT_EQ(parse_decimal<std::int64_t>("-9223372036854775808"), INT64_MIN);
  EXPECT_EQ(parse_decimal<std::uint64_t>("18446744073709551615"), UINT64_MAX);
  EXPECT_EQ(parse_decimal<int>("007"), 7);
  // Out of the type's range: never wrapped or saturated.
  EXPECT_FALSE(parse_decimal<int>("4294967297"));
  EXPECT_FALSE(parse_decimal<int>("2147483648"));
  EXPECT_FALSE(parse_decimal<int>("99999999999999999999"));
  EXPECT_FALSE(parse_decimal<std::int64_t>("9223372036854775808"));
  EXPECT_FALSE(parse_decimal<std::uint64_t>("18446744073709551616"));
  EXPECT_FALSE(parse_decimal<std::uint64_t>("-1"));
  // Not the whole field.
  for (const char* bad : {"", "4x", " 4", "4 ", "+4", "0x10", "1.5", "1e3",
                          "-", "--1"}) {
    EXPECT_FALSE(parse_decimal<int>(bad)) << "'" << bad << "'";
  }
  // Caller bounds are inclusive.
  EXPECT_EQ(parse_decimal<int>("1", 1), 1);
  EXPECT_FALSE(parse_decimal<int>("0", 1));
  EXPECT_EQ(parse_decimal<int>("10", 0, 10), 10);
  EXPECT_FALSE(parse_decimal<int>("11", 0, 10));
}

TEST(StrUtil, FiniteDoublesParseWholeFields) {
  EXPECT_EQ(parse_finite("0.5"), 0.5);
  EXPECT_EQ(parse_finite("-1e-3"), -1e-3);
  EXPECT_EQ(parse_finite(".25"), 0.25);
  EXPECT_EQ(parse_finite("3"), 3.0);
  EXPECT_EQ(parse_finite("0.005"), 0.005);
  for (const char* bad : {"", "nan", "NaN", "inf", "-inf", "infinity", "1e999",
                          "0.5junk", " 0.5", "0.5 ", "+0.5", "0x1p-1", "."}) {
    EXPECT_FALSE(parse_finite(bad)) << "'" << bad << "'";
  }
}

TEST(Error, RequireThrowsUsageError) {
  EXPECT_NO_THROW(require(true, "ok"));
  EXPECT_THROW(require(false, "bad"), UsageError);
  try {
    require(false, "specific message");
  } catch (const UsageError& e) {
    EXPECT_STREQ(e.what(), "specific message");
  }
}

TEST(Error, HierarchyIsCatchable) {
  EXPECT_THROW(throw MpiError("x"), UsageError);
  EXPECT_THROW(throw MpiError("x"), Error);
  EXPECT_THROW(throw DeadlockError("x"), Error);
}

// ------------------------------------------------------------- fsatomic

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

TEST(FsAtomic, AtomicWriteFileCreatesAndReplaces) {
  const std::string path = testing::TempDir() + "ats_fsatomic_write.txt";
  std::remove(path.c_str());
  atomic_write_file(path, "first\n");
  atomic_write_file(path, "second version\n");
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content, "second version\n");
  // The temp file must not linger after a successful rename.
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good());
  std::remove(path.c_str());
}

/// The lines a fresh AtomicJournal on `path` hands over at load.
std::vector<std::string> load_lines(const std::string& path) {
  std::vector<std::string> lines;
  AtomicJournal j(path, [&](std::string_view l) { lines.emplace_back(l); });
  return lines;
}

TEST(FsAtomic, JournalAppendsPersistAcrossReload) {
  const std::string path = testing::TempDir() + "ats_fsatomic_journal.txt";
  std::remove(path.c_str());
  {
    AtomicJournal j(path);
    j.append("alpha");
    j.append("beta");
  }
  EXPECT_EQ(load_lines(path), (std::vector<std::string>{"alpha", "beta"}));
  std::remove(path.c_str());
}

TEST(FsAtomic, JournalDropsTornTrailingFragment) {
  const std::string path = testing::TempDir() + "ats_fsatomic_torn.txt";
  std::remove(path.c_str());
  {
    std::ofstream f(path);
    f << "complete line\n" << "torn fragment without newline";
  }
  std::vector<std::string> loaded;
  AtomicJournal j(path, [&](std::string_view l) { loaded.emplace_back(l); });
  EXPECT_EQ(loaded, (std::vector<std::string>{"complete line"}));
  // Loading cut the fragment from the file, so the append starts its own
  // line instead of extending the fragment.
  EXPECT_EQ(read_file(path), "complete line\n");
  j.append("appended");
  EXPECT_EQ(read_file(path), "complete line\nappended\n");
  EXPECT_EQ(load_lines(path),
            (std::vector<std::string>{"complete line", "appended"}));
  std::remove(path.c_str());
}

TEST(FsAtomic, JournalAppendExtendsTheSameFile) {
  const std::string path = testing::TempDir() + "ats_fsatomic_append.txt";
  std::remove(path.c_str());
  AtomicJournal j(path);
  j.append("one");
  struct stat before {};
  ASSERT_EQ(::stat(path.c_str(), &before), 0);
  j.append("two");
  struct stat after {};
  ASSERT_EQ(::stat(path.c_str(), &after), 0);
  // An append writes into the file in place; a rewrite would rename a new
  // file over it.
  EXPECT_EQ(after.st_ino, before.st_ino);
  EXPECT_EQ(read_file(path), "one\ntwo\n");
  std::remove(path.c_str());
}

TEST(FsAtomic, JournalRewriteReplacesContent) {
  const std::string path = testing::TempDir() + "ats_fsatomic_rewrite.txt";
  std::remove(path.c_str());
  AtomicJournal j(path);
  j.append("old 1");
  j.append("old 2");
  j.rewrite({"only line"});
  EXPECT_EQ(read_file(path), "only line\n");
  j.append("after");
  EXPECT_EQ(load_lines(path),
            (std::vector<std::string>{"only line", "after"}));
  std::remove(path.c_str());
}

TEST(FsAtomic, EmptyPathWritesNoFileAndLoadsNothing) {
  int loaded = 0;
  AtomicJournal j("", [&](std::string_view) { ++loaded; });
  EXPECT_TRUE(j.path().empty());
  // No file to write: atomic_write_file would reject the empty path, so
  // neither call may reach the disk.
  EXPECT_NO_THROW(j.append("dropped"));
  EXPECT_NO_THROW(j.rewrite({"dropped too"}));
  EXPECT_THROW(atomic_write_file("", "x"), UsageError);
  EXPECT_EQ(loaded, 0);
}

}  // namespace
}  // namespace ats
