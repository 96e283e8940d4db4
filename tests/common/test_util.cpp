// Tests for TextTable, CsvWriter, CliArgs, string helpers, and the unit
// types.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <random>
#include <sstream>

#include "reap/common/cli.hpp"
#include "reap/common/csv.hpp"
#include "reap/common/jsonl.hpp"
#include "reap/common/strings.hpp"
#include "reap/common/table.hpp"
#include "reap/common/units.hpp"

namespace reap::common {
namespace {

TEST(TextTable, RendersAlignedGrid) {
  TextTable t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"bee", "22222"});
  const std::string s = t.render();
  EXPECT_NE(s.find("| name"), std::string::npos);
  EXPECT_NE(s.find("| alpha"), std::string::npos);
  EXPECT_NE(s.find("| 22222"), std::string::npos);
  // Rules above header, below header, below body: 3 lines starting with +.
  std::size_t rules = 0;
  std::istringstream lines(s);
  std::string line;
  while (std::getline(lines, line)) {
    if (!line.empty() && line[0] == '+') ++rules;
  }
  EXPECT_EQ(rules, 3u);
}

TEST(TextTable, NumberFormatters) {
  EXPECT_EQ(TextTable::fixed(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::sci(1.3e-9), "1.30e-09");
  EXPECT_EQ(TextTable::num(12345.0), "1.234e+04");
}

TEST(CsvWriter, WritesHeaderAndEscapes) {
  const std::string path = ::testing::TempDir() + "/reap_test.csv";
  {
    CsvWriter w(path, {"a", "b"});
    ASSERT_TRUE(w.ok());
    w.add_row({"plain", "has,comma"});
    w.add_row({"has\"quote", "x"});
  }
  std::ifstream in(path);
  std::string l1, l2, l3;
  std::getline(in, l1);
  std::getline(in, l2);
  std::getline(in, l3);
  EXPECT_EQ(l1, "a,b");
  EXPECT_EQ(l2, "plain,\"has,comma\"");
  EXPECT_EQ(l3, "\"has\"\"quote\",x");
  std::remove(path.c_str());
}

TEST(CliArgs, ParsesKeyValueAndFlags) {
  const char* argv[] = {"prog", "--workload=mcf", "--fast", "pos1",
                        "--n=42"};
  CliArgs args(5, argv);
  EXPECT_EQ(args.get_string("workload", "x"), "mcf");
  EXPECT_TRUE(args.get_bool("fast", false));
  EXPECT_EQ(args.get_u64("n", 0), 42u);
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "pos1");
}

TEST(CliArgs, FallbacksWhenMissing) {
  const char* argv[] = {"prog"};
  CliArgs args(1, argv);
  EXPECT_EQ(args.get_string("missing", "dflt"), "dflt");
  EXPECT_EQ(args.get_u64("missing", 7), 7u);
  EXPECT_DOUBLE_EQ(args.get_double("missing", 1.5), 1.5);
  EXPECT_FALSE(args.has("missing"));
}

TEST(CliArgs, TracksUnconsumed) {
  const char* argv[] = {"prog", "--used=1", "--typo=2"};
  CliArgs args(3, argv);
  (void)args.get_u64("used", 0);
  const auto un = args.unconsumed();
  ASSERT_EQ(un.size(), 1u);
  EXPECT_EQ(un[0], "typo");
}

TEST(Units, ArithmeticAndConversions) {
  const Joules e = picojoules(2.0) + picojoules(3.0);
  EXPECT_NEAR(in_picojoules(e), 5.0, 1e-12);
  EXPECT_NEAR(in_picojoules(e * 2.0), 10.0, 1e-12);
  EXPECT_NEAR(in_picojoules(2.0 * e), 10.0, 1e-12);
  EXPECT_NEAR(e / picojoules(2.5), 2.0, 1e-12);

  const Seconds t = nanoseconds(4.0);
  const Watts p = e / t;
  EXPECT_NEAR(in_milliwatts(p), 5e-12 / 4e-9 * 1e3, 1e-9);
  EXPECT_NEAR((p * t).value, e.value, 1e-18);
}

TEST(Units, ComparisonOperators) {
  EXPECT_LT(nanoseconds(1.0), nanoseconds(2.0));
  EXPECT_EQ(picojoules(1000.0).value, nanojoules(1.0).value);
}

TEST(Strings, ParseU64IsStrict) {
  std::uint64_t v = 0;
  EXPECT_TRUE(parse_u64("0", v));
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(parse_u64("18446744073709551615", v));
  EXPECT_EQ(v, ~0ULL);
  // strtoull alone would skip whitespace and wrap a leading '-'.
  EXPECT_FALSE(parse_u64("-1", v));
  EXPECT_FALSE(parse_u64("+1", v));
  EXPECT_FALSE(parse_u64(" 1", v));
  EXPECT_FALSE(parse_u64("", v));
  EXPECT_FALSE(parse_u64("1x", v));
}

TEST(Strings, HashAndHexAreStableRoundTrips) {
  // fnv1a64 is a cross-release fingerprint (journal spec hashes): pin the
  // reference vectors so it can never drift silently.
  EXPECT_EQ(fnv1a64(""), 0xCBF29CE484222325ULL);
  EXPECT_EQ(fnv1a64("a"), 0xAF63DC4C8601EC8CULL);
  std::uint64_t v = 0;
  EXPECT_TRUE(parse_hex64(fmt_hex64(0xDEADBEEF12345678ULL), v));
  EXPECT_EQ(v, 0xDEADBEEF12345678ULL);
  EXPECT_EQ(fmt_hex64(0x1ULL), "0000000000000001");
}

// The search fmt_double used before it started at the to_chars digit
// count: every precision from 6 up until the round trip holds.
std::string fmt_double_full_search(double v) {
  char buf[64];
  for (int prec = 6; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof buf, "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

TEST(Strings, FmtDoubleMatchesTheFullPrecisionSearch) {
  using limits = std::numeric_limits<double>;
  for (const double v :
       {0.0, -0.0, 1.0, -2.5, 0.1, 1.0 / 3.0, 2.0 / 3.0, 1e-300, 1e300,
        9007199254740993.0, 123456.0, 1234567.0, 0.75, 171.0, 5e-324,
        limits::min(), limits::max(), limits::denorm_min(),
        limits::infinity(), -limits::infinity(), limits::quiet_NaN()})
    EXPECT_EQ(fmt_double(v), fmt_double_full_search(v)) << v;
  std::mt19937_64 rng(2024);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (int i = 0; i < 10000; ++i) {
    // Arbitrary bit patterns cover every exponent; short decimals and
    // powers of two cover the cases where few digits suffice or the
    // round-trip interval is lopsided.
    const double bits = std::bit_cast<double>(rng());
    const double short_decimal = std::round(unit(rng) * 1e4) / 1e2;
    const double power = std::ldexp(1.0, static_cast<int>(rng() % 2000) - 1000);
    for (const double v : {bits, short_decimal, power, unit(rng) * 1e6})
      ASSERT_EQ(fmt_double(v), fmt_double_full_search(v)) << v;
  }
}

TEST(Csv, ParseLineInvertsEscape) {
  const std::vector<std::string> cells = {
      "plain", "with,comma", "with\"quote", "", "k=v k2=v2"};
  std::string line;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i) line += ',';
    line += csv_escape(cells[i]);
  }
  const auto back = parse_csv_line(line);
  ASSERT_TRUE(back);
  EXPECT_EQ(*back, cells);
  EXPECT_FALSE(parse_csv_line("\"unterminated"));
  EXPECT_FALSE(parse_csv_line("\"closed\"junk"));
}

TEST(Jsonl, ParseLineInvertsEmission) {
  const auto fields = parse_jsonl_line(
      "{\"a\":\"x\\\"y\",\"b\":1.5e-3,\"c\":\"tab\\there\"}");
  ASSERT_TRUE(fields);
  ASSERT_EQ(fields->size(), 3u);
  EXPECT_EQ((*fields)[0].second, "x\"y");
  EXPECT_EQ((*fields)[1].second, "1.5e-3");  // raw token preserved
  EXPECT_EQ((*fields)[2].second, "tab\there");
  EXPECT_FALSE(parse_jsonl_line("{\"a\":1"));        // truncated
  EXPECT_FALSE(parse_jsonl_line("{\"a\":[1]}"));     // nested
  EXPECT_FALSE(parse_jsonl_line("not json"));
}

}  // namespace
}  // namespace reap::common
