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
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

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

// Rows gather in a buffer that is written in large pieces, and a line is
// checked for quoting once, as a whole. Every line must still be its cells
// escaped one by one, whether a row has a special cell or not and on
// either side of a buffer write; so must the rows a destructor flushes.
TEST(CsvWriter, LinesAreTheEscapedCellsAcrossBufferWrites) {
  const std::string path = ::testing::TempDir() + "/reap_test_rows.csv";
  const std::vector<std::string> specials = {
      "", "plain", "a,b", "say \"hi\"", "two\nlines", ",", "\"", "x,y,z"};
  std::mt19937 rng(11);
  std::string expected = "h0,h1,h2,h3\n";
  {
    CsvWriter w(path, {"h0", "h1", "h2", "h3"});
    for (int r = 0; r < 8000; ++r) {
      std::vector<std::string> cells;
      for (int c = 0; c < 4; ++c)
        cells.push_back(rng() % 4 == 0
                            ? specials[rng() % specials.size()]
                            : std::string(rng() % 40, 'a' + c) +
                                  std::to_string(r));
      w.add_row(cells);
      for (int c = 0; c < 4; ++c)
        expected += (c ? "," : "") + csv_escape(cells[c]);
      expected += '\n';
    }
    EXPECT_TRUE(w.ok());
  }
  ASSERT_GT(expected.size(), std::size_t{1} << 19);
  std::ifstream in(path, std::ios::binary);
  const std::string got((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  EXPECT_EQ(got, expected);
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
        limits::min(), limits::max(), -limits::max(), limits::denorm_min(),
        limits::infinity(), -limits::infinity(), limits::quiet_NaN(),
        -limits::quiet_NaN(), limits::signaling_NaN()})
    EXPECT_EQ(fmt_double(v), fmt_double_full_search(v)) << v;
  // Every power of two, normal and subnormal, and its neighbours: the
  // round-trip interval is lopsided there.
  for (int e = -1074; e <= 1023; ++e) {
    const double p = std::ldexp(1.0, e);
    for (const double v : {p, std::nextafter(p, 0.0),
                           std::nextafter(p, limits::infinity()), -p})
      ASSERT_EQ(fmt_double(v), fmt_double_full_search(v)) << v;
  }
  std::mt19937_64 rng(2024);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  // Arbitrary bit patterns cover every exponent, both NaN signs and the
  // subnormals; subnormal mantissas get a share of their own.
  for (int i = 0; i < 1'000'000; ++i) {
    const double v = std::bit_cast<double>(rng());
    ASSERT_EQ(fmt_double(v), fmt_double_full_search(v)) << v;
  }
  for (int i = 0; i < 20'000; ++i) {
    const double v =
        std::bit_cast<double>(rng() & 0x800FFFFFFFFFFFFFULL);  // subnormal
    ASSERT_EQ(fmt_double(v), fmt_double_full_search(v)) << v;
  }
  for (int i = 0; i < 10000; ++i) {
    // Short decimals cover the cases where few digits suffice.
    const double short_decimal = std::round(unit(rng) * 1e4) / 1e2;
    for (const double v : {short_decimal, unit(rng) * 1e6})
      ASSERT_EQ(fmt_double(v), fmt_double_full_search(v)) << v;
  }
}

// What parse_double was before its from_chars fast path: strtod over the
// whole string.
bool parse_double_strtod(const std::string& s, double& out) {
  if (s.empty()) return false;
  char* end = nullptr;
  out = std::strtod(s.c_str(), &end);
  return end && *end == '\0';
}

void expect_parse_double_matches_strtod(const std::string& s) {
  double fast = 0.0, slow = 0.0;
  const bool fast_ok = parse_double(s, fast);
  ASSERT_EQ(fast_ok, parse_double_strtod(s, slow)) << '"' << s << '"';
  if (fast_ok) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(fast),
              std::bit_cast<std::uint64_t>(slow))
        << '"' << s << '"';
  }
}

TEST(Strings, ParseDoubleDecidesAsStrtodDoes) {
  // Inputs where from_chars and strtod part ways: leading space or '+',
  // hex, out of range, signed zero, nan/inf spellings, 2^53 and 2^53 + 1,
  // subnormals, and text after a number.
  for (const char* s :
       {" 1", "+1", "0x10", "0X1p3", "1e999", "-1e999", "1e-999", "-0", "0",
        "nan", "-nan", "NaN", "nan(1)", "inf", "-inf", "Infinity", "infx",
        "9007199254740992", "9007199254740993", "4.9e-324", "2.4e-324",
        "2.5e-324", "2.2250738585072011e-308", "1.7976931348623157e308",
        "1.7976931348623159e308", ".5", "5.", "1e", "1e+", "--1", "1 ",
        "1,5", "", "e5", "0.1e-5", "123456789012345678901234567890"})
    expect_parse_double_matches_strtod(s);
  // And every string fmt_double writes, over arbitrary bit patterns.
  std::mt19937_64 rng(99);
  for (int i = 0; i < 200'000; ++i)
    expect_parse_double_matches_strtod(
        fmt_double(std::bit_cast<double>(rng())));
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

// A string ends at the first quote no backslash escapes, and every escape
// before it must be one the subset knows, names and values alike.
TEST(Jsonl, StringsEndAtTheFirstUnescapedQuote) {
  const auto one = [](const std::string& line) {
    const auto fields = parse_jsonl_line(line);
    return fields && fields->size() == 1 ? std::optional((*fields)[0])
                                         : std::nullopt;
  };
  EXPECT_EQ(one(R"({"a":"x\\"})")->second, "x\\");
  EXPECT_EQ(one(R"({"a":"\"\"\\\/\n\t\r"})")->second, "\"\"\\/\n\t\r");
  EXPECT_EQ(one(R"({"a\"b":1})")->first, "a\"b");
  EXPECT_EQ(one(R"({"a":"config a=1 b=2 c=\"3\" d=4"})")->second,
            "config a=1 b=2 c=\"3\" d=4");
  EXPECT_FALSE(parse_jsonl_line(R"({"a":"x\"})"));   // escaped close: open
  EXPECT_FALSE(parse_jsonl_line(R"({"a":"x\q"})"));  // unknown escape
  EXPECT_FALSE(parse_jsonl_line(R"({"a":"x\)"));     // backslash at the end
  EXPECT_FALSE(parse_jsonl_line(R"({"a":"x)"));      // unterminated
  EXPECT_FALSE(parse_jsonl_line(R"({"a\":1})"));     // unterminated name
  const auto three =
      parse_jsonl_line(R"({"a":"x","b":"y\\","c":"\\"})");
  ASSERT_TRUE(three);
  ASSERT_EQ(three->size(), 3u);
  EXPECT_EQ((*three)[1].second, "y\\");
  EXPECT_EQ((*three)[2].second, "\\");
}

}  // namespace
}  // namespace reap::common
