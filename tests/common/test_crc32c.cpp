// CRC32C is part of the journal's on-disk format: these known-answer
// vectors pin the function to the standard Castagnoli variant so a
// refactor can never silently change the checksum of existing journals,
// and the SSE4.2 path is pinned to the table path byte for byte.
#include "reap/common/crc32c.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <random>
#include <string>

namespace reap::common {
namespace {

TEST(Crc32c, KnownAnswerVectors) {
  // The canonical CRC check string, plus vectors from RFC 3720 appendix.
  EXPECT_EQ(crc32c("123456789"), 0xE3069283u);
  EXPECT_EQ(crc32c(""), 0x00000000u);
  EXPECT_EQ(crc32c(std::string(32, '\0')), 0x8A9136AAu);
  EXPECT_EQ(crc32c(std::string(32, '\xff')), 0x62A8AB43u);
}

TEST(Crc32c, IncrementalBytesVector) {
  // RFC 3720: bytes 0x00..0x1f.
  std::string data;
  for (int i = 0; i < 32; ++i) data.push_back(static_cast<char>(i));
  EXPECT_EQ(crc32c(data), 0x46DD794Eu);
}

TEST(Crc32c, SensitiveToSingleBitFlips) {
  const std::string row = "{\"key\":\"mcf/reap/t1/sc-/rr-/s0\",\"mttf\":1.5}";
  const std::uint32_t clean = crc32c(row);
  for (std::size_t i = 0; i < row.size(); ++i) {
    std::string damaged = row;
    damaged[i] = static_cast<char>(damaged[i] ^ 0x01);
    EXPECT_NE(crc32c(damaged), clean) << "bit flip at byte " << i;
  }
}

// The byte-at-a-time CRC the slicing-by-8 implementation replaced, kept
// here as the reference it must match bit for bit.
std::uint32_t bytewise_crc32c(std::string_view data) {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1) ? 0x82F63B78u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const char ch : data)
    crc = table[(crc ^ static_cast<unsigned char>(ch)) & 0xFF] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

TEST(Crc32c, MatchesBytewiseReferenceAtEveryLengthAndOffset) {
  std::mt19937_64 rng(7);
  std::string buf(300, '\0');
  for (auto& ch : buf) ch = static_cast<char>(rng());
  // Every start offset inside an 8-byte word and every length up to a few
  // words past the unrolled loop, so both the 8-byte body and the bytewise
  // tail run from unaligned starts.
  for (std::size_t start = 0; start < 8; ++start)
    for (std::size_t len = 0; len + start <= 80; ++len) {
      const std::string_view v(buf.data() + start, len);
      ASSERT_EQ(crc32c(v), bytewise_crc32c(v))
          << "start " << start << ", length " << len;
    }
  for (const std::size_t len : {127u, 255u, 257u, 299u}) {
    const std::string_view v(buf.data() + 1, len);
    EXPECT_EQ(crc32c(v), bytewise_crc32c(v)) << "length " << len;
  }
}

// The table path, called directly: the fallback of a host without
// SSE4.2, tested on every host.
TEST(Crc32c, TablePathMatchesBytewiseReferenceAtEveryLengthAndOffset) {
  std::mt19937_64 rng(11);
  std::string buf(1040, '\0');
  for (auto& ch : buf) ch = static_cast<char>(rng());
  for (std::size_t start = 0; start < 8; ++start)
    for (std::size_t len = 0; len <= 1024; ++len) {
      const std::string_view v(buf.data() + start, len);
      ASSERT_EQ(crc32c_table(v), bytewise_crc32c(v))
          << "start " << start << ", length " << len;
    }
  EXPECT_EQ(crc32c_table("123456789"), 0xE3069283u);
}

// crc32c runs the SSE4.2 path where the CPU has it (elsewhere it is the
// table path, and this holds trivially). Lengths 0-1024 from every offset
// cover the 8-byte body, the bytewise tail and the three-chain 256-byte
// blocks; the long lengths straddle the 8 KiB blocks' 24 KiB stride.
TEST(Crc32c, HardwarePathMatchesTablePathAtEveryLengthAndOffset) {
  std::mt19937_64 rng(13);
  std::string buf(3 * 3 * 8192 + 64, '\0');
  for (auto& ch : buf) ch = static_cast<char>(rng());
  for (std::size_t start = 0; start < 8; ++start) {
    for (std::size_t len = 0; len <= 1024; ++len) {
      const std::string_view v(buf.data() + start, len);
      ASSERT_EQ(crc32c(v), crc32c_table(v))
          << "start " << start << ", length " << len;
    }
    for (const std::size_t len :
         {24575u, 24576u, 24577u, 24576u + 768u, 49152u + 767u, 73728u}) {
      const std::string_view v(buf.data() + start, len);
      ASSERT_EQ(crc32c(v), crc32c_table(v))
          << "start " << start << ", length " << len;
    }
  }
}

// The two-piece form equals the checksum of the concatenation at every
// split point, on either path.
TEST(Crc32c, TwoPieceFormEqualsTheConcatenation) {
  const std::string row =
      "{\"key\":\"mcf/reap/t1/sc-/rr-/s0\",\"index\":3,\"mttf\":1.5";
  for (std::size_t cut = 0; cut <= row.size(); ++cut)
    ASSERT_EQ(crc32c(std::string_view(row).substr(0, cut),
                     std::string_view(row).substr(cut)),
              crc32c(row))
        << "cut " << cut;
}

TEST(Crc32c, HexFormatRoundTrips) {
  EXPECT_EQ(fmt_hex32(0x00000000u), "00000000");
  EXPECT_EQ(fmt_hex32(0xE3069283u), "e3069283");
  EXPECT_EQ(fmt_hex32(0xFFFFFFFFu), "ffffffff");
  for (std::uint32_t v : {0x0u, 0x1u, 0xE3069283u, 0xFFFFFFFFu}) {
    std::uint32_t parsed = 0;
    ASSERT_TRUE(parse_hex32(fmt_hex32(v), parsed));
    EXPECT_EQ(parsed, v);
  }
}

TEST(Crc32c, ParseHexRejectsAnythingButEightHexDigits) {
  std::uint32_t out = 0;
  EXPECT_FALSE(parse_hex32("", out));
  EXPECT_FALSE(parse_hex32("e306928", out));    // 7 digits
  EXPECT_FALSE(parse_hex32("e30692831", out));  // 9 digits
  EXPECT_FALSE(parse_hex32("e306928g", out));   // non-hex
  EXPECT_FALSE(parse_hex32(" e3069283", out));
  EXPECT_FALSE(parse_hex32("0xe30692", out));
}

}  // namespace
}  // namespace reap::common
