#include "reap/common/crc32c.hpp"

#include <array>
#include <cstdio>
#include <cstdlib>

namespace reap::common {
namespace {

// Slicing-by-8 tables: table[0] is the classic byte-at-a-time table;
// table[k][b] is the CRC contribution of byte b followed by k zero bytes,
// so eight input bytes fold into the CRC with eight independent lookups.
using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

Tables make_tables() {
  Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1) ? 0x82F63B78u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k)
    for (std::uint32_t i = 0; i < 256; ++i)
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
  return t;
}

// Little-endian load from any alignment; compiles to one load on
// little-endian hosts.
std::uint32_t load_le32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace

std::uint32_t crc32c(std::string_view data) {
  static const Tables t = make_tables();
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  std::size_t n = data.size();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = crc ^ load_le32(p);
    const std::uint32_t hi = load_le32(p + 4);
    crc = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
          t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
          t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) crc = t[0][(crc ^ *p) & 0xFF] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

std::string fmt_hex32(std::uint32_t v) {
  char buf[9];
  std::snprintf(buf, sizeof buf, "%08x", v);
  return buf;
}

bool parse_hex32(const std::string& s, std::uint32_t& out) {
  // Exactly 8 hex digits: strtoul alone would also take "0x…", spaces,
  // or a sign, none of which a well-formed CRC suffix can contain.
  if (s.size() != 8) return false;
  std::uint32_t v = 0;
  for (const char ch : s) {
    v <<= 4;
    if (ch >= '0' && ch <= '9') v |= static_cast<std::uint32_t>(ch - '0');
    else if (ch >= 'a' && ch <= 'f')
      v |= static_cast<std::uint32_t>(ch - 'a' + 10);
    else if (ch >= 'A' && ch <= 'F')
      v |= static_cast<std::uint32_t>(ch - 'A' + 10);
    else
      return false;
  }
  out = v;
  return true;
}

}  // namespace reap::common
