#include "reap/common/crc32c.hpp"

#include <array>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define REAP_CRC32C_HW 1
#include <nmmintrin.h>
#endif

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

const Tables& tables() {
  static const Tables t = make_tables();
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

// Folds `data` into a running (pre-inverted) CRC.
std::uint32_t update_table(std::uint32_t crc, std::string_view data) {
  const Tables& t = tables();
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  std::size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = crc ^ load_le32(p);
    const std::uint32_t hi = load_le32(p + 4);
    crc = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
          t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
          t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) crc = t[0][(crc ^ *p) & 0xFF] ^ (crc >> 8);
  return crc;
}

#ifdef REAP_CRC32C_HW

// The SSE4.2 `crc32` instruction computes exactly update_table's register
// step, 8 bytes at a time, but one chain waits out its 3-cycle latency.
// Long inputs therefore run three chains over three adjacent blocks of
// `len` bytes and join them: the register update is linear, so
// R(c, A B C) = Z(Z(R(c, A)) ^ R(0, B)) ^ R(0, C), where Z advances a
// register over `len` zero bytes. Z is a 32x32 matrix over GF(2), built by
// squaring the one-zero-byte step and applied through four byte tables.
using ZeroShift = std::array<std::array<std::uint32_t, 256>, 4>;
constexpr std::size_t kLongBlock = 8192;
constexpr std::size_t kShortBlock = 256;

// The matrix `m` (column i = image of bit i) applied to `v`.
std::uint32_t gf2_times(const std::array<std::uint32_t, 32>& m,
                        std::uint32_t v) {
  std::uint32_t out = 0;
  for (int i = 0; v != 0; ++i, v >>= 1)
    if (v & 1) out ^= m[i];
  return out;
}

// Z for `zeros` (a power of two) zero bytes, as per-byte tables.
ZeroShift make_zero_shift(std::size_t zeros) {
  std::array<std::uint32_t, 32> m{};
  for (int i = 0; i < 32; ++i) {
    const std::uint32_t bit = 1u << i;
    m[i] = tables()[0][bit & 0xFF] ^ (bit >> 8);
  }
  for (std::size_t n = 1; n < zeros; n <<= 1) {
    std::array<std::uint32_t, 32> sq{};
    for (int i = 0; i < 32; ++i) sq[i] = gf2_times(m, m[i]);
    m = sq;
  }
  ZeroShift z{};
  for (int k = 0; k < 4; ++k)
    for (std::uint32_t b = 0; b < 256; ++b)
      z[k][b] = gf2_times(m, b << (8 * k));
  return z;
}

std::uint32_t zero_shift(const ZeroShift& z, std::uint32_t crc) {
  return z[0][crc & 0xFF] ^ z[1][(crc >> 8) & 0xFF] ^
         z[2][(crc >> 16) & 0xFF] ^ z[3][crc >> 24];
}

std::uint64_t load_u64(const unsigned char* p) {
  std::uint64_t w;
  std::memcpy(&w, p, sizeof w);
  return w;
}

// Three chains over consecutive `len`-byte blocks while 3 * len bytes
// remain; advances `p`/`n` past what it consumed.
__attribute__((target("sse4.2"))) std::uint32_t hw_three_way(
    std::uint32_t crc, const unsigned char*& p, std::size_t& n,
    std::size_t len, const ZeroShift& z) {
  for (; n >= 3 * len; p += 3 * len, n -= 3 * len) {
    std::uint64_t c0 = crc, c1 = 0, c2 = 0;
    for (const unsigned char* q = p; q < p + len; q += 8) {
      c0 = _mm_crc32_u64(c0, load_u64(q));
      c1 = _mm_crc32_u64(c1, load_u64(q + len));
      c2 = _mm_crc32_u64(c2, load_u64(q + 2 * len));
    }
    crc = zero_shift(z, zero_shift(z, static_cast<std::uint32_t>(c0)) ^
                            static_cast<std::uint32_t>(c1)) ^
          static_cast<std::uint32_t>(c2);
  }
  return crc;
}

__attribute__((target("sse4.2"))) std::uint32_t update_hw(
    std::uint32_t crc, std::string_view data) {
  static const ZeroShift long_shift = make_zero_shift(kLongBlock);
  static const ZeroShift short_shift = make_zero_shift(kShortBlock);
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  std::size_t n = data.size();
  crc = hw_three_way(crc, p, n, kLongBlock, long_shift);
  crc = hw_three_way(crc, p, n, kShortBlock, short_shift);
  std::uint64_t c = crc;
  for (; n >= 8; p += 8, n -= 8) c = _mm_crc32_u64(c, load_u64(p));
  crc = static_cast<std::uint32_t>(c);
  for (; n > 0; ++p, --n) crc = _mm_crc32_u8(crc, *p);
  return crc;
}

#endif  // REAP_CRC32C_HW

using UpdateFn = std::uint32_t (*)(std::uint32_t, std::string_view);

// The update the host runs, chosen once.
UpdateFn pick_update() {
#ifdef REAP_CRC32C_HW
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) return update_hw;
#endif
  return update_table;
}

std::uint32_t update(std::uint32_t crc, std::string_view data) {
  static const UpdateFn fn = pick_update();
  return fn(crc, data);
}

}  // namespace

std::uint32_t crc32c(std::string_view data) {
  return update(0xFFFFFFFFu, data) ^ 0xFFFFFFFFu;
}

std::uint32_t crc32c(std::string_view a, std::string_view b) {
  return update(update(0xFFFFFFFFu, a), b) ^ 0xFFFFFFFFu;
}

std::uint32_t crc32c_table(std::string_view data) {
  return update_table(0xFFFFFFFFu, data) ^ 0xFFFFFFFFu;
}

std::string fmt_hex32(std::uint32_t v) {
  std::string out(8, '0');
  for (int i = 7; i >= 0; --i, v >>= 4) out[i] = "0123456789abcdef"[v & 0xF];
  return out;
}

bool parse_hex32(std::string_view s, std::uint32_t& out) {
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
