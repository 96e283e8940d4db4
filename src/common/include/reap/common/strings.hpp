// Strict numeric parsing, deterministic number formatting and the small
// string helpers (split/join, the error-out `fail`) every layer shares.
#pragma once

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

namespace reap::common {

// Sets *error (when asked for) to `msg` and returns false: the failure
// path of every `bool f(..., std::string* error)`.
inline bool fail(std::string* error, const std::string& msg) {
  if (error) *error = msg;
  return false;
}

// Parse an entire string as an unsigned integer / double; reject empty
// input and trailing garbage ("1e6" is NOT a valid u64, "two" is nothing).
// The first character must be a digit: strtoull alone would skip leading
// whitespace and silently wrap a leading '-' ("-1" -> 2^64-1).
inline bool parse_u64(const std::string& s, std::uint64_t& out) {
  if (s.empty() || s[0] < '0' || s[0] > '9') return false;
  // A whole-string from_chars parse decides the common case (digits in
  // range); strtoull decides the rest, exactly as before.
  const char* const last = s.data() + s.size();
  if (const auto r = std::from_chars(s.data(), last, out);
      r.ec == std::errc{} && r.ptr == last)
    return true;
  char* end = nullptr;
  out = std::strtoull(s.c_str(), &end, 10);
  return end && *end == '\0';
}

// A whole-string std::from_chars parse accepts a subset of what strtod
// accepts (no leading space or '+', no hex, nothing out of range) and
// rounds the same way, so it decides the common case; anything it leaves
// is strtod's to decide, exactly as before. So is a NaN, whose payload
// ("nan(1)") only strtod keeps.
inline bool parse_double(const std::string& s, double& out) {
  if (s.empty()) return false;
  const char* const last = s.data() + s.size();
  if (const auto r = std::from_chars(s.data(), last, out);
      r.ec == std::errc{} && r.ptr == last && !std::isnan(out))
    return true;
  char* end = nullptr;
  out = std::strtod(s.c_str(), &end);
  return end && *end == '\0';
}

// Shortest decimal form that parses back to the same double ("%.17g" is
// exact but writes 2.0 as 2.0000000000000000e+00; try increasing precision
// until the round trip holds). The campaign byte-determinism guarantee
// rests on this being a pure function of the value.
//
// The search starts at the shortest round-trip digit count std::to_chars
// finds (at least 6): no "%.*g" precision below it can round-trip, so the
// bytes are those of a search from 6. Each step formats with
// to_chars(general, prec), which is "%.*g" by definition, and checks the
// round trip with from_chars, which rounds as strtod does (a value out of
// range is a failed round trip for both): the same bytes without a
// snprintf or strtod call (pinned against that search by
// tests/common/test_util.cpp).
inline std::string fmt_double(double v) {
  char buf[64];
  char* const buf_end = buf + sizeof buf;
  const auto sci =
      std::to_chars(buf, buf_end, v, std::chars_format::scientific);
  int digits = 0;
  for (const char* p = buf; p != sci.ptr && *p != 'e'; ++p)
    digits += *p >= '0' && *p <= '9';
  char* end = sci.ptr;
  for (int prec = std::max(6, digits); prec <= 17; ++prec) {
    end = std::to_chars(buf, buf_end, v, std::chars_format::general, prec).ptr;
    double back = 0.0;
    const auto r = std::from_chars(buf, end, back);
    if (r.ec == std::errc{} && back == v) break;
  }
  return std::string(buf, end);
}

// FNV-1a 64-bit hash. Used where a stable, platform-independent content
// fingerprint must survive across processes and releases (e.g. the campaign
// journal's spec hash) -- std::hash carries no such guarantee.
constexpr std::uint64_t fnv1a64(std::string_view s) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ULL;
  }
  return h;
}

// Splits on every `sep`: n separators give n + 1 fields, empty ones
// included ("" gives one empty field).
inline std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= s.size()) {
    const auto next = s.find(sep, pos);
    const auto end = next == std::string::npos ? s.size() : next;
    out.push_back(s.substr(pos, end - pos));
    if (next == std::string::npos) break;
    pos = next + 1;
  }
  return out;
}

// The inverse of split: the items with `sep` between them.
inline std::string join(const std::vector<std::string>& items, char sep) {
  std::string out;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i) out += sep;
    out += items[i];
  }
  return out;
}

// Fixed-width lowercase hex, zero-padded to 16 digits; parse_hex64 accepts
// exactly that form (optionally 0x-prefixed).
inline std::string fmt_hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

inline bool parse_hex64(const std::string& s, std::uint64_t& out) {
  if (s.empty()) return false;
  char* end = nullptr;
  out = std::strtoull(s.c_str(), &end, 16);
  return end && *end == '\0';
}

}  // namespace reap::common
