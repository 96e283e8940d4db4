// CRC32C (Castagnoli) checksums for on-disk row integrity.
//
// The execution journal suffixes every row with a CRC so a reader can
// tell a row that was written and later damaged (bit rot, a partial
// overwrite, a buggy editor) from one that is merely torn at the tail.
// Software slicing-by-8: journal rows are short, but trace-store bodies
// are checked in full on every open, so throughput matters there. The
// checksum is part of the on-disk formats and must never change value
// (pinned by tests/common/test_crc32c.cpp against a bytewise reference).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace reap::common {

// CRC32C of `data` (reflected polynomial 0x82F63B78, init/xorout
// 0xFFFFFFFF): the widely deployed Castagnoli variant (iSCSI, ext4).
std::uint32_t crc32c(std::string_view data);

// Fixed-width lowercase hex, zero-padded to 8 digits; parse_hex32 accepts
// exactly that form.
std::string fmt_hex32(std::uint32_t v);
bool parse_hex32(const std::string& s, std::uint32_t& out);

}  // namespace reap::common
