// CRC32C (Castagnoli) checksums for on-disk row integrity.
//
// The execution journal suffixes every row with a CRC so a reader can
// tell a row that was written and later damaged (bit rot, a partial
// overwrite, a buggy editor) from one that is merely torn at the tail.
// Journal rows are short, but trace-store bodies are checked in full on
// every open, so throughput matters there: crc32c runs on the SSE4.2
// `crc32` instruction (three interleaved chains on long inputs) when the
// CPU has it, chosen at run time, and on software slicing-by-8 otherwise.
// The checksum is part of the on-disk formats and must never change value
// (pinned by tests/common/test_crc32c.cpp: both paths against a bytewise
// reference and against each other).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace reap::common {

// CRC32C of `data` (reflected polynomial 0x82F63B78, init/xorout
// 0xFFFFFFFF): the widely deployed Castagnoli variant (iSCSI, ext4).
std::uint32_t crc32c(std::string_view data);

// CRC32C of the concatenation a + b, without building it: lets a reader
// check a journal row body that is its line minus the checksum suffix
// plus a closing brace in place.
std::uint32_t crc32c(std::string_view a, std::string_view b);

// The slicing-by-8 table path alone, whatever the CPU: crc32c's fallback,
// callable directly so a host with SSE4.2 still tests it.
std::uint32_t crc32c_table(std::string_view data);

// Fixed-width lowercase hex, zero-padded to 8 digits; parse_hex32 accepts
// exactly that form.
std::string fmt_hex32(std::uint32_t v);
bool parse_hex32(std::string_view s, std::uint32_t& out);

}  // namespace reap::common
