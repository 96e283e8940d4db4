// Whole-file reads for the campaign readers (journals, row files), which
// scan a file's lines in place instead of copying them out one getline
// at a time.
#pragma once

#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <system_error>

namespace reap::common {

// The file's bytes, or nullopt when it cannot be opened. Reads to EOF
// rather than trusting the size, which a file still being appended to
// (or a directory) does not report faithfully.
inline std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::string text;
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  if (!ec) text.reserve(static_cast<std::size_t>(size));
  char buf[1 << 16];
  while (in.read(buf, sizeof buf) || in.gcount() > 0)
    text.append(buf, static_cast<std::size_t>(in.gcount()));
  return text;
}

}  // namespace reap::common
