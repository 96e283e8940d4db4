// Whole-file reads for the campaign readers (journals, row files), which
// scan a file's lines in place instead of copying them out one getline
// at a time; and whole-file replacement for the outputs they write.
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

// An output file written beside its target and renamed over it on
// commit(), so the target is either left exactly as it was or replaced
// whole. A target that exists as anything but a plain regular file (a
// device such as /dev/null or /dev/full, a FIFO, a symlink such as
// /dev/stdout) is written in place, as an ordinary open would: there is
// no file of ours to swap. Destroyed uncommitted, the temporary file is
// removed.
class FileReplacement {
 public:
  explicit FileReplacement(std::string target);
  FileReplacement(FileReplacement&& other) noexcept;
  FileReplacement& operator=(FileReplacement&& other) noexcept;
  ~FileReplacement();

  const std::string& target() const { return target_; }
  // Where to write: the temporary file, or the target itself in place.
  const std::string& path() const { return path_; }

  // Renames the written file over the target, keeping an existing
  // target's permissions (nothing to do in place). False, with `error`
  // naming the target, when the rename fails.
  bool commit(std::string* error = nullptr);

 private:
  std::string target_;
  std::string path_;
  bool pending_ = false;  // path_ is a temporary not yet renamed
};

}  // namespace reap::common
