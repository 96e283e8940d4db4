#include "reap/common/file.hpp"

#include <unistd.h>

#include <utility>

namespace reap::common {

namespace fs = std::filesystem;

FileReplacement::FileReplacement(std::string target)
    : target_(std::move(target)), path_(target_) {
  std::error_code ec;
  const auto st = fs::symlink_status(target_, ec);
  if (fs::exists(st) && !fs::is_regular_file(st)) return;  // in place
  path_ = target_ + "." + std::to_string(::getpid()) + ".tmp";
  pending_ = true;
}

FileReplacement::FileReplacement(FileReplacement&& other) noexcept
    : target_(std::move(other.target_)),
      path_(std::move(other.path_)),
      pending_(std::exchange(other.pending_, false)) {}

FileReplacement& FileReplacement::operator=(FileReplacement&& other) noexcept {
  if (this != &other) {
    std::error_code ec;
    if (pending_) fs::remove(path_, ec);
    target_ = std::move(other.target_);
    path_ = std::move(other.path_);
    pending_ = std::exchange(other.pending_, false);
  }
  return *this;
}

FileReplacement::~FileReplacement() {
  std::error_code ec;
  if (pending_) fs::remove(path_, ec);
}

bool FileReplacement::commit(std::string* error) {
  if (!pending_) return true;
  std::error_code ec;
  const auto st = fs::status(target_, ec);
  if (fs::is_regular_file(st))
    fs::permissions(path_, st.permissions(), ec);
  fs::rename(path_, target_, ec);
  if (ec) {
    if (error) *error = "cannot replace " + target_ + ": " + ec.message();
    return false;  // the destructor removes the temporary
  }
  pending_ = false;
  return true;
}

}  // namespace reap::common
