#include "reap/common/cli.hpp"

#include <cstdio>
#include <cstdlib>

#include "reap/common/fault.hpp"
#include "reap/common/strings.hpp"

namespace reap::common {

CliArgs::CliArgs(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      arg = arg.substr(2);
      const auto eq = arg.find('=');
      if (eq == std::string::npos) {
        kv_[arg] = "true";
      } else {
        kv_[arg.substr(0, eq)] = arg.substr(eq + 1);
      }
    } else {
      positional_.push_back(arg);
    }
  }
}

bool CliArgs::has(const std::string& key) const {
  const auto it = kv_.find(key);
  if (it == kv_.end()) return false;
  consumed_[key] = true;
  return true;
}

std::string CliArgs::get_string(const std::string& key,
                                const std::string& fallback) const {
  const auto it = kv_.find(key);
  if (it == kv_.end()) return fallback;
  consumed_[key] = true;
  return it->second;
}

std::uint64_t CliArgs::get_u64(const std::string& key,
                               std::uint64_t fallback) const {
  const auto it = kv_.find(key);
  if (it == kv_.end()) return fallback;
  consumed_[key] = true;
  return std::strtoull(it->second.c_str(), nullptr, 0);
}

double CliArgs::get_double(const std::string& key, double fallback) const {
  const auto it = kv_.find(key);
  if (it == kv_.end()) return fallback;
  consumed_[key] = true;
  return std::strtod(it->second.c_str(), nullptr);
}

bool CliArgs::get_bool(const std::string& key, bool fallback) const {
  const auto it = kv_.find(key);
  if (it == kv_.end()) return fallback;
  consumed_[key] = true;
  return it->second == "true" || it->second == "1" || it->second == "yes" ||
         it->second == "on";
}

std::vector<std::string> CliArgs::unconsumed() const {
  std::vector<std::string> out;
  for (const auto& [k, v] : kv_) {
    (void)v;
    if (!consumed_.count(k)) out.push_back(k);
  }
  return out;
}

bool parse_shard(const std::string& text, std::size_t& index,
                 std::size_t& count) {
  const auto slash = text.find('/');
  if (slash == std::string::npos) return false;
  std::uint64_t i = 0, n = 0;
  if (!parse_u64(text.substr(0, slash), i)) return false;
  if (!parse_u64(text.substr(slash + 1), n)) return false;
  if (n == 0 || i >= n) return false;
  index = std::size_t(i);
  count = std::size_t(n);
  return true;
}

bool arm_faults(const CliArgs& args, std::string* error) {
  std::string why;
  if (!fault::arm_from_env(&why)) {
    if (error) *error = std::string("bad ") + fault::kEnvVar + ": " + why;
    return false;
  }
  if (args.has("inject-fault") &&
      !fault::arm(args.get_string("inject-fault", ""), &why)) {
    if (error) *error = "bad --inject-fault: " + why;
    return false;
  }
  return true;
}

void warn_unused(const CliArgs& args) {
  for (const auto& key : args.unconsumed())
    std::fprintf(stderr, "warning: unused flag --%s\n", key.c_str());
}

}  // namespace reap::common
