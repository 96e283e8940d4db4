// Tiny --key=value command-line parser shared by benches and examples.
//
// Usage:
//   CliArgs args(argc, argv);
//   auto n = args.get_u64("instructions", 5'000'000);
//   auto wl = args.get_string("workload", "perlbench");
//   if (args.has("help")) { ... }
// Unknown keys are collected so binaries can warn about typos.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace reap::common {

class CliArgs {
 public:
  CliArgs(int argc, const char* const* argv);

  bool has(const std::string& key) const;
  std::string get_string(const std::string& key, const std::string& fallback) const;
  std::uint64_t get_u64(const std::string& key, std::uint64_t fallback) const;
  double get_double(const std::string& key, double fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;

  // Keys given on the command line that were never queried via get_*/has.
  std::vector<std::string> unconsumed() const;

  // Positional (non --key) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> kv_;
  mutable std::map<std::string, bool> consumed_;
  std::vector<std::string> positional_;
};

// Parses a shard assignment "I/N" (e.g. "--shard=2/8"). Returns false on
// garbage, N == 0, or I >= N. Shared by reap_campaign (which runs one
// shard) and reap_dispatch (which assigns all of them).
bool parse_shard(const std::string& text, std::size_t& index,
                 std::size_t& count);

// Arms fault-injection sites (common/fault.hpp) from the REAP_FAULT
// environment, then from --inject-fault. Returns false with `error`
// naming the bad source; the campaign CLIs call it first thing.
bool arm_faults(const CliArgs& args, std::string* error);

// Warns (to stderr) about every flag that was given but never queried --
// the typo guard every CLI main ends with.
void warn_unused(const CliArgs& args);

}  // namespace reap::common
