#include "reap/core/read_path.hpp"

namespace reap::core {

std::string to_string(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::conventional_parallel: return "conventional";
    case PolicyKind::reap: return "reap";
    case PolicyKind::serial_tag_then_data: return "serial";
    case PolicyKind::disruptive_restore: return "restore";
    case PolicyKind::scrub_piggyback: return "scrub";
  }
  return "unknown";
}

std::optional<PolicyKind> policy_from_string(const std::string& name) {
  if (name == "conventional") return PolicyKind::conventional_parallel;
  if (name == "reap") return PolicyKind::reap;
  if (name == "serial") return PolicyKind::serial_tag_then_data;
  if (name == "restore") return PolicyKind::disruptive_restore;
  if (name == "scrub") return PolicyKind::scrub_piggyback;
  return std::nullopt;
}

std::vector<PolicyKind> all_policies() {
  return {PolicyKind::conventional_parallel, PolicyKind::reap,
          PolicyKind::serial_tag_then_data, PolicyKind::disruptive_restore,
          PolicyKind::scrub_piggyback};
}

}  // namespace reap::core
