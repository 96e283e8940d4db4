// Build identity for the campaign fleet.
//
// Every CLI answers --version with build_info_line(), and a remote
// transport's handshake compares the worker's line against this build's
// before the dispatcher hands it shards: a fleet whose hosts run skewed binaries would merge
// journals produced under different semantics, which is exactly the kind
// of silent divergence the byte-identical merge guarantee exists to rule
// out. The line names the journal format and the stream frame version so
// a mismatch message says *what* is incompatible, not just "different".
#pragma once

#include <string>

namespace reap::campaign {

inline constexpr char kBuildVersion[] = "0.10.0";

// "reap_campaign reap/0.10.0 (journal reap-journal-v2, frame REAPF1)".
// `tool` is the fixed tool name, never argv[0]: a renamed or
// path-qualified binary must still hand the dispatcher a comparable line.
inline std::string build_info_line(const char* tool) {
  return std::string(tool) + " reap/" + kBuildVersion +
         " (journal reap-journal-v2, frame REAPF1)";
}

}  // namespace reap::campaign
