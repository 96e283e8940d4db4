// Read-path policies: the paper's contribution and its baselines.
//
//   conventional_parallel -- Fig. 2: all k ways read in parallel with the
//       tag compare; only the requested way is ECC-checked; the other k-1
//       reads are concealed and their disturbance accumulates (Eq. 3).
//   reap -- Fig. 4: the ECC decoder is replicated k times and swapped with
//       the way-select MUX, so every way read in parallel is checked (and
//       scrubbed) on every access; accumulation is eliminated (Eq. 6).
//   serial_tag_then_data -- Sec. IV approach (1): data is read only after
//       the tag compare, so no concealed reads exist, at the cost of a
//       longer read path.
//   disruptive_restore -- Sec. II related work (refs [14][15]): every read
//       of every way is followed by a restore write; accumulation is gone
//       but each restore risks a write failure and costs write energy.
//
// A policy owns the per-line accumulation bookkeeping, the
// failure-probability ledger entries, and the energy event counts; the
// cache supplies the mechanism (tags, LRU, dirty bits). The
// implementations live in policy_impl.hpp as non-virtual types the
// simulator statically dispatches over (AnyPolicyImpl picks one at run
// time). tests/core/reference_model.cpp restates each policy from the
// paper, independently, as the oracle the engine is checked against.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "reap/reliability/ledger.hpp"

namespace reap::reliability {
class UncorrectableModel;
}

namespace reap::core {

enum class PolicyKind {
  conventional_parallel,
  reap,
  serial_tag_then_data,
  disruptive_restore,
  // Extension (not in the paper): conventional parallel access, but every
  // `scrub_every`-th read lookup piggybacks a full-set check-and-scrub --
  // a REAP-cache that fires only occasionally. scrub_every = 1 is
  // reliability-equivalent to REAP; large values approach conventional.
  scrub_piggyback,
};

std::string to_string(PolicyKind kind);
std::optional<PolicyKind> policy_from_string(const std::string& name);
std::vector<PolicyKind> all_policies();

// L2 event counts; converted to joules by core/energy.hpp.
struct EnergyEvents {
  std::uint64_t lookups = 0;          // read + write lookups (periphery)
  std::uint64_t way_data_reads = 0;   // one way's data+ECC bits
  std::uint64_t way_data_writes = 0;
  std::uint64_t tag_reads = 0;        // full tag-set read + compare
  std::uint64_t tag_writes = 0;
  std::uint64_t ecc_decodes = 0;
  std::uint64_t ecc_encodes = 0;
};

struct PolicyContext {
  const reliability::UncorrectableModel* model = nullptr;  // required
  reliability::FailureLedger* ledger = nullptr;            // required
  std::size_t ways = 8;

  // disruptive_restore only: per-cell write-failure probability and the
  // codeword size being rewritten on each restore.
  double write_fail_per_cell = 0.0;
  std::size_t codeword_bits = 523;

  // Extension (off = paper-faithful): dirty evictions read the line out
  // through the ECC path and account its accumulated failure probability.
  bool check_on_dirty_eviction = false;

  // scrub_piggyback only: one in this many read lookups scrubs its whole
  // set (checks + resets every valid way).
  std::uint64_t scrub_every = 64;
};

}  // namespace reap::core
