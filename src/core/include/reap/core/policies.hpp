// Runtime-dispatch adapters over the concrete policy implementations in
// policy_impl.hpp; see read_path.hpp for the taxonomy.
//
// PolicyAdapter<Impl> is the "existing virtual interface" kept for tests
// and exploratory code: it forwards every L2PolicyHooks call to the same
// impl the static dispatch path inlines, so both paths run literally the
// same policy arithmetic (the golden-equivalence test pins this down).
#pragma once

#include "reap/core/policy_impl.hpp"
#include "reap/core/read_path.hpp"

namespace reap::core {

template <class Impl>
class PolicyAdapter final : public ReadPathPolicy {
 public:
  explicit PolicyAdapter(const PolicyContext& ctx) : impl_(ctx) {}

  PolicyKind kind() const override { return Impl::kKind; }
  const EnergyEvents& events() const override { return impl_.events(); }
  void reset_events() override { impl_.reset_events(); }

  void on_read_lookup(sim::CacheSetView set, int hit_way) override {
    impl_.on_read_lookup(set, hit_way);
  }
  void on_write_lookup(sim::CacheSetView set, int hit_way) override {
    impl_.on_write_lookup(set, hit_way);
  }
  void on_fill(sim::CacheSetView set, std::size_t way) override {
    impl_.on_fill(set, way);
  }
  void on_evict(sim::CacheSetView set, std::size_t way, bool dirty) override {
    impl_.on_evict(set, way, dirty);
  }

  // Access to impl-specific surface (restore_failure_prob,
  // scrubs_performed, ...).
  Impl& impl() { return impl_; }
  const Impl& impl() const { return impl_; }

 private:
  Impl impl_;
};

using ConventionalParallelPolicy = PolicyAdapter<ConventionalPolicyImpl>;
using ReapPolicy = PolicyAdapter<ReapPolicyImpl>;
using SerialTagThenDataPolicy = PolicyAdapter<SerialPolicyImpl>;
using DisruptiveRestorePolicy = PolicyAdapter<RestorePolicyImpl>;
using ScrubPiggybackPolicy = PolicyAdapter<ScrubPolicyImpl>;

}  // namespace reap::core
