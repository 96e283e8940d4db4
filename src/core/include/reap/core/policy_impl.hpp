// Concrete, non-virtual read-path policy implementations: the compile-time
// dispatch targets the experiment engine instantiates the cache/hierarchy
// access path over. See read_path.hpp for the policy taxonomy.
//
// Each impl has the sim hooks shape (on_read_lookup / on_write_lookup /
// on_fill / on_evict) plus events(). Shared write/fill/evict bookkeeping
// lives in PolicyImplBase, a CRTP base so the eviction path reaches the
// derived check_failure without a vtable.
//
// Loops that only bump accumulation counters go through
// CacheSetView::accumulate_valid — a whole-set kernel (sim/simd.hpp) over
// the padded columns. Loops that append ledger entries per way keep the
// branchy form: the ledger's floating-point sum and histogram sequence
// must stay in exact way order.
#pragma once

#include <variant>

#include "reap/common/assert.hpp"
#include "reap/core/read_path.hpp"
#include "reap/reliability/binomial.hpp"
#include "reap/sim/cache.hpp"

namespace reap::core {

template <class Derived>
class PolicyImplBase {
 public:
  explicit PolicyImplBase(const PolicyContext& ctx) : ctx_(ctx) {
    REAP_EXPECTS(ctx.model != nullptr);
    REAP_EXPECTS(ctx.ledger != nullptr);
    REAP_EXPECTS(ctx.ways >= 1);
  }

  const EnergyEvents& events() const { return events_; }
  void reset_events() { events_ = EnergyEvents{}; }

  void on_write_lookup(sim::CacheSetView set, int hit_way) {
    (void)set;
    ++events_.lookups;
    ++events_.tag_reads;
    if (hit_way >= 0) {
      // The hit way's data (and its freshly-encoded ECC) is rewritten; the
      // cache clears reads_since_check after this hook (and keeps ones:
      // the count is a function of the block, not of the write).
      ++events_.way_data_writes;
      ++events_.ecc_encodes;
      ++events_.tag_writes;  // dirty-bit / LRU state update
    }
  }

  void on_fill(sim::CacheSetView, std::size_t) {
    ++events_.way_data_writes;
    ++events_.ecc_encodes;
    ++events_.tag_writes;
  }

  void on_evict(sim::CacheSetView set, std::size_t way, bool dirty) {
    if (!ctx_.check_on_dirty_eviction || !dirty) return;
    // Extension: the victim is read out through the ECC path before its
    // writeback, which both costs a decode and realizes any accumulated
    // uncorrectable state.
    ++events_.ecc_decodes;
    ++events_.way_data_reads;
    sim::LineRel& rel = set.rel(way);
    ctx_.ledger->record_unattributed(
        derived().check_failure(set.ones(way), rel.reads_since_check));
    rel.reads_since_check = 0;
  }

 protected:
  const Derived& derived() const {
    return static_cast<const Derived&>(*this);
  }

  // The Fig. 2 lookup shape: every way sensed in parallel, only the hit
  // way ECC-checked with Eq. (3)'s accumulated window. Shared by
  // ConventionalPolicyImpl and ScrubPolicyImpl's non-scrub accesses.
  void conventional_read_lookup(sim::CacheSetView set, int hit_way) {
    ++events_.lookups;
    ++events_.tag_reads;
    // Fast-access mode: every way's data is read in parallel with the tag
    // compare, hit or miss.
    events_.way_data_reads += set.size();

    // Every valid way's data is sensed; count the read on all of them,
    // then rewind the hit way, whose read is checked, not concealed.
    set.accumulate_valid();

    if (hit_way >= 0) {
      // The requested way goes through the single ECC decoder. Its failure
      // probability reflects the disturbance accumulated over the
      // concealed reads since its last check, plus this read (Eq. 3's N).
      ++events_.ecc_decodes;
      const auto way = static_cast<std::size_t>(hit_way);
      sim::LineRel& line = set.rel(way);
      const std::uint64_t concealed = line.reads_since_check - 1;
      ctx_.ledger->record_check(
          concealed, ctx_.model->conventional(set.ones(way), concealed + 1));
      line.reads_since_check = 0;  // checked (and scrubbed) now
    }
  }

  PolicyContext ctx_;
  EnergyEvents events_;
};

// Fig. 2: parallel access, single ECC decoder after the way MUX.
class ConventionalPolicyImpl final
    : public PolicyImplBase<ConventionalPolicyImpl> {
 public:
  static constexpr PolicyKind kKind = PolicyKind::conventional_parallel;
  using PolicyImplBase::PolicyImplBase;

  void on_read_lookup(sim::CacheSetView set, int hit_way) {
    conventional_read_lookup(set, hit_way);
  }

  double check_failure(std::uint32_t ones, std::uint64_t concealed) const {
    return ctx_.model->conventional(ones, concealed + 1);
  }
};

// Fig. 4: parallel access, k ECC decoders before the way MUX (the paper's
// proposal).
class ReapPolicyImpl final : public PolicyImplBase<ReapPolicyImpl> {
 public:
  static constexpr PolicyKind kKind = PolicyKind::reap;
  using PolicyImplBase::PolicyImplBase;

  void on_read_lookup(sim::CacheSetView set, int hit_way) {
    ++events_.lookups;
    ++events_.tag_reads;
    events_.way_data_reads += set.size();
    // One decoder per way: all of them fire on every read access (Fig. 4).
    events_.ecc_decodes += set.size();

    // The counter still advances on concealed reads so Eq. (6)'s N is
    // known at the next real read; the physical scrub is what
    // distinguishes this from the conventional counter (the formula, not
    // the bookkeeping, changes).
    set.accumulate_valid();

    if (hit_way >= 0) {
      // Every read since the last delivery was individually checked and
      // scrubbed; correct delivery requires all N per-read checks to have
      // passed (Eq. 6).
      const auto way = static_cast<std::size_t>(hit_way);
      sim::LineRel& line = set.rel(way);
      const std::uint64_t concealed = line.reads_since_check - 1;
      ctx_.ledger->record_check(concealed,
                                ctx_.model->reap(set.ones(way), concealed + 1));
      line.reads_since_check = 0;
    }
  }

  double check_failure(std::uint32_t ones, std::uint64_t concealed) const {
    return ctx_.model->reap(ones, concealed + 1);
  }
};

// Sec. IV approach (1): read the data way only after the tag compare.
class SerialPolicyImpl final : public PolicyImplBase<SerialPolicyImpl> {
 public:
  static constexpr PolicyKind kKind = PolicyKind::serial_tag_then_data;
  using PolicyImplBase::PolicyImplBase;

  void on_read_lookup(sim::CacheSetView set, int hit_way) {
    ++events_.lookups;
    ++events_.tag_reads;
    if (hit_way < 0) return;  // miss costs only the tag compare

    // Only the matching way is ever read, after the compare: no concealed
    // reads exist anywhere, so every check sees N = 1.
    const auto way = static_cast<std::size_t>(hit_way);
    ++events_.way_data_reads;
    ++events_.ecc_decodes;
    REAP_ASSERT(set.rel(way).reads_since_check == 0);
    ctx_.ledger->record_check(0, ctx_.model->single(set.ones(way)));
  }

  double check_failure(std::uint32_t ones, std::uint64_t) const {
    return ctx_.model->single(ones);
  }
};

// Refs [14][15]: parallel access with a restore write after every read of
// every way. Removes accumulation without extra decoders, but each restore
// can fail as a write and burns write energy -- the trade-off the paper
// criticizes.
class RestorePolicyImpl final : public PolicyImplBase<RestorePolicyImpl> {
 public:
  static constexpr PolicyKind kKind = PolicyKind::disruptive_restore;

  explicit RestorePolicyImpl(const PolicyContext& ctx) : PolicyImplBase(ctx) {
    REAP_EXPECTS(ctx.write_fail_per_cell >= 0.0 &&
                 ctx.write_fail_per_cell < 1.0);
    // A restore rewrites the whole codeword; the line fails when more
    // write errors land than the code corrects.
    p_restore_fail_ = reliability::p_uncorrectable(
        ctx.codeword_bits, ctx.model->t(), ctx.write_fail_per_cell);
  }

  double restore_failure_prob() const { return p_restore_fail_; }

  void on_read_lookup(sim::CacheSetView set, int hit_way) {
    ++events_.lookups;
    ++events_.tag_reads;
    events_.way_data_reads += set.size();

    // Branchy on purpose: every valid way appends a ledger entry, and the
    // ledger sum must accumulate in exact way order.
    for (int w = 0; w < static_cast<int>(set.size()); ++w) {
      const auto way = static_cast<std::size_t>(w);
      if (!set.valid(way)) continue;
      sim::LineRel& line = set.rel(way);
      // Restore-after-read: the sensed value (captured before the
      // disturbance manifests) is immediately written back, so no
      // accumulation survives -- but the restore write itself can fail.
      ++events_.way_data_writes;
      if (w == hit_way) {
        ++events_.ecc_decodes;
        ctx_.ledger->record_check(line.reads_since_check,
                                  ctx_.model->single(set.ones(way)) +
                                      p_restore_fail_);
      } else {
        ctx_.ledger->record_unattributed(p_restore_fail_);
      }
      line.reads_since_check = 0;
    }
  }

  double check_failure(std::uint32_t ones, std::uint64_t) const {
    return ctx_.model->single(ones);
  }

 private:
  double p_restore_fail_;  // P(> t write failures in one restored codeword)
};

// Extension: conventional read path + periodic piggyback scrubbing. Every
// scrub_every-th read lookup behaves like a REAP access for its set (all
// ways checked and scrubbed); all other lookups are plain conventional.
// Interpolates between the two designs at proportional decode energy.
class ScrubPolicyImpl final : public PolicyImplBase<ScrubPolicyImpl> {
 public:
  static constexpr PolicyKind kKind = PolicyKind::scrub_piggyback;

  explicit ScrubPolicyImpl(const PolicyContext& ctx)
      : PolicyImplBase(ctx), countdown_(ctx.scrub_every) {
    REAP_EXPECTS(ctx.scrub_every >= 1);
  }

  std::uint64_t scrubs_performed() const { return scrubs_; }

  void on_read_lookup(sim::CacheSetView set, int hit_way) {
    const bool scrub_now = --countdown_ == 0;
    if (!scrub_now) {
      conventional_read_lookup(set, hit_way);
      return;
    }

    ++events_.lookups;
    ++events_.tag_reads;
    events_.way_data_reads += set.size();
    countdown_ = ctx_.scrub_every;
    ++scrubs_;
    // Scrub access: every way's window closes with a full check, so the
    // ledger sees one entry per valid way — keep exact way order.
    for (int w = 0; w < static_cast<int>(set.size()); ++w) {
      ++events_.ecc_decodes;  // decoder fires even on invalid ways
      const auto way = static_cast<std::size_t>(w);
      if (!set.valid(way)) continue;
      sim::LineRel& line = set.rel(way);
      // The requested way is always checked (conventional behaviour), its
      // window accumulated since the last check or scrub (Eq. 3). A
      // scrubbed concealed way's window ends here with a full check too,
      // so its accumulated risk is realized now instead of at the next
      // real read (same Eq. 3 window, just closed early).
      const std::uint64_t concealed = line.reads_since_check;
      ctx_.ledger->record_check(
          concealed, ctx_.model->conventional(set.ones(way), concealed + 1));
      line.reads_since_check = 0;
    }
  }

  double check_failure(std::uint32_t ones, std::uint64_t concealed) const {
    return ctx_.model->conventional(ones, concealed + 1);
  }

 private:
  std::uint64_t countdown_;
  std::uint64_t scrubs_ = 0;
};

// One of the five impls, chosen at run time: the single point where a
// runtime PolicyKind becomes a compile-time type. visit() switches on the
// kind (a predictable branch per call, like the trace generator's pattern
// dispatch) and invokes fn with the concrete impl, so each lane of a
// simulation pass runs the impl's inlined code without per-combination
// template instantiations. Every caller's fn must return the same type for
// all impls.
class AnyPolicyImpl {
 public:
  AnyPolicyImpl(PolicyKind kind, const PolicyContext& ctx)
      : kind_(kind), impl_(make(kind, ctx)) {}

  template <class Fn>
  decltype(auto) visit(Fn&& fn) {
    switch (kind_) {
      case PolicyKind::conventional_parallel:
        return fn(*std::get_if<ConventionalPolicyImpl>(&impl_));
      case PolicyKind::reap:
        return fn(*std::get_if<ReapPolicyImpl>(&impl_));
      case PolicyKind::serial_tag_then_data:
        return fn(*std::get_if<SerialPolicyImpl>(&impl_));
      case PolicyKind::disruptive_restore:
        return fn(*std::get_if<RestorePolicyImpl>(&impl_));
      case PolicyKind::scrub_piggyback:
        break;
    }
    return fn(*std::get_if<ScrubPolicyImpl>(&impl_));
  }

 private:
  using Variant = std::variant<ConventionalPolicyImpl, ReapPolicyImpl,
                               SerialPolicyImpl, RestorePolicyImpl,
                               ScrubPolicyImpl>;

  static Variant make(PolicyKind kind, const PolicyContext& ctx) {
    switch (kind) {
      case PolicyKind::conventional_parallel:
        return Variant(std::in_place_type<ConventionalPolicyImpl>, ctx);
      case PolicyKind::reap:
        return Variant(std::in_place_type<ReapPolicyImpl>, ctx);
      case PolicyKind::serial_tag_then_data:
        return Variant(std::in_place_type<SerialPolicyImpl>, ctx);
      case PolicyKind::disruptive_restore:
        return Variant(std::in_place_type<RestorePolicyImpl>, ctx);
      case PolicyKind::scrub_piggyback:
        break;
    }
    REAP_EXPECTS(kind == PolicyKind::scrub_piggyback);
    return Variant(std::in_place_type<ScrubPolicyImpl>, ctx);
  }

  PolicyKind kind_;
  Variant impl_;
};

}  // namespace reap::core
