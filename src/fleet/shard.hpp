// A shard: one contiguous run of canonical slices, simulated locally.
//
// PR 2 fixed the floating-point reduction order by making the *shard* the
// aggregation unit, which made aggregates thread-count-independent but left
// the shard count itself part of the experiment definition. Long-horizon
// checkpoint/restore needs more: a checkpoint written by a 4-shard run must
// restore onto 6 shards (or 1) with bitwise-identical aggregates. The unit
// of determinism is therefore demoted below the shard, to the **slice**:
//
//   * the population is partitioned into `slices` contiguous user ranges
//     (the canonical layout, fixed by configuration and recorded in every
//     checkpoint);
//   * per-period stats are accumulated *per slice* (users walked in
//     ascending id order within a slice) and merged in ascending slice
//     order — the reduction order is a function of the slice layout alone;
//   * deferral rings (the only mutable per-user-range state) live per
//     slice, so a checkpoint can hand any slice's ring to whichever shard
//     owns it after a reshard;
//   * measurement fault domains are slices, so an active FaultPlan fires
//     identically under any shard grouping.
//
// A shard is now purely an *execution* grouping: it owns slices
// [begin_slice, end_slice) and walks them once per period. Any shard count
// from 1 to `slices` — and any thread count — yields bit-identical
// aggregates; a FleetDriver configured with slices == shards reproduces the
// pre-slice behaviour bitwise (one slice per shard is exactly the old
// layout).
//
// Shards never share mutable state: every draw comes from the population's
// per-(user, period) streams and every result lands in the owning slice's
// accumulator stripe, so a period can be simulated by any number of threads
// with bit-identical totals (see aggregator.hpp for the merge discipline).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/arena.hpp"
#include "core/kernel_plan.hpp"
#include "fleet/population.hpp"
#include "math/vector_ops.hpp"

namespace tdp::fleet {

class StripedAggregator;

/// First user of `slice` under the canonical contiguous layout: slice s
/// covers users [slice_user_begin(s), slice_user_begin(s+1)). Pure
/// function of (users, slices) — never of shard or thread counts.
inline std::uint64_t slice_user_begin(std::uint64_t users,
                                      std::size_t slices,
                                      std::size_t slice) {
  return users * static_cast<std::uint64_t>(slice) /
         static_cast<std::uint64_t>(slices);
}

/// Per-class deferral decision table for one period, rebuilt by the driver
/// whenever the published reward schedule changes. For class c and lag
/// t = 1..n-1, `cumulative(c, t)` is the probability a session defers by at
/// most t periods; the residual mass stays put. Each weight is
/// lag_weight(w_c, reward, t, kUniformArrival) bit for bit, formed as
/// gauss_average(C * reward^gamma, t) on the waiting function's node
/// powers; reward^gamma is taken once per target for each distinct
/// (schedule contents, gamma) and shared by the classes that match, so a
/// period costs n-1 pows instead of (n-1) per class (~6 us instead of
/// ~16 us at 10 classes and 48 periods).
class DeferralTable {
 public:
  /// Standard table on the population's own waiting functions.
  DeferralTable(const Population& population,
                const std::vector<const math::Vector*>& schedule_by_class,
                std::size_t period)
      : DeferralTable(population, schedule_by_class, period, nullptr) {}

  /// Drift-aware variant: `waiting_override` (one function per patience
  /// class) replaces the population's waiting functions — the long-horizon
  /// driver feeds functions built from drifted patience indices here.
  DeferralTable(const Population& population,
                const std::vector<const math::Vector*>& schedule_by_class,
                std::size_t period,
                const std::vector<WaitingFunctionPtr>* waiting_override);

  std::size_t periods() const { return periods_; }

  /// Inclusive cumulative deferral probability up to lag t (t >= 1).
  double cumulative(std::uint32_t cls, std::size_t lag) const {
    return cumulative_[cls * periods_ + lag];
  }

  /// Reward per unit of work paid for deferring by lag t (the published
  /// reward of the target period under the class's schedule).
  double reward(std::uint32_t cls, std::size_t lag) const {
    return reward_[cls * periods_ + lag];
  }

  /// Smallest lag (>= 1) with cumulative(cls, lag) > draw — the lag the
  /// linear scan `while (draw >= cumulative(cls, lag)) ++lag` selects, via
  /// a branchless binary search (the predicate compiles to cmov, so the
  /// session loop never mispredicts on the deferral draw). Requires
  /// draw < cumulative(cls, periods() - 1); the caller's stay-threshold
  /// check guarantees it.
  std::size_t find_lag(std::uint32_t cls, double draw) const {
    const double* row = cumulative_.data() + cls * periods_ + 1;
    std::size_t base = 0;
    std::size_t len = periods_ - 1;
    while (len > 1) {
      const std::size_t half = len / 2;
      base += (row[base + half - 1] <= draw) ? half : 0;
      len -= half;
    }
    return base + 1;
  }

  /// Sessions whose raw deferral probabilities summed above one and were
  /// renormalized (only when rewards exceed the validity bound).
  std::size_t probability_clamps() const { return probability_clamps_; }

 private:
  std::size_t periods_;
  std::vector<double> cumulative_;  ///< [cls * periods + lag], lag >= 1
  std::vector<double> reward_;      ///< [cls * periods + lag]
  std::size_t probability_clamps_ = 0;
};

/// One period's totals from one slice (or, after merging, the fleet).
struct PeriodStats {
  double offered_work = 0.0;    ///< fresh pre-deferral work (TIP baseline)
  double realized_work = 0.0;   ///< post-deferral arrivals incl. deferred-in
  double deferred_work = 0.0;   ///< work pushed to later periods
  double reward_paid = 0.0;     ///< reward owed for work deferred *into* now
  std::uint64_t sessions = 0;
  std::uint64_t deferred_sessions = 0;

  PeriodStats& operator+=(const PeriodStats& other);
};

class Shard {
 public:
  /// Owns canonical slices [begin_slice, end_slice) of a `total_slices`
  /// layout. Caches the covered users' traits in SoA arrays (class,
  /// activity, parent RNG stream) so the per-period walk is pure
  /// arithmetic; the cache is a function of user ids only, never of which
  /// shard holds them. All per-user arrays live in a private arena whose
  /// pages are first written here — construct each shard on its owning
  /// worker thread and the pages land on that worker's NUMA node
  /// (first-touch; a no-op on single-node hosts).
  Shard(const Population& population, std::size_t begin_slice,
        std::size_t end_slice, std::size_t total_slices);

  Shard(Shard&&) noexcept = default;
  Shard& operator=(Shard&&) noexcept = default;

  std::size_t begin_slice() const { return begin_slice_; }
  std::size_t end_slice() const { return end_slice_; }
  std::uint64_t begin_user() const { return begin_; }
  std::uint64_t end_user() const { return end_; }
  std::uint64_t users() const { return end_ - begin_; }

  /// Draw one period's sessions without a deferral table: the screen
  /// batch, the Poisson counts, each session's size and its deferral
  /// uniform, in user and session order. Reads only the population (never
  /// the rings), so the control loop draws period t+1 while the pricer
  /// observes period t. The draws are a pure function of (seed, user, day,
  /// period) and are held until simulate_period consumes them.
  void draw_period(std::size_t day, std::size_t period);

  /// What the last draw did: the user-periods that passed the screen, of
  /// them those drawn on the one-session path and those that resumed the
  /// Rng walk (two or more sessions, or a mean of 30 or more), and the
  /// sessions drawn. A function of the draw alone, so every SIMD mode
  /// gives the same counts.
  struct DrawCounts {
    std::uint64_t survivors = 0;
    std::uint64_t one_session = 0;
    std::uint64_t fallbacks = 0;
    std::uint64_t sessions = 0;
  };
  const DrawCounts& draw_counts() const { return draw_counts_; }

  /// Simulate one period of one day, recording one stripe per owned slice
  /// into `aggregator` (race-free: distinct shards own distinct slices):
  /// draw the period unless this shard holds exactly its draws, then
  /// apply the table to them (ring arrivals, stay or defer, ring writes).
  /// Periods must be called in day order (the deferral rings advance once
  /// per call). `day` separates the RNG streams of multi-day runs.
  void simulate_period(std::size_t day, std::size_t period,
                       const DeferralTable& table,
                       StripedAggregator& aggregator);

  // ---- Checkpoint access (slice-granular, reshard-safe) ------------------

  /// Current ring rotation (identical for every slice: rings advance once
  /// per simulated period).
  std::size_t ring_head() const { return ring_head_; }
  void set_ring_head(std::size_t head);

  /// Copy one owned slice's rings out (period-indexed, length periods()).
  void export_slice_rings(std::size_t slice, std::vector<double>& work,
                          std::vector<double>& reward) const;

  /// Install one owned slice's rings (sizes must match the period count).
  void restore_slice_rings(std::size_t slice,
                           const std::vector<double>& work,
                           const std::vector<double>& reward);

 private:
  /// Users per simd::fork_uniform_screen_batch call in the session loop — big
  /// enough to amortize dispatch, small enough that the per-batch scratch
  /// stays in L1 (2 KiB per array). A class index (below
  /// simd::kMaxClasses) fits the held draws' one byte.
  static constexpr std::size_t kBatch = 256;

  const Population* population_;
  std::size_t begin_slice_;
  std::size_t end_slice_;
  std::uint64_t begin_;
  std::uint64_t end_;
  std::vector<std::uint64_t> slice_user_end_;  ///< per owned slice

  /// Backing store for every per-user array below (see ctor comment).
  Arena arena_;
  // SoA user traits, indexed by u - begin_. user_stream_ holds the state
  // of population->user_rng(u): forking the period off it in SIMD batches
  // reproduces user_period_rng(u, p) bitwise.
  std::uint32_t* cls_ = nullptr;
  double* activity_ = nullptr;
  std::uint64_t* user_stream_ = nullptr;
  /// Per-slice deferral rings, [local_slice * periods + slot]: work
  /// arriving `lag` periods ahead and the reward owed with it.
  double* deferred_ring_ = nullptr;
  double* reward_ring_ = nullptr;
  std::size_t ring_slots_ = 0;
  std::size_t ring_head_ = 0;

  /// The held draws (draw_period): per session its work, deferral uniform
  /// and class, in walk order; per owned slice its offered work and end
  /// index into the session arrays. `drawn_` is the absolute period they
  /// belong to, kNoDraws once applied.
  static constexpr std::uint64_t kNoDraws = ~std::uint64_t{0};
  struct SliceDraws {
    double offered_work = 0.0;
    std::size_t end = 0;
  };
  std::vector<double> session_work_;
  std::vector<double> session_draw_;
  std::vector<std::uint8_t> session_class_;
  std::vector<SliceDraws> slice_draws_;
  std::uint64_t drawn_ = kNoDraws;
  DrawCounts draw_counts_;
};

}  // namespace tdp::fleet
