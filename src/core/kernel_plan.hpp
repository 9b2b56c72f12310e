// Fused structure-of-arrays evaluation plan for the deferral kernel.
//
// The reference DeferralKernel walks per-period session-class lists through
// PowerLawWaitingFunction::value calls for every pair_volume / inflow /
// outflow query — O(n^2 * classes) transcendental calls per objective
// evaluation, eight per pair under uniform arrivals. The KernelPlan
// flattens one demand snapshot into contiguous arrays:
//
//   terms:      per source period, (waiting-function id, volume) pairs in
//               class order — one flat array indexed by period_begin_;
//   functions:  the distinct waiting-function objects, whose own lag
//               powers (pow(lag+1, -beta), or the 8 Gauss-node powers
//               under kUniformArrival) the cells read.
//
// evaluate() then fills the full pair-volume matrix for all n reward
// columns in one blocked pass: one pow per (function, column) instead of
// one per (class, pair), and a fixed summation order chosen to match the
// reference path operation for operation. The contract is *bitwise*
// identity: every double produced here EXPECT_EQs the corresponding
// DeferralKernel result (see tests/test_kernel_plan.cpp).
//
// update_coordinate() is the rolling-horizon fast path: when only period
// m's reward changes, it refreshes column m of the cached matrix (O(n)
// waiting-function evaluations) and re-derives the flow sums from cached
// values in the reference summation order (O(n^2) adds: every row's
// outflow includes column m), so the refreshed FlowState is bit-identical
// to a from-scratch evaluate() at the new reward vector.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/deferral_kernel.hpp"
#include "core/waiting_function.hpp"

namespace tdp {

class KernelPlan;

/// Mutable evaluation scratch: the cached pair-volume matrix and the flow
/// sums derived from it. Owned by the caller (models keep one per solver
/// loop) so repeated evaluations are allocation-free. Fill with
/// KernelPlan::evaluate, refresh single columns with update_coordinate.
struct FlowState {
  std::vector<double> rewards;           ///< reward column per period
  std::vector<double> pair;              ///< V[from * n + to]
  std::vector<double> pair_derivative;   ///< dV/dp_to[from * n + to]
  std::vector<double> inflow;            ///< sum_from V[from][i]
  std::vector<double> inflow_derivative; ///< sum_from dV[from][i]
  std::vector<double> outflow;           ///< sum_to V[i][to]
  bool has_derivatives = false;
  const KernelPlan* plan = nullptr;      ///< set by evaluate(); guards reuse
  /// The plan's unique serial, checked alongside the pointer so a stale
  /// pointer whose allocation was reused by a newer plan never passes for
  /// a primed state.
  std::uint64_t plan_serial = 0;
  /// Serial of the linear plan whose unit table pair_derivative holds (0
  /// when it holds reward-dependent values): a linear kernel's derivative
  /// matrix does not depend on the rewards, so it is written once.
  std::uint64_t derivative_serial = 0;

  /// Per-distinct-function factor scratch used inside fill_column.
  std::vector<double> wf_factor;
  std::vector<double> wf_factor_derivative;

  /// Model-level assembly scratch (usage / arrivals / backlog and
  /// sensitivity rows), so fused cost evaluations stay allocation-free.
  std::vector<double> aux_a;
  std::vector<double> aux_b;
  std::vector<double> aux_c;
};

class KernelPlan {
 public:
  /// Snapshots the kernel's demand mix. The plan copies everything it needs
  /// (and keeps the waiting functions alive); the kernel may be destroyed.
  explicit KernelPlan(const DeferralKernel& kernel);

  std::size_t periods() const { return periods_; }
  LagConvention convention() const { return convention_; }
  bool linear() const { return linear_; }

  /// Process-unique construction serial (see FlowState::plan_serial).
  std::uint64_t serial() const { return serial_; }

  /// Fill `state` for the full reward vector: the pair matrix, inflow and
  /// outflow sums, and (optionally) the derivative matrix and inflow
  /// derivative sums. Resizes the scratch on first use.
  void evaluate(const std::vector<double>& rewards, bool with_derivatives,
                FlowState& state) const;

  /// Refresh `state` after changing only coordinate m's reward: recomputes
  /// column m (O(periods) function evaluations) and re-derives the affected
  /// flow sums from cached pair volumes in the reference summation order
  /// (O(periods^2) adds, since every row's outflow sums column m).
  /// Requires a prior evaluate() on this plan; `with_derivatives` must not
  /// exceed what that evaluate computed. Postcondition: `state` is bitwise
  /// identical to evaluate() at the updated reward vector.
  void update_coordinate(std::size_t m, double reward, bool with_derivatives,
                         FlowState& state) const;

 private:
  void fill_column(std::size_t to, double reward, bool with_derivatives,
                   FlowState& state) const;
  /// The linear path's full fill: the pair matrix row by row from the unit
  /// table, and the derivative matrix (the unit table) unless `state`
  /// already holds this plan's.
  void fill_linear(bool with_derivatives, FlowState& state) const;
  /// One linear pair volume: the unit volume scaled by the reward, and 0
  /// for a nonpositive reward.
  static double linear_cell(double unit, double reward) {
    return reward <= 0.0 ? 0.0 : unit * reward;
  }
  /// One (from, to) slot of fill_column: accumulates period `from`'s terms
  /// in class order and stores V / dV.
  void fill_cell(std::size_t from, std::size_t to, std::size_t lag,
                 bool positive, bool with_derivatives,
                 FlowState& state) const;
  void reduce_inflow(std::size_t into, bool with_derivatives,
                     FlowState& state) const;
  /// outflow[from] for every row: lane-parallel over rows, each row in the
  /// reference's ascending-`to` order with the diagonal skipped.
  void reduce_outflows(FlowState& state) const;

#if defined(TDP_HAVE_AVX2)
  /// Vectorized reduce_inflow for four consecutive `into` columns: lanes
  /// are independent column sums in the scalar's ascending-`from` order;
  /// the diagonal (from == into) is skipped per lane with a blend, never
  /// by adding 0.0.
  void reduce_inflow4_avx2(std::size_t into0, bool with_derivatives,
                           FlowState& state) const;
  /// Vectorized fill_linear pair rows: four consecutive `to` cells per
  /// iteration, each lane the scalar linear_cell.
  void fill_linear_avx2(FlowState& state) const;
#endif

  std::size_t periods_ = 0;
  LagConvention convention_ = LagConvention::kPeriodStart;
  bool linear_ = false;
  std::uint64_t serial_ = 0;

  std::vector<WaitingFunctionPtr> functions_;  ///< distinct, first-use order
  std::vector<std::uint32_t> term_wf_;   ///< function id per term
  std::vector<double> term_volume_;      ///< volume per term
  std::vector<std::size_t> period_begin_;  ///< term range per period, n+1

  /// Linear fast path: unit-reward tables copied from the kernel.
  std::vector<double> unit_;
  std::vector<double> unit_inflow_;
};

}  // namespace tdp
