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
// evaluate() then fills the pair-volume matrix one reward column at a
// time: one pow per (function, column) instead of one per (class, pair),
// and a fixed summation order chosen to match the reference path operation
// for operation. The matrix is stored column-major (FlowState::pair), so a
// column is one contiguous run; its inflow is summed while the column is
// written, and every row's outflow is reduced by one SIMD lane per row
// walking the columns in ascending order (simd::off_diagonal_sums, the
// reduction a linear kernel's unit inflow also runs). The contract is
// *bitwise* identity: every double produced here EXPECT_EQs the
// corresponding DeferralKernel result (see tests/test_kernel_plan.cpp).
//
// update_coordinate() is the rolling-horizon fast path: when only period
// m's reward changes, it rewrites column m of the cached matrix (O(n)
// waiting-function evaluations) and re-reduces every row's outflow from
// cached values in the reference summation order (O(n^2) adds: every row's
// outflow includes column m), so the refreshed FlowState is bit-identical
// to a from-scratch evaluate() at the new reward vector.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/deferral_kernel.hpp"
#include "core/waiting_function.hpp"

namespace tdp {

class KernelPlan;

/// Mutable evaluation scratch: the cached pair-volume matrix and the flow
/// sums derived from it. Owned by the caller (models keep one per solver
/// loop) so repeated evaluations are allocation-free. Fill with
/// KernelPlan::evaluate, refresh single columns with update_coordinate.
///
/// The two matrices have opposite layouts, each the one its readers walk:
/// `pair` is column-major, so a coordinate update rewrites one contiguous
/// column and the outflow lanes load four adjacent rows of a column at
/// once; `pair_derivative` is row-major, so the dynamic model's backlog
/// sensitivities read Jacobian row i as one contiguous run. Both hold 0.0
/// on the diagonal.
struct FlowState {
  std::vector<double> rewards;           ///< reward column per period
  std::vector<double> pair;              ///< V[to * n + from]
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

  /// Model-level assembly scratch (usage / arrivals / backlog, the
  /// sensitivity lanes and each period's hinge slopes), so fused cost
  /// evaluations stay allocation-free.
  std::vector<double> aux_a;
  std::vector<double> aux_b;
  std::vector<double> aux_c;
  std::vector<double> aux_d;
};

class KernelPlan {
 public:
  /// Snapshots the kernel's demand mix. The plan keeps what it reads alive
  /// (the waiting functions, or a linear kernel's unit tables, which it
  /// shares); the kernel may be destroyed.
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

  /// Refresh `state` after changing only coordinate m's reward: rewrites
  /// column m and its inflow (O(periods) function evaluations) and
  /// re-reduces the outflows from cached pair volumes in the reference
  /// summation order (O(periods^2) adds, since every row's outflow sums
  /// column m).
  /// Requires a prior evaluate() on this plan; `with_derivatives` must not
  /// exceed what that evaluate computed. Postcondition: `state` is bitwise
  /// identical to evaluate() at the updated reward vector.
  void update_coordinate(std::size_t m, double reward, bool with_derivatives,
                         FlowState& state) const;

 private:
  /// Columns [first, last) of a linear plan: every cell the unit volume
  /// scaled by its column's reward (0.0 for a nonpositive reward), the
  /// diagonal 0.0, and each column's inflow (and inflow derivative) from
  /// the unit column sums.
  void scale_unit_columns(std::size_t first, std::size_t last,
                          bool with_derivatives, FlowState& state) const;
  /// Column `to` of a nonlinear plan: the pair matrix's column (its
  /// diagonal cell 0.0), that column's inflow, and with derivatives
  /// column `to` of the derivative matrix and its inflow derivative. The
  /// inflow sums the column's cells as they are written: ascending `from`,
  /// the diagonal skipped, as the reference's inflow does.
  void fill_column(std::size_t to, double reward, bool with_derivatives,
                   FlowState& state) const;
  /// One off-diagonal cell of a nonlinear column: period `from`'s terms at
  /// cyclic lag `lag`, accumulated in class order. Returns the volume (0.0
  /// unless `positive`) and, with derivatives, stores its reward derivative
  /// in `derivative`.
  double cell(std::size_t from, std::size_t lag, bool positive,
              bool with_derivatives, const FlowState& state,
              double& derivative) const;
  /// outflow[from] for every row (simd::off_diagonal_sums over the
  /// column-major pair matrix): each row summed from 0.0 in ascending `to`
  /// with the diagonal cell skipped, never added as 0.0 — the reference's
  /// outflow order.
  void reduce_outflows(FlowState& state) const;

#if defined(TDP_HAVE_AVX2)
  /// scale_unit_columns' cells four rows at a time, each lane the scalar
  /// product.
  void scale_unit_columns_avx2(std::size_t first, std::size_t last,
                               FlowState& state) const;
#endif

  std::size_t periods_ = 0;
  LagConvention convention_ = LagConvention::kPeriodStart;
  bool linear_ = false;
  std::uint64_t serial_ = 0;

  std::vector<WaitingFunctionPtr> functions_;  ///< distinct, first-use order
  std::vector<std::uint32_t> term_wf_;   ///< function id per term
  std::vector<double> term_volume_;      ///< volume per term
  std::vector<std::size_t> period_begin_;  ///< term range per period, n+1

  /// Linear fast path: the kernel's unit-reward tables, shared, not
  /// copied — the pair table row-major (the derivative matrix itself) and
  /// column-major (what a column of the pair matrix scales), and its
  /// column sums. Null for a nonlinear plan.
  std::shared_ptr<const UnitTables> unit_;
};

}  // namespace tdp
