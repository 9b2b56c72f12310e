#include "core/kernel_plan.hpp"

#include <atomic>
#include <cmath>
#include <unordered_map>

#include "common/error.hpp"
#include "common/simd.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace tdp {

KernelPlan::KernelPlan(const DeferralKernel& kernel)
    : periods_(kernel.periods()),
      convention_(kernel.convention()),
      linear_(kernel.linear()) {
  TDP_OBS_SPAN("kernel.plan_build");
  {
    static obs::Counter& builds =
        obs::Registry::global().counter("kernel.plan_builds_total");
    builds.add(1);
  }
  static std::atomic<std::uint64_t> next_serial{1};
  serial_ = next_serial.fetch_add(1, std::memory_order_relaxed);
  const std::size_t n = periods_;
  TDP_REQUIRE(n >= 2, "need at least two periods");

  if (linear_) {
    // Linear kernels evaluate through the unit-reward tables alone; the
    // flattened terms below would never be read.
    unit_ = kernel.unit_table();
    unit_inflow_ = kernel.unit_inflow_table();
    return;
  }

  // Flatten the class lists, registering each distinct waiting function
  // once. Term order within a period matches class order — the reference
  // path's accumulation order.
  std::unordered_map<const PowerLawWaitingFunction*, std::uint32_t> ids;
  period_begin_.assign(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    period_begin_[i] = term_wf_.size();
    for (const SessionClass& sc : kernel.classes(i)) {
      auto [it, inserted] = ids.emplace(
          sc.waiting.get(), static_cast<std::uint32_t>(functions_.size()));
      if (inserted) functions_.push_back(sc.waiting);
      term_wf_.push_back(it->second);
      term_volume_.push_back(sc.volume);
    }
  }
  period_begin_[n] = term_wf_.size();
}

void KernelPlan::fill_column(std::size_t to, double reward,
                             bool with_derivatives, FlowState& s) const {
  const std::size_t n = periods_;
  if (linear_) {
    // dV is the reward-independent unit table evaluate() already wrote.
    double* V = s.pair.data();
    for (std::size_t from = 0; from < n; ++from) {
      if (from == to) continue;
      V[from * n + to] = linear_cell(unit_[from * n + to], reward);
    }
    return;
  }

  // Reward factors shared by every slot in this column, as value() and
  // reward_derivative() form them: one pow per distinct function instead
  // of one per (class, pair).
  const bool positive = reward > 0.0;
  double* factor = s.wf_factor.data();
  double* dfactor = s.wf_factor_derivative.data();
  for (std::size_t w = 0; w < functions_.size(); ++w) {
    const PowerLawWaitingFunction& wf = *functions_[w];
    const double norm = wf.normalization();
    const double gamma = wf.gamma();
    if (positive) factor[w] = norm * std::pow(reward, gamma);
    if (with_derivatives) {
      double r = reward < 0.0 ? 0.0 : reward;
      if (gamma == 1.0) {
        dfactor[w] = norm;
      } else {
        if (r == 0.0) r = 1e-12;
        dfactor[w] = norm * gamma * std::pow(r, gamma - 1.0);
      }
    }
  }

  // The cyclic lag is to - from above the diagonal and n - (from - to)
  // below it.
  for (std::size_t from = 0; from < to; ++from) {
    fill_cell(from, to, to - from, positive, with_derivatives, s);
  }
  for (std::size_t from = to + 1; from < n; ++from) {
    fill_cell(from, to, n - (from - to), positive, with_derivatives, s);
  }
}

void KernelPlan::fill_linear(bool with_derivatives, FlowState& s) const {
  const std::size_t n = periods_;
  // dV is the unit table itself (its diagonal is 0.0), whatever the
  // rewards: copied once per state and plan, not once per evaluation.
  if (with_derivatives && s.derivative_serial != serial_) {
    s.pair_derivative = unit_;
    s.derivative_serial = serial_;
  }
  // fill_column's cells row by row: every cell is written, the diagonal
  // with the 0.0 a zero-filled matrix would hold, so no fill pass precedes.
  s.pair.resize(n * n);
#if defined(TDP_HAVE_AVX2)
  if (simd::mode() == simd::Mode::kAvx2) {
    fill_linear_avx2(s);
    return;
  }
#endif
  const double* rewards = s.rewards.data();
  for (std::size_t from = 0; from < n; ++from) {
    const double* unit = &unit_[from * n];
    double* row = &s.pair[from * n];
    for (std::size_t to = 0; to < n; ++to) {
      row[to] = linear_cell(unit[to], rewards[to]);
    }
    row[from] = 0.0;
  }
}

void KernelPlan::fill_cell(std::size_t from, std::size_t to, std::size_t lag,
                           bool positive, bool with_derivatives,
                           FlowState& s) const {
  const std::size_t n = periods_;
  double* V = s.pair.data();
  double* dV = s.pair_derivative.data();
  const double* factor = s.wf_factor.data();
  const double* dfactor = s.wf_factor_derivative.data();
  const bool uniform = convention_ == LagConvention::kUniformArrival;
  double vol = 0.0;
  double dvol = 0.0;
  const std::size_t end = period_begin_[from + 1];
  for (std::size_t t = period_begin_[from]; t < end; ++t) {
    const std::uint32_t w = term_wf_[t];
    const double v = term_volume_[t];
    const PowerLawWaitingFunction& wf = *functions_[w];
    if (uniform) {
      if (positive) vol += v * wf.gauss_average(factor[w], lag);
      if (with_derivatives) dvol += v * wf.gauss_average(dfactor[w], lag);
    } else {
      const double lp = wf.lag_power(lag);
      if (positive) vol += v * (factor[w] * lp);
      if (with_derivatives) dvol += v * (dfactor[w] * lp);
    }
  }
  // pair_volume returns 0 outright for nonpositive rewards; the
  // derivative has no such early exit.
  V[from * n + to] = positive ? vol : 0.0;
  if (with_derivatives) dV[from * n + to] = dvol;
}

void KernelPlan::reduce_inflow(std::size_t into, bool with_derivatives,
                               FlowState& s) const {
  const std::size_t n = periods_;
  const double reward = s.rewards[into];
  if (linear_) {
    s.inflow[into] = reward <= 0.0 ? 0.0 : unit_inflow_[into] * reward;
    if (with_derivatives) s.inflow_derivative[into] = unit_inflow_[into];
    return;
  }
  double total = 0.0;
  for (std::size_t from = 0; from < n; ++from) {
    if (from == into) continue;
    total += s.pair[from * n + into];
  }
  s.inflow[into] = reward <= 0.0 ? 0.0 : total;
  if (with_derivatives) {
    double dtotal = 0.0;
    for (std::size_t from = 0; from < n; ++from) {
      if (from == into) continue;
      dtotal += s.pair_derivative[from * n + into];
    }
    s.inflow_derivative[into] = dtotal;
  }
}

void KernelPlan::reduce_outflows(FlowState& s) const {
  const std::size_t n = periods_;
  const double* P = s.pair.data();
  double* out = s.outflow.data();
  // Four rows at a time as independent lanes, so the four add chains
  // overlap instead of one row's chain waiting on the last. Each lane still
  // sums its row in ascending-`to` order from 0.0 and skips its diagonal
  // cell rather than adding it as 0.0: bitwise the one-row sum.
  std::size_t from = 0;
  for (; from + 4 <= n; from += 4) {
    const double* r0 = P + from * n;
    const double* r1 = r0 + n;
    const double* r2 = r1 + n;
    const double* r3 = r2 + n;
    double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
    for (std::size_t to = 0; to < from; ++to) {
      a0 += r0[to];
      a1 += r1[to];
      a2 += r2[to];
      a3 += r3[to];
    }
    for (std::size_t to = from; to < from + 4; ++to) {  // the diagonal block
      if (to != from) a0 += r0[to];
      if (to != from + 1) a1 += r1[to];
      if (to != from + 2) a2 += r2[to];
      if (to != from + 3) a3 += r3[to];
    }
    for (std::size_t to = from + 4; to < n; ++to) {
      a0 += r0[to];
      a1 += r1[to];
      a2 += r2[to];
      a3 += r3[to];
    }
    out[from] = a0;
    out[from + 1] = a1;
    out[from + 2] = a2;
    out[from + 3] = a3;
  }
  for (; from < n; ++from) {
    double total = 0.0;
    for (std::size_t to = 0; to < n; ++to) {
      if (to != from) total += P[from * n + to];
    }
    out[from] = total;
  }
}

void KernelPlan::evaluate(const std::vector<double>& rewards,
                          bool with_derivatives, FlowState& s) const {
  const std::size_t n = periods_;
  TDP_REQUIRE(rewards.size() == n, "reward vector size mismatch");
  s.plan = this;
  s.plan_serial = serial_;
  s.has_derivatives = with_derivatives;
  s.rewards = rewards;
  s.inflow.assign(n, 0.0);
  s.outflow.assign(n, 0.0);
  if (with_derivatives) s.inflow_derivative.assign(n, 0.0);
  if (linear_) {
    fill_linear(with_derivatives, s);
  } else {
    s.pair.assign(n * n, 0.0);
    if (with_derivatives) {
      s.pair_derivative.assign(n * n, 0.0);
      s.derivative_serial = 0;
    }
    s.wf_factor.resize(functions_.size());
    s.wf_factor_derivative.resize(functions_.size());
    for (std::size_t to = 0; to < n; ++to) {
      fill_column(to, rewards[to], with_derivatives, s);
    }
  }
  std::size_t i = 0;
#if defined(TDP_HAVE_AVX2)
  // Four column sums at a time over the freshly filled pair matrix; each
  // lane keeps the scalar reduction order. The linear path's inflow is a
  // table lookup, not a matrix reduction — leave it scalar.
  if (!linear_ && simd::mode() == simd::Mode::kAvx2) {
    for (; i + 4 <= n; i += 4) reduce_inflow4_avx2(i, with_derivatives, s);
  }
#endif
  for (; i < n; ++i) reduce_inflow(i, with_derivatives, s);
  reduce_outflows(s);
}

void KernelPlan::update_coordinate(std::size_t m, double reward,
                                   bool with_derivatives,
                                   FlowState& s) const {
  TDP_REQUIRE(s.plan == this && s.plan_serial == serial_,
              "FlowState not primed for this plan (call evaluate first)");
  TDP_REQUIRE(m < periods_, "period out of range");
  TDP_REQUIRE(!with_derivatives || s.has_derivatives,
              "state was primed without derivatives");
  // Keep every cached array coherent: refresh derivatives whenever the
  // priming evaluate computed them, so the postcondition (bitwise equal to
  // a full evaluate) holds for the whole state.
  const bool wd = s.has_derivatives;
  s.rewards[m] = reward;
  fill_column(m, reward, wd, s);
  reduce_inflow(m, wd, s);
  // inflow for i != m depends only on column i — unchanged. Every other
  // row's outflow sums the refreshed column, so the rows are re-reduced
  // over cached values in the reference order; row m, which excludes
  // column m, reproduces its cached sum bit for bit.
  reduce_outflows(s);
}

}  // namespace tdp
