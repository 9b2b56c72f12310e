#include "core/kernel_plan.hpp"

#include <algorithm>
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
    unit_ = kernel.unit_tables();
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

void KernelPlan::scale_unit_columns(std::size_t first, std::size_t last,
                                    bool with_derivatives,
                                    FlowState& s) const {
  // The inflow is a table lookup; dV is the reward-independent unit table
  // evaluate() copied.
  for (std::size_t to = first; to < last; ++to) {
    const double reward = s.rewards[to];
    s.inflow[to] = reward <= 0.0 ? 0.0 : unit_->inflow[to] * reward;
    if (with_derivatives) s.inflow_derivative[to] = unit_->inflow[to];
  }
#if defined(TDP_HAVE_AVX2)
  if (simd::mode() == simd::Mode::kAvx2) {
    scale_unit_columns_avx2(first, last, s);
    return;
  }
#endif
  const std::size_t n = periods_;
  for (std::size_t to = first; to < last; ++to) {
    const double reward = s.rewards[to];
    const double* unit = unit_->by_column.data() + to * n;
    double* column = s.pair.data() + to * n;
    if (reward <= 0.0) {
      std::fill(column, column + n, 0.0);
    } else {
      for (std::size_t from = 0; from < n; ++from) {
        column[from] = unit[from] * reward;
      }
    }
    column[to] = 0.0;
  }
}

void KernelPlan::fill_column(std::size_t to, double reward,
                             bool with_derivatives, FlowState& s) const {
  const std::size_t n = periods_;
  double* column = s.pair.data() + to * n;

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
  // below it. pair_volume returns 0 outright for nonpositive rewards; the
  // derivative has no such early exit.
  double* dV = s.pair_derivative.data();
  double total = 0.0;
  double dtotal = 0.0;
  const auto fill = [&](std::size_t from, std::size_t lag) {
    double dvol = 0.0;
    const double vol = cell(from, lag, positive, with_derivatives, s, dvol);
    column[from] = positive ? vol : 0.0;
    total += column[from];
    if (with_derivatives) {
      dV[from * n + to] = dvol;
      dtotal += dvol;
    }
  };
  for (std::size_t from = 0; from < to; ++from) fill(from, to - from);
  for (std::size_t from = to + 1; from < n; ++from) {
    fill(from, n - (from - to));
  }
  column[to] = 0.0;
  s.inflow[to] = reward <= 0.0 ? 0.0 : total;
  if (with_derivatives) {
    dV[to * n + to] = 0.0;
    s.inflow_derivative[to] = dtotal;
  }
}

double KernelPlan::cell(std::size_t from, std::size_t lag, bool positive,
                        bool with_derivatives, const FlowState& s,
                        double& derivative) const {
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
  derivative = dvol;
  return vol;
}

void KernelPlan::reduce_outflows(FlowState& s) const {
  simd::off_diagonal_sums(s.pair.data(), periods_, s.outflow.data());
}

void KernelPlan::evaluate(const std::vector<double>& rewards,
                          bool with_derivatives, FlowState& s) const {
  const std::size_t n = periods_;
  TDP_REQUIRE(rewards.size() == n, "reward vector size mismatch");
  s.plan = this;
  s.plan_serial = serial_;
  s.has_derivatives = with_derivatives;
  s.rewards = rewards;
  // The column fills write every cell and every flow sum, so nothing is
  // zero-filled first.
  s.pair.resize(n * n);
  s.inflow.resize(n);
  s.outflow.resize(n);
  if (with_derivatives) s.inflow_derivative.resize(n);
  if (linear_) {
    // dV is the unit table itself, whatever the rewards: copied once per
    // state and plan, not once per evaluation.
    if (with_derivatives && s.derivative_serial != serial_) {
      s.pair_derivative = unit_->by_row;
      s.derivative_serial = serial_;
    }
    scale_unit_columns(0, n, with_derivatives, s);
  } else {
    if (with_derivatives) {
      s.pair_derivative.resize(n * n);
      s.derivative_serial = 0;
    }
    s.wf_factor.resize(functions_.size());
    s.wf_factor_derivative.resize(functions_.size());
    for (std::size_t to = 0; to < n; ++to) {
      fill_column(to, rewards[to], with_derivatives, s);
    }
  }
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
  if (linear_) {
    scale_unit_columns(m, m + 1, wd, s);
  } else {
    fill_column(m, reward, wd, s);
  }
  // inflow for i != m depends only on column i — unchanged. Every other
  // row's outflow sums the rewritten column, so the rows are re-reduced
  // over cached values in the reference order; row m, which skips column
  // m, reproduces its cached sum bit for bit.
  reduce_outflows(s);
}

}  // namespace tdp
