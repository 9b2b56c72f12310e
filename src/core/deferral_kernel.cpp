#include "core/deferral_kernel.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <mutex>
#include <vector>

#include "common/cyclic.hpp"
#include "common/error.hpp"
#include "common/simd.hpp"
#include "core/kernel_plan.hpp"
#include "math/quadrature.hpp"

namespace tdp {

double lag_weight(const PowerLawWaitingFunction& w, double reward,
                  std::size_t lag, LagConvention convention) {
  const double t = static_cast<double>(lag);
  if (convention == LagConvention::kPeriodStart) {
    return w.value(reward, t);
  }
  return math::integrate_gauss(
      [&w, reward](double u) { return w.value(reward, u); }, t - 1.0, t, 1);
}

double lag_weight_derivative(const PowerLawWaitingFunction& w, double reward,
                             std::size_t lag, LagConvention convention) {
  const double t = static_cast<double>(lag);
  if (convention == LagConvention::kPeriodStart) {
    return w.reward_derivative(reward, t);
  }
  return math::integrate_gauss(
      [&w, reward](double u) { return w.reward_derivative(reward, u); },
      t - 1.0, t, 1);
}

/// Immutable construction state, shared by a kernel's copies and by
/// successors whose demand matches it period for period.
struct DeferralKernelState {
  std::size_t periods = 0;
  LagConvention convention = LagConvention::kPeriodStart;
  bool linear = false;
  /// One class row per period, shared with every state built from this one
  /// whose period kept the same classes.
  std::vector<std::shared_ptr<const std::vector<SessionClass>>> classes;
  /// Null unless linear; shared with the plan, which holds no pointer back
  /// to this state (the state holds the plan).
  std::shared_ptr<const UnitTables> unit;

  // Lazily computed, once per state.
  mutable std::once_flag safe_reward_once;
  mutable double safe_reward = 0.0;
  mutable std::once_flag plan_once;
  mutable std::shared_ptr<const KernelPlan> plan;
};

namespace {

/// Same waiting-function objects and volume bit patterns, in order.
bool same_classes(const std::vector<SessionClass>& a,
                  const std::vector<SessionClass>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t c = 0; c < a.size(); ++c) {
    if (a[c].waiting != b[c].waiting ||
        std::bit_cast<std::uint64_t>(a[c].volume) !=
            std::bit_cast<std::uint64_t>(b[c].volume)) {
      return false;
    }
  }
  return true;
}

/// The state of `demand`. Whatever of `donor` (may be null) provably
/// equals this build's result is reused: the whole state when every
/// period's classes match, else each matching period's class row and
/// unit-table row.
std::shared_ptr<const DeferralKernelState> build_state(
    const DemandProfile& demand, LagConvention convention,
    std::shared_ptr<const DeferralKernelState> donor) {
  const std::size_t n = demand.periods();
  if (donor != nullptr &&
      (donor->periods != n || donor->convention != convention)) {
    donor = nullptr;  // its rows are of another table
  }
  const auto kept = [&](std::size_t period) {
    return donor != nullptr &&
           same_classes(demand.classes(period), *donor->classes[period]);
  };
  std::size_t first_changed = 0;
  while (first_changed < n && kept(first_changed)) ++first_changed;
  if (first_changed == n && donor != nullptr) return donor;

  // A period whose classes match the donor's bit for bit shares its row;
  // the online pricer rescales one period per observation, so its new
  // kernel copies one row of classes, not all of them.
  auto state = std::make_shared<DeferralKernelState>();
  state->periods = n;
  state->convention = convention;
  state->classes.reserve(n);
  state->linear = true;
  for (std::size_t i = 0; i < n; ++i) {
    if (i < first_changed || (i > first_changed && kept(i))) {
      state->classes.push_back(donor->classes[i]);
    } else {
      state->classes.push_back(
          std::make_shared<const std::vector<SessionClass>>(
              demand.classes(i)));
    }
    for (const SessionClass& sc : *state->classes.back()) {
      state->linear = state->linear && sc.waiting->is_linear_in_reward();
    }
  }

  if (!state->linear) return state;

  // A row of the unit table depends on its own period's classes alone, so
  // both layouts start as the donor's tables and only the rows of periods
  // with new classes are recomputed and patched in.
  //
  // A computed row accumulates class by class across all its cells at
  // once: the cells are independent lanes, and each still sums its classes
  // in class order from 0.0, exactly as the per-pair reference does. The
  // two runs of `to` on either side of the diagonal read ascending lags.
  const bool lend = donor != nullptr && donor->linear;
  auto unit = std::make_shared<UnitTables>();
  if (lend) {
    unit->by_row = donor->unit->by_row;
    unit->by_column = donor->unit->by_column;
  } else {
    unit->by_row.assign(n * n, 0.0);
    unit->by_column.assign(n * n, 0.0);
  }
  for (std::size_t from = 0; from < n; ++from) {
    if (lend && state->classes[from] == donor->classes[from]) continue;
    double* row = &unit->by_row[from * n];
    std::fill(row, row + n, 0.0);
    for (const SessionClass& sc : *state->classes[from]) {
      const double* w = sc.waiting->unit_weights(convention);
      for (std::size_t to = from + 1; to < n; ++to) {
        row[to] += sc.volume * w[to - from];
      }
      for (std::size_t to = 0; to < from; ++to) {
        row[to] += sc.volume * w[to + n - from];
      }
    }
    for (std::size_t to = 0; to < n; ++to) {
      unit->by_column[to * n + from] = row[to];
    }
  }
  // Each column's inflow sums its cells in ascending `from` from 0.0, the
  // diagonal skipped: the plan's outflow reduction run over the row-major
  // table.
  unit->inflow.resize(n);
  simd::off_diagonal_sums(unit->by_row.data(), n, unit->inflow.data());
  state->unit = std::move(unit);
  return state;
}

}  // namespace

DeferralKernel::DeferralKernel(const DemandProfile& demand,
                               LagConvention convention,
                               const DeferralKernel* predecessor)
    : periods_(demand.periods()),
      convention_(convention),
      state_(build_state(demand, convention,
                         predecessor != nullptr ? predecessor->state_
                                                : nullptr)) {
  linear_ = state_->linear;
}

double DeferralKernel::pair_volume(std::size_t from, std::size_t to,
                                   double reward) const {
  TDP_REQUIRE(from < periods_ && to < periods_ && from != to,
              "invalid period pair");
  if (reward <= 0.0) return 0.0;
  if (linear_) return state_->unit->by_row[from * periods_ + to] * reward;
  const std::size_t lag = cyclic_lag(from, to, periods_);
  double volume = 0.0;
  for (const SessionClass& sc : *state_->classes[from]) {
    volume += sc.volume * lag_weight(*sc.waiting, reward, lag, convention_);
  }
  return volume;
}

double DeferralKernel::pair_volume_derivative(std::size_t from,
                                              std::size_t to,
                                              double reward) const {
  TDP_REQUIRE(from < periods_ && to < periods_ && from != to,
              "invalid period pair");
  if (linear_) return state_->unit->by_row[from * periods_ + to];
  const std::size_t lag = cyclic_lag(from, to, periods_);
  double deriv = 0.0;
  for (const SessionClass& sc : *state_->classes[from]) {
    deriv += sc.volume *
             lag_weight_derivative(*sc.waiting, reward, lag, convention_);
  }
  return deriv;
}

double DeferralKernel::inflow(std::size_t into, double reward) const {
  TDP_REQUIRE(into < periods_, "period out of range");
  if (reward <= 0.0) return 0.0;
  if (linear_) return state_->unit->inflow[into] * reward;
  double total = 0.0;
  for (std::size_t from = 0; from < periods_; ++from) {
    if (from == into) continue;
    total += pair_volume(from, into, reward);
  }
  return total;
}

double DeferralKernel::inflow_derivative(std::size_t into,
                                         double reward) const {
  TDP_REQUIRE(into < periods_, "period out of range");
  if (linear_) return state_->unit->inflow[into];
  double total = 0.0;
  for (std::size_t from = 0; from < periods_; ++from) {
    if (from == into) continue;
    total += pair_volume_derivative(from, into, reward);
  }
  return total;
}

double DeferralKernel::outflow(std::size_t from,
                               const std::vector<double>& rewards) const {
  TDP_REQUIRE(from < periods_, "period out of range");
  TDP_REQUIRE(rewards.size() == periods_, "reward vector size mismatch");
  double total = 0.0;
  for (std::size_t to = 0; to < periods_; ++to) {
    if (to == from) continue;
    if (linear_) {
      if (rewards[to] > 0.0) {
        total += state_->unit->by_row[from * periods_ + to] * rewards[to];
      }
    } else {
      total += pair_volume(from, to, rewards[to]);
    }
  }
  return total;
}

double DeferralKernel::max_safe_reward() const {
  std::call_once(state_->safe_reward_once, [this] {
    double cap = std::numeric_limits<double>::infinity();
    std::vector<double> demand(periods_, 0.0);
    for (std::size_t i = 0; i < periods_; ++i) {
      for (const SessionClass& sc : *state_->classes[i]) {
        demand[i] += sc.volume;
      }
    }

    if (linear_) {
      for (std::size_t i = 0; i < periods_; ++i) {
        double unit_out = 0.0;
        for (std::size_t m = 0; m < periods_; ++m) {
          if (m != i) unit_out += state_->unit->by_row[i * periods_ + m];
        }
        if (unit_out > 0.0 && demand[i] > 0.0) {
          cap = std::min(cap, demand[i] / unit_out);
        }
      }
      state_->safe_reward = cap;
      return;
    }

    // Nonlinear: bisection per period on outflow(uniform r) <= demand.
    for (std::size_t i = 0; i < periods_; ++i) {
      if (demand[i] <= 0.0) continue;
      auto outflow_at = [this, i](double r) {
        return outflow(i, std::vector<double>(periods_, r));
      };
      double hi = 1.0;
      while (outflow_at(hi) < demand[i] && hi < 1e9) hi *= 2.0;
      if (hi >= 1e9) continue;  // never saturates
      double lo = 0.0;
      for (int iter = 0; iter < 60; ++iter) {
        const double mid = 0.5 * (lo + hi);
        (outflow_at(mid) < demand[i] ? lo : hi) = mid;
      }
      cap = std::min(cap, lo);
    }
    state_->safe_reward = cap;
  });
  return state_->safe_reward;
}

std::shared_ptr<const KernelPlan> DeferralKernel::plan() const {
  std::call_once(state_->plan_once,
                 [this] { state_->plan = std::make_shared<KernelPlan>(*this); });
  return state_->plan;
}

const std::vector<SessionClass>& DeferralKernel::classes(
    std::size_t period) const {
  TDP_REQUIRE(period < periods_, "period out of range");
  return *state_->classes[period];
}

std::shared_ptr<const UnitTables> DeferralKernel::unit_tables() const {
  return state_->unit;
}

}  // namespace tdp
