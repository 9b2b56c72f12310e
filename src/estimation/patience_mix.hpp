// Parametrized per-period traffic mixes for waiting-function estimation
// (Section IV).
//
// In each period i there are m session types; type j takes proportion
// alpha_ji of the period's traffic and defers according to the power law
// with patience index beta_ji:
//
//   Q_ik = X_i * sum_j alpha_ji * C(beta_ji) * p_k / (lag(i,k)+1)^beta_ji,
//
// the amount of traffic deferred from period i to period k at reward p_k
// (eq. 6). C(beta) is the standard normalization at the maximum reward P.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "math/vector_ops.hpp"

namespace tdp {

class PatienceMix {
 public:
  /// @param periods     n
  /// @param types       m session types per period
  /// @param max_reward  P used in the normalization constant C(beta)
  PatienceMix(std::size_t periods, std::size_t types, double max_reward);

  std::size_t periods() const { return periods_; }
  std::size_t types() const { return types_; }
  double max_reward() const { return max_reward_; }

  /// Set type j's parameters in period i. Proportions need not be
  /// normalized here; callers usually keep sum_j alpha_ji == 1.
  void set(std::size_t period, std::size_t type, double alpha, double beta);

  double alpha(std::size_t period, std::size_t type) const;
  double beta(std::size_t period, std::size_t type) const;

  /// Aggregate normalized waiting value of period i's mix for deferring to
  /// period k (cyclic lag) at reward p: sum_j alpha_ji C(beta_ji)
  /// p / (lag+1)^beta_ji.
  double omega(std::size_t from, std::size_t to, double reward) const;

  /// Q_ik (eq. 6): traffic deferred from `from` to `to`, given the TIP
  /// demand of the source period.
  double deferred(std::size_t from, std::size_t to, double tip_demand,
                  double reward) const;

  /// T_i (eq. 7): net traffic leaving period i under a reward vector,
  /// given all periods' TIP demands. sum_i net_outflow(...) == 0.
  double net_outflow(std::size_t period,
                     const std::vector<double>& tip_demand,
                     const math::Vector& rewards) const;

 private:
  /// omega for a lag in [1, n) whose indices are already checked: the one
  /// evaluation of eq. 6 behind omega, deferred and net_outflow.
  double weight(std::size_t from, std::size_t lag, double reward) const;

  /// The lag-power row for `beta`: an existing row with the same bit
  /// pattern, else a fresh one written over an unused row or appended.
  std::uint32_t tabulate(double beta);

  std::size_t periods_;
  std::size_t types_;
  double max_reward_;
  std::vector<double> alpha_;  // period-major [period * types + type]
  std::vector<double> beta_;
  /// Lag powers, one row per distinct patience index in the mix:
  /// lag_pow_[row * periods + lag] = pow(lag + 1, -beta) for lags 1..n-1,
  /// and row_norm_[row] = C(beta) = 1/(P * lag_sum(beta)), summed from the
  /// same powers in lag_sum's order. set() keeps them, so eq. 6 costs no
  /// pow: a tied fit's mix needs one row of n - 1 powers.
  std::vector<std::uint32_t> row_;       // [period * types + type]
  std::vector<std::uint64_t> row_beta_;  // beta bit pattern per row
  std::vector<std::size_t> row_uses_;    // entries of row_ naming the row
  std::vector<double> row_norm_;
  std::vector<double> lag_pow_;
};

}  // namespace tdp
