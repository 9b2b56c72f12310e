#include "estimation/patience_mix.hpp"

#include <bit>
#include <cmath>

#include "common/cyclic.hpp"
#include "common/error.hpp"

namespace tdp {

PatienceMix::PatienceMix(std::size_t periods, std::size_t types,
                         double max_reward)
    : periods_(periods),
      types_(types),
      max_reward_(max_reward),
      alpha_(periods * types, 0.0),
      beta_(periods * types, 1.0) {
  TDP_REQUIRE(periods >= 2, "need at least two periods");
  TDP_REQUIRE(types >= 1, "need at least one session type");
  TDP_REQUIRE(max_reward > 0.0, "max reward must be positive");
  row_.assign(periods * types, tabulate(1.0));
  row_uses_[row_[0]] = row_.size();
}

std::uint32_t PatienceMix::tabulate(double beta) {
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(beta);
  std::size_t row = row_beta_.size();
  for (std::size_t r = 0; r < row_beta_.size(); ++r) {
    if (row_beta_[r] == bits) return static_cast<std::uint32_t>(r);
    if (row_uses_[r] == 0) row = r;
  }
  if (row == row_beta_.size()) {
    row_beta_.push_back(0);
    row_uses_.push_back(0);
    row_norm_.push_back(0.0);
    lag_pow_.resize(lag_pow_.size() + periods_, 0.0);
  }
  row_beta_[row] = bits;
  // PowerLawWaitingFunction::lag_sum, keeping its terms.
  double* powers = &lag_pow_[row * periods_];
  double sum = 0.0;
  for (std::size_t t = 1; t < periods_; ++t) {
    powers[t] = std::pow(static_cast<double>(t) + 1.0, -beta);
    sum += powers[t];
  }
  row_norm_[row] = 1.0 / (max_reward_ * sum);
  return static_cast<std::uint32_t>(row);
}

void PatienceMix::set(std::size_t period, std::size_t type, double alpha,
                      double beta) {
  TDP_REQUIRE(period < periods_ && type < types_, "index out of range");
  TDP_REQUIRE(alpha >= 0.0, "proportion must be nonnegative");
  TDP_REQUIRE(beta >= 0.0, "patience index must be nonnegative");
  const std::size_t k = period * types_ + type;
  alpha_[k] = alpha;
  beta_[k] = beta;
  --row_uses_[row_[k]];
  row_[k] = tabulate(beta);
  ++row_uses_[row_[k]];
}

double PatienceMix::alpha(std::size_t period, std::size_t type) const {
  TDP_REQUIRE(period < periods_ && type < types_, "index out of range");
  return alpha_[period * types_ + type];
}

double PatienceMix::beta(std::size_t period, std::size_t type) const {
  TDP_REQUIRE(period < periods_ && type < types_, "index out of range");
  return beta_[period * types_ + type];
}

double PatienceMix::weight(std::size_t from, std::size_t lag,
                           double reward) const {
  if (reward <= 0.0) return 0.0;
  double total = 0.0;
  for (std::size_t j = 0; j < types_; ++j) {
    const std::size_t k = from * types_ + j;
    const std::size_t row = row_[k];
    total += alpha_[k] * row_norm_[row] * reward *
             lag_pow_[row * periods_ + lag];
  }
  return total;
}

double PatienceMix::omega(std::size_t from, std::size_t to,
                          double reward) const {
  TDP_REQUIRE(from < periods_ && to < periods_ && from != to,
              "invalid period pair");
  return weight(from, cyclic_lag(from, to, periods_), reward);
}

double PatienceMix::deferred(std::size_t from, std::size_t to,
                             double tip_demand, double reward) const {
  TDP_REQUIRE(tip_demand >= 0.0, "demand must be nonnegative");
  return tip_demand * omega(from, to, reward);
}

double PatienceMix::net_outflow(std::size_t period,
                                const std::vector<double>& tip_demand,
                                const math::Vector& rewards) const {
  TDP_REQUIRE(period < periods_, "period out of range");
  TDP_REQUIRE(tip_demand.size() == periods_, "demand vector size mismatch");
  TDP_REQUIRE(rewards.size() == periods_, "reward vector size mismatch");
  for (const double demand : tip_demand) {
    TDP_REQUIRE(demand >= 0.0, "demand must be nonnegative");
  }
  // deferred(period, k, ...) and deferred(k, period, ...) per k, with the
  // cyclic lags derived from one another: lag(k, period) = n - lag(period,
  // k).
  double out = 0.0;
  double in = 0.0;
  for (std::size_t k = 0; k < periods_; ++k) {
    if (k == period) continue;
    const std::size_t lag = k > period ? k - period : k + periods_ - period;
    out += tip_demand[period] * weight(period, lag, rewards[k]);
    in += tip_demand[k] * weight(k, periods_ - lag, rewards[period]);
  }
  return out - in;
}

}  // namespace tdp
