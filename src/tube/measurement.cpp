#include "tube/measurement.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "obs/registry.hpp"

namespace tdp {

MeasurementEngine::MeasurementEngine(std::size_t users, std::size_t classes)
    : users_(users), classes_(classes), baseline_(users * classes, 0.0) {
  TDP_REQUIRE(users >= 1 && classes >= 1, "need users and classes");
}

std::size_t MeasurementEngine::index(std::size_t user,
                                     std::size_t traffic_class) const {
  TDP_REQUIRE(user < users_ && traffic_class < classes_,
              "user/class out of range");
  return user * classes_ + traffic_class;
}

void MeasurementEngine::close_period(const netsim::BottleneckLink& link) {
  std::vector<double> cumulative(users_ * classes_, 0.0);
  for (std::size_t u = 0; u < users_; ++u) {
    for (std::size_t c = 0; c < classes_; ++c) {
      cumulative[index(u, c)] = link.served_mb(u, c);
    }
  }
  close_period(cumulative);
}

void MeasurementEngine::close_period(const std::vector<double>& cumulative) {
  TDP_REQUIRE(cumulative.size() == users_ * classes_,
              "cumulative counter size mismatch");
  std::vector<double> usage(users_ * classes_, 0.0);
  for (std::size_t k = 0; k < cumulative.size(); ++k) {
    const double counter = cumulative[k];
    if (!std::isfinite(counter)) {
      // Broken exporter: drop the sample, keep the old baseline so the
      // next good counter yields the union of both periods' usage.
      reject_sample(k, counter);
      continue;
    }
    const double delta = counter - baseline_[k];
    if (delta < 0.0) {
      // Counter reset: the delta is meaningless; re-baseline and move on.
      reject_sample(k, delta);
      baseline_[k] = counter;
      continue;
    }
    usage[k] = delta;
    baseline_[k] = counter;
  }
  per_period_.push_back(std::move(usage));
}

void MeasurementEngine::reject_sample(std::size_t flat_index, double value) {
  ++rejected_samples_;
  static obs::Counter& rejected =
      obs::Registry::global().counter("measurement.rejected_samples_total");
  rejected.add(1);
  // Rate-limited: warn on the 1st, 2nd, 4th, 8th, ... rejection so a
  // persistently sick exporter cannot flood the log.
  TDP_LOG_EVERY_POW2(::tdp::LogLevel::kWarn, rejected_samples_)
      << "measurement: rejected sample for (user " << flat_index / classes_
      << ", class " << flat_index % classes_ << ") value " << value << " ("
      << rejected_samples_ << " rejected so far)";
}

double MeasurementEngine::usage_mb(std::size_t period, std::size_t user,
                                   std::size_t traffic_class) const {
  TDP_REQUIRE(period < per_period_.size(), "period not recorded");
  return per_period_[period][index(user, traffic_class)];
}

double MeasurementEngine::user_usage_mb(std::size_t period,
                                        std::size_t user) const {
  TDP_REQUIRE(period < per_period_.size(), "period not recorded");
  double total = 0.0;
  for (std::size_t c = 0; c < classes_; ++c) {
    total += per_period_[period][index(user, c)];
  }
  return total;
}

double MeasurementEngine::total_usage_mb(std::size_t period) const {
  TDP_REQUIRE(period < per_period_.size(), "period not recorded");
  double total = 0.0;
  for (double v : per_period_[period]) total += v;
  return total;
}

std::vector<double> MeasurementEngine::total_series() const {
  std::vector<double> out(per_period_.size(), 0.0);
  for (std::size_t i = 0; i < per_period_.size(); ++i) {
    out[i] = total_usage_mb(i);
  }
  return out;
}

std::vector<double> MeasurementEngine::user_series(std::size_t user) const {
  std::vector<double> out(per_period_.size(), 0.0);
  for (std::size_t i = 0; i < per_period_.size(); ++i) {
    out[i] = user_usage_mb(i, user);
  }
  return out;
}

void MeasurementEngine::reset(const netsim::BottleneckLink& link) {
  per_period_.clear();
  for (std::size_t u = 0; u < users_; ++u) {
    for (std::size_t c = 0; c < classes_; ++c) {
      baseline_[index(u, c)] = link.served_mb(u, c);
    }
  }
}

}  // namespace tdp
