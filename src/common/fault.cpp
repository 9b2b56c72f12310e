#include "common/fault.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/error.hpp"

namespace tdp {

bool FaultPlan::any() const {
  return price_pull_drop > 0.0 || clock_skew > 0.0 ||
         measurement_loss > 0.0 || measurement_nan > 0.0 ||
         measurement_negative > 0.0 || measurement_spike > 0.0 ||
         solver_exhaustion > 0.0 || !measurement_blackouts.empty() ||
         storm_blackout.enabled() || storm_channel.enabled() ||
         storm_solver.enabled();
}

FaultInjector::FaultInjector(FaultPlan plan)
    : plan_(std::move(plan)), root_(plan_.seed), enabled_(plan_.any()) {
  const auto in_unit = [](double p) { return p >= 0.0 && p <= 1.0; };
  TDP_REQUIRE(in_unit(plan_.price_pull_drop) && in_unit(plan_.clock_skew) &&
                  in_unit(plan_.measurement_loss) &&
                  in_unit(plan_.measurement_nan) &&
                  in_unit(plan_.measurement_negative) &&
                  in_unit(plan_.measurement_spike) &&
                  in_unit(plan_.solver_exhaustion),
              "fault probabilities must lie in [0, 1]");
  TDP_REQUIRE(plan_.measurement_loss + plan_.measurement_nan +
                      plan_.measurement_negative + plan_.measurement_spike <=
                  1.0,
              "measurement fault probabilities must sum to at most 1");
  TDP_REQUIRE(plan_.spike_factor > 0.0, "spike factor must be positive");
  TDP_REQUIRE(plan_.solver_starved_budget >= 1,
              "starved budget must allow at least one iteration");
  TDP_REQUIRE(plan_.drift_beta_rate > -1.0 && plan_.drift_beta_step > -1.0,
              "beta drift factors must keep patience indices positive");
  const auto storm_ok = [&](const StormRegime& regime) {
    return in_unit(regime.onset) && in_unit(regime.persist) &&
           in_unit(regime.intensity);
  };
  TDP_REQUIRE(storm_ok(plan_.storm_blackout) &&
                  storm_ok(plan_.storm_channel) &&
                  storm_ok(plan_.storm_solver),
              "storm onset/persist/intensity must lie in [0, 1]");
  std::sort(plan_.measurement_blackouts.begin(),
            plan_.measurement_blackouts.end());
}

Rng FaultInjector::stream(Domain domain, std::uint64_t entity,
                          std::uint64_t tick, std::uint64_t attempt) const {
  return root_.fork_stream(static_cast<std::uint64_t>(domain))
      .fork_stream(entity)
      .fork_stream(tick)
      .fork_stream(attempt);
}

bool FaultInjector::storm_active(StormDomain domain,
                                 std::uint64_t abs_period) const {
  if (!enabled_) return false;
  const StormRegime* regime = nullptr;
  switch (domain) {
    case StormDomain::kBlackout:
      regime = &plan_.storm_blackout;
      break;
    case StormDomain::kChannel:
      regime = &plan_.storm_channel;
      break;
    case StormDomain::kSolver:
      regime = &plan_.storm_solver;
      break;
  }
  if (regime == nullptr || !regime->enabled()) return false;
  // Replay the chain from period 0: one transition draw per period, keyed
  // only by (domain, period) so every query sees the same storm history.
  bool on = false;
  const std::uint64_t id = static_cast<std::uint64_t>(domain);
  for (std::uint64_t t = 0; t <= abs_period; ++t) {
    const double u = stream(kDomainStormState, id, t, 0).uniform();
    on = on ? (u < regime->persist) : (u < regime->onset);
  }
  return on;
}

bool FaultInjector::drop_price_pull(std::uint64_t subscriber,
                                    std::uint64_t abs_period,
                                    std::uint64_t attempt) const {
  if (!enabled_) return false;
  if (plan_.price_pull_drop > 0.0 &&
      stream(kDomainPricePull, subscriber, abs_period, attempt)
          .bernoulli(plan_.price_pull_drop)) {
    return true;
  }
  // Channel flapping: while the storm is ON every fetch attempt also fails
  // with P(intensity). Streams are stateless forks, so taking the base
  // draw first never perturbs the storm draw (and vice versa).
  if (storm_active(StormDomain::kChannel, abs_period)) {
    return stream(kDomainStormChannel, subscriber, abs_period, attempt)
        .bernoulli(plan_.storm_channel.intensity);
  }
  return false;
}

bool FaultInjector::skew_clock(std::uint64_t subscriber,
                               std::uint64_t abs_period) const {
  if (!enabled_ || plan_.clock_skew <= 0.0) return false;
  return stream(kDomainClock, subscriber, abs_period, 0)
      .bernoulli(plan_.clock_skew);
}

FaultInjector::MeasurementFault FaultInjector::measurement_fault(
    std::uint64_t entity, std::uint64_t abs_period) const {
  if (!enabled_) return MeasurementFault::kNone;
  if (std::binary_search(plan_.measurement_blackouts.begin(),
                         plan_.measurement_blackouts.end(), abs_period)) {
    return MeasurementFault::kLost;
  }
  // Burst blackout: while the storm is ON each domain's sample is lost
  // with P(intensity) — a correlated outage the i.i.d. rates below can't
  // produce.
  if (storm_active(StormDomain::kBlackout, abs_period) &&
      stream(kDomainStormMeasurement, entity, abs_period, 0)
          .bernoulli(plan_.storm_blackout.intensity)) {
    return MeasurementFault::kLost;
  }
  // One uniform draw split across the fault kinds, so the kinds are
  // mutually exclusive and their rates add.
  const double u =
      stream(kDomainMeasurement, entity, abs_period, 0).uniform();
  double edge = plan_.measurement_loss;
  if (u < edge) return MeasurementFault::kLost;
  edge += plan_.measurement_nan;
  if (u < edge) return MeasurementFault::kNaN;
  edge += plan_.measurement_negative;
  if (u < edge) return MeasurementFault::kNegative;
  edge += plan_.measurement_spike;
  if (u < edge) return MeasurementFault::kSpike;
  return MeasurementFault::kNone;
}

double FaultInjector::corrupt(MeasurementFault fault, double clean) const {
  switch (fault) {
    case MeasurementFault::kNone:
      return clean;
    case MeasurementFault::kNaN:
    case MeasurementFault::kLost:
      return std::numeric_limits<double>::quiet_NaN();
    case MeasurementFault::kNegative:
      // Strictly negative even when the clean sample is zero.
      return -(std::fabs(clean) + 1.0);
    case MeasurementFault::kSpike:
      return clean * plan_.spike_factor + 1.0;
  }
  return clean;
}

double FaultInjector::beta_drift_scale(std::uint32_t /*cls*/,
                                       std::size_t day) const {
  if (!plan_.drifts()) return 1.0;
  double scale = std::pow(1.0 + plan_.drift_beta_rate,
                          static_cast<double>(day));
  if (plan_.drift_beta_step != 0.0 && day >= plan_.drift_step_day) {
    scale *= 1.0 + plan_.drift_beta_step;
  }
  return scale;
}

bool FaultInjector::exhaust_solver(std::uint64_t abs_period) const {
  if (!enabled_) return false;
  if (plan_.solver_exhaustion > 0.0 &&
      stream(kDomainSolver, 0, abs_period, 0)
          .bernoulli(plan_.solver_exhaustion)) {
    return true;
  }
  if (storm_active(StormDomain::kSolver, abs_period)) {
    return stream(kDomainStormSolver, 0, abs_period, 0)
        .bernoulli(plan_.storm_solver.intensity);
  }
  return false;
}

}  // namespace tdp
