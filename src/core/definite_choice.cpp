#include "core/definite_choice.hpp"

#include <algorithm>
#include <limits>

#include "common/cyclic.hpp"
#include "common/error.hpp"

namespace tdp {

DefiniteChoiceModel::DefiniteChoiceModel(DemandProfile demand,
                                         double capacity,
                                         math::PiecewiseLinearCost
                                             capacity_cost,
                                         double stay_threshold)
    : demand_(std::move(demand)),
      capacity_(demand_.periods(), capacity),
      cost_(std::move(capacity_cost)),
      stay_threshold_(stay_threshold) {
  TDP_REQUIRE(capacity >= 0.0, "capacity must be nonnegative");
  TDP_REQUIRE(stay_threshold_ >= 0.0, "threshold must be nonnegative");
}

std::size_t DefiniteChoiceModel::chosen_lag(std::size_t period,
                                            std::size_t class_index,
                                            const math::Vector& rewards) const {
  const std::size_t n = periods();
  TDP_REQUIRE(period < n, "period out of range");
  const auto& classes = demand_.classes(period);
  TDP_REQUIRE(class_index < classes.size(), "class out of range");
  TDP_REQUIRE(rewards.size() == n, "reward vector size mismatch");

  const PowerLawWaitingFunction& w = *classes[class_index].waiting;
  std::size_t best_lag = 0;
  double best_value = stay_threshold_;
  for (std::size_t lag = 1; lag < n; ++lag) {
    const std::size_t target = cyclic_advance(period, lag, n);
    const double value = w.value(rewards[target], static_cast<double>(lag));
    // Strict improvement required, so ties break toward shorter waits and
    // zero rewards always mean staying (w(0, t) == 0).
    if (value > best_value + 1e-15) {
      best_value = value;
      best_lag = lag;
    }
  }
  return best_lag;
}

math::Vector DefiniteChoiceModel::usage(const math::Vector& rewards) const {
  const std::size_t n = periods();
  TDP_REQUIRE(rewards.size() == n, "reward vector size mismatch");
  math::Vector x(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& classes = demand_.classes(i);
    for (std::size_t c = 0; c < classes.size(); ++c) {
      const std::size_t lag = chosen_lag(i, c, rewards);
      const std::size_t target = lag == 0 ? i : cyclic_advance(i, lag, n);
      x[target] += classes[c].volume;
    }
  }
  return x;
}

double DefiniteChoiceModel::total_cost(const math::Vector& rewards) const {
  const std::size_t n = periods();
  TDP_REQUIRE(rewards.size() == n, "reward vector size mismatch");
  double reward_cost = 0.0;
  math::Vector x(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& classes = demand_.classes(i);
    for (std::size_t c = 0; c < classes.size(); ++c) {
      const std::size_t lag = chosen_lag(i, c, rewards);
      const std::size_t target = lag == 0 ? i : cyclic_advance(i, lag, n);
      x[target] += classes[c].volume;
      if (lag != 0) reward_cost += rewards[target] * classes[c].volume;
    }
  }
  double capacity_cost = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    capacity_cost += cost_.value(x[i] - capacity_[i]);
  }
  return reward_cost + capacity_cost;
}

double DefiniteChoiceModel::tip_cost() const {
  return total_cost(math::Vector(periods(), 0.0));
}

DefiniteChoiceSolution optimize_definite_choice(
    const DefiniteChoiceModel& model, const DefiniteChoiceOptions& options) {
  TDP_REQUIRE(options.grid_levels >= 2, "need at least two grid levels");
  TDP_REQUIRE(options.starts >= 1, "need at least one start");
  const std::size_t n = model.periods();
  const double cap = model.max_reward();

  DefiniteChoiceSolution best;
  best.total_cost = std::numeric_limits<double>::infinity();
  std::size_t evaluations = 0;

  for (std::size_t start = 0; start < options.starts; ++start) {
    // Deterministic spread of starting points: 0, cap/2, cap, cap/4, ...
    const double level =
        cap * static_cast<double>(start) /
        static_cast<double>(std::max<std::size_t>(options.starts - 1, 1));
    math::Vector p(n, level);
    double current = model.total_cost(p);
    ++evaluations;

    for (std::size_t sweep = 0; sweep < options.max_sweeps; ++sweep) {
      bool improved = false;
      for (std::size_t m = 0; m < n; ++m) {
        double best_value = p[m];
        for (std::size_t g = 0; g < options.grid_levels; ++g) {
          const double candidate_value =
              cap * static_cast<double>(g) /
              static_cast<double>(options.grid_levels - 1);
          if (candidate_value == p[m]) continue;
          math::Vector trial = p;
          trial[m] = candidate_value;
          const double cost = model.total_cost(trial);
          ++evaluations;
          if (cost < current - 1e-12) {
            current = cost;
            best_value = candidate_value;
            improved = true;
          }
        }
        p[m] = best_value;
      }
      if (!improved) break;
    }

    if (current < best.total_cost) {
      best.total_cost = current;
      best.rewards = p;
    }
  }

  best.usage = model.usage(best.rewards);
  best.tip_cost = model.tip_cost();
  best.evaluations = evaluations;
  return best;
}

}  // namespace tdp
