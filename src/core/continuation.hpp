// Smoothing continuation + FISTA: the one stage loop behind both price
// optimizers (core/static_optimizer, dynamic/dynamic_optimizer).
//
// The exact objectives are convex but nonsmooth (the capacity cost has
// kinks), so each stage minimizes the model's mu-smoothed cost over the
// reward box and warm-starts the next, smaller mu from its solution.
#pragma once

#include <algorithm>
#include <cstddef>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "core/kernel_plan.hpp"
#include "math/fista.hpp"
#include "math/vector_ops.hpp"

namespace tdp {

/// Where the continuation ended: the last stage's rewards, the FISTA
/// iterations of every stage, and whether every stage converged.
struct ContinuationResult {
  math::Vector rewards;
  std::size_t iterations = 0;
  bool converged = true;
};

/// Minimize `model`'s smoothed cost over [0, max_reward *
/// options.reward_cap_factor]^n. mu starts at options.mu_initial and is
/// multiplied by options.mu_decay per stage, clamped at options.mu_final;
/// the stage at mu_final is the last. The first stage starts from `start`
/// projected onto the box, or from zeros when `start` is empty. With
/// options.fused the stages evaluate through the model's kernel plan,
/// otherwise through its reference objective. `label` prefixes the
/// per-stage debug log line.
///
/// Model needs periods(), smoothed_cost and smoothed_gradient, plus the
/// FlowState forms smoothed_cost(rewards, mu, state) and
/// smoothed_cost_and_gradient. Options needs mu_initial, mu_final,
/// mu_decay, reward_cap_factor, fista and fused.
template <typename Model, typename Options>
ContinuationResult minimize_by_continuation(const Model& model,
                                            const Options& options,
                                            double max_reward,
                                            const math::Vector& start,
                                            const char* label) {
  TDP_REQUIRE(options.mu_initial >= options.mu_final && options.mu_final > 0.0,
              "invalid smoothing schedule");
  TDP_REQUIRE(options.mu_decay > 0.0 && options.mu_decay < 1.0,
              "mu decay must be in (0, 1)");
  TDP_REQUIRE(options.reward_cap_factor > 0.0, "reward cap must be positive");

  const std::size_t n = model.periods();
  const double cap = max_reward * options.reward_cap_factor;
  const math::BoxBounds box = math::uniform_box(n, 0.0, cap);

  FlowState scratch;
  ContinuationResult result;
  result.rewards.assign(n, 0.0);
  if (!start.empty()) {
    TDP_REQUIRE(start.size() == n,
                "warm-start size must match the model's period count");
    result.rewards = start;
    math::project_box(result.rewards, 0.0, cap);
  }

  for (double mu = options.mu_initial;; mu *= options.mu_decay) {
    mu = std::max(mu, options.mu_final);

    math::SmoothObjective objective;
    if (options.fused) {
      objective.value = [&model, mu, &scratch](const math::Vector& rewards) {
        return model.smoothed_cost(rewards, mu, scratch);
      };
      objective.value_and_gradient = [&model, mu, &scratch](
                                         const math::Vector& rewards,
                                         math::Vector& grad) {
        return model.smoothed_cost_and_gradient(rewards, mu, grad, scratch);
      };
    } else {
      objective.value = [&model, mu](const math::Vector& rewards) {
        return model.smoothed_cost(rewards, mu);
      };
      objective.gradient = [&model, mu](const math::Vector& rewards,
                                        math::Vector& grad) {
        model.smoothed_gradient(rewards, mu, grad);
      };
    }

    const math::FistaResult stage =
        math::minimize_box(objective, box, result.rewards, options.fista);
    result.rewards = stage.x;
    result.iterations += stage.iterations;
    result.converged = result.converged && stage.converged;
    TDP_LOG_DEBUG << label << " stage mu=" << mu << " cost=" << stage.value
                  << " iters=" << stage.iterations;

    if (mu <= options.mu_final) break;
  }
  return result;
}

}  // namespace tdp
