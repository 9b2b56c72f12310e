// The definite-choice session model (Appendix D).
//
// Instead of deferring probabilistically, each session class moves ALL of
// its traffic to the single lag maximizing its waiting function under the
// offered rewards — "users defer to one definite period". A class stays put
// unless its best achievable waiting value exceeds a stay threshold
// (Appendix D pins w(0, t) = 0 so that zero rewards mean no deferral; the
// threshold generalizes that to a minimum utility for moving at all).
//
// The resulting usage is piecewise constant in the rewards (the argmax
// switches discontinuously), so the ISP's problem is non-convex and
// gradient-free — "this model's optimization problem is likely non-convex".
// optimize_definite_choice therefore runs a deterministic multi-start
// coordinate grid search; tests exhibit an explicit convexity violation.
#pragma once

#include <cstddef>
#include <vector>

#include "core/demand_profile.hpp"
#include "math/piecewise_linear.hpp"
#include "math/vector_ops.hpp"

namespace tdp {

class DefiniteChoiceModel {
 public:
  /// @param stay_threshold  minimum waiting value required to move at all.
  DefiniteChoiceModel(DemandProfile demand, double capacity,
                      math::PiecewiseLinearCost capacity_cost,
                      double stay_threshold = 0.0);

  std::size_t periods() const { return demand_.periods(); }
  const DemandProfile& demand() const { return demand_; }
  double max_reward() const { return cost_.max_slope(); }

  /// The lag (0 = stay) class `c` of period `i` chooses under `rewards`.
  std::size_t chosen_lag(std::size_t period, std::size_t class_index,
                         const math::Vector& rewards) const;

  /// Usage per period after every class moves to its chosen target.
  math::Vector usage(const math::Vector& rewards) const;

  /// Reward payout + capacity cost under the definite choices.
  double total_cost(const math::Vector& rewards) const;

  /// Cost with zero rewards (nothing moves).
  double tip_cost() const;

 private:
  DemandProfile demand_;
  std::vector<double> capacity_;
  math::PiecewiseLinearCost cost_;
  double stay_threshold_;
};

struct DefiniteChoiceOptions {
  /// Number of grid levels per coordinate in [0, max_reward].
  std::size_t grid_levels = 16;
  /// Coordinate-descent sweeps per start.
  std::size_t max_sweeps = 8;
  /// Deterministic multi-start count.
  std::size_t starts = 4;
};

struct DefiniteChoiceSolution {
  math::Vector rewards;
  math::Vector usage;
  double total_cost = 0.0;
  double tip_cost = 0.0;
  std::size_t evaluations = 0;
};

/// Heuristic (grid coordinate-descent, multi-start) optimizer for the
/// non-convex definite-choice pricing problem. Returns the best local
/// optimum found; no global guarantee exists for this model.
DefiniteChoiceSolution optimize_definite_choice(
    const DefiniteChoiceModel& model, const DefiniteChoiceOptions& options = {});

}  // namespace tdp
