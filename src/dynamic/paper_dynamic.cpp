#include "dynamic/paper_dynamic.hpp"

#include "core/paper_data.hpp"
#include "math/piecewise_linear.hpp"

namespace tdp::paper {

DynamicModel dynamic_model_48() {
  DemandProfile arrivals =
      make_profile(table7_mix_48(), kStaticNormalizationReward,
                   LagNormalization::kContinuous);
  return DynamicModel(
      std::move(arrivals), kDynamicCapacityUnits,
      math::PiecewiseLinearCost::hinge(kDynamicCostSlope, 0.0));
}

}  // namespace tdp::paper
