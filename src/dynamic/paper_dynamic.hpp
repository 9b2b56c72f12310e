// Paper-configured dynamic models (Section V-B).
//
// "We finally simulate the offline dynamic model, with the same ten waiting
// function types ... a single bottleneck network with constant capacity 210
// MBps ... Marginal cost of exceeding capacity is $0.10."
//
// Waiting functions use the continuous-lag normalization (see
// core/waiting_function.hpp) so deferral probabilities remain valid under
// the dynamic model's uniform arrival times.
#pragma once

#include "dynamic/dynamic_model.hpp"

namespace tdp::paper {

/// The 48-period dynamic model: Table VII arrivals, capacity 21 demand
/// units (210 MBps), backlog cost f(x) = 1 * max(x, 0) per period.
DynamicModel dynamic_model_48();

}  // namespace tdp::paper
