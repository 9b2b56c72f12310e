#include "core/demand_profile.hpp"

#include "common/error.hpp"

namespace tdp {

DemandProfile::DemandProfile(std::size_t periods) : mixes_(periods) {
  TDP_REQUIRE(periods >= 2, "a pricing day needs at least two periods");
}

void DemandProfile::add_class(std::size_t period, SessionClass session_class) {
  TDP_REQUIRE(period < mixes_.size(), "period out of range");
  TDP_REQUIRE(session_class.waiting != nullptr,
              "session class needs a waiting function");
  TDP_REQUIRE(session_class.waiting->periods() == periods(),
              "waiting function is built for another period count");
  TDP_REQUIRE(session_class.volume >= 0.0, "volume must be nonnegative");
  mixes_[period].push_back(std::move(session_class));
}

const std::vector<SessionClass>& DemandProfile::classes(
    std::size_t period) const {
  TDP_REQUIRE(period < mixes_.size(), "period out of range");
  return mixes_[period];
}

double DemandProfile::tip_demand(std::size_t period) const {
  TDP_REQUIRE(period < mixes_.size(), "period out of range");
  double total = 0.0;
  for (const SessionClass& sc : mixes_[period]) total += sc.volume;
  return total;
}

std::vector<double> DemandProfile::tip_demand_vector() const {
  std::vector<double> out(mixes_.size(), 0.0);
  for (std::size_t i = 0; i < mixes_.size(); ++i) out[i] = tip_demand(i);
  return out;
}

double DemandProfile::total_demand() const {
  double total = 0.0;
  for (std::size_t i = 0; i < mixes_.size(); ++i) total += tip_demand(i);
  return total;
}

void DemandProfile::set_volume(std::size_t period, std::size_t class_index,
                               double volume) {
  TDP_REQUIRE(period < mixes_.size(), "period out of range");
  TDP_REQUIRE(class_index < mixes_[period].size(), "class index out of range");
  TDP_REQUIRE(volume >= 0.0, "volume must be nonnegative");
  mixes_[period][class_index].volume = volume;
}

void DemandProfile::scale_period(std::size_t period, double factor) {
  TDP_REQUIRE(period < mixes_.size(), "period out of range");
  TDP_REQUIRE(factor >= 0.0, "scale factor must be nonnegative");
  for (SessionClass& sc : mixes_[period]) sc.volume *= factor;
}

}  // namespace tdp
