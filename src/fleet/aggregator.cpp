#include "fleet/aggregator.hpp"

#include "common/error.hpp"

namespace tdp::fleet {

StripedAggregator::StripedAggregator(std::size_t stripes, std::size_t periods)
    : stripes_(stripes), periods_(periods) {
  TDP_REQUIRE(stripes >= 1, "need at least one stripe");
  TDP_REQUIRE(periods >= 1, "need at least one period");
  stripes_data_.resize(stripes * periods);
}

void StripedAggregator::record(std::size_t slice, std::size_t period,
                               const PeriodStats& stats) {
  TDP_REQUIRE(slice < stripes_ && period < periods_,
              "stripe index out of range");
  stripes_data_[slice * periods_ + period] = stats;
}

PeriodStats StripedAggregator::merged(std::size_t period) const {
  TDP_REQUIRE(period < periods_, "period out of range");
  PeriodStats total;
  for (std::size_t slice = 0; slice < stripes_; ++slice) {
    total += stripes_data_[slice * periods_ + period];
  }
  return total;
}

const PeriodStats& StripedAggregator::stripe(std::size_t slice,
                                             std::size_t period) const {
  TDP_REQUIRE(slice < stripes_ && period < periods_,
              "stripe index out of range");
  return stripes_data_[slice * periods_ + period];
}

}  // namespace tdp::fleet
