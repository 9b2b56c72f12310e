#include "fleet/population.hpp"

#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "common/simd.hpp"
#include "core/paper_data.hpp"

namespace tdp::fleet {
namespace {

/// Stream index reserved for a user's static trait draws; period streams use
/// the period index, which is always far below this.
constexpr std::uint64_t kSpecStream = 0xF1EE7000DEADBEEFull;

std::vector<paper::MixRow> mix_for(std::size_t periods) {
  if (periods == 48) return paper::table7_mix_48();
  if (periods == 12) return paper::table8_mix_12();
  throw PreconditionError(
      "fleet population needs 48 or 12 periods (the paper's published "
      "demand mixes)");
}

}  // namespace

Population::Population(PopulationConfig config)
    : config_(config), root_(config.seed) {
  TDP_REQUIRE(config_.users > 0, "population needs at least one user");
  TDP_REQUIRE(config_.sessions_per_day > 0.0,
              "sessions per day must be positive");

  const std::vector<paper::MixRow> mix = mix_for(config_.periods);
  const std::size_t n = config_.periods;
  const std::size_t classes = paper::kPatienceIndices.size();

  // Class day totals and shares from the published mix.
  std::vector<double> class_total(classes, 0.0);
  double day_total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < classes; ++c) {
      class_total[c] += mix[i][c];
      day_total += mix[i][c];
    }
  }
  TDP_REQUIRE(day_total > 0.0, "published mix has no demand");

  class_share_.resize(classes);
  class_cdf_.resize(classes);
  double cumulative = 0.0;
  for (std::size_t c = 0; c < classes; ++c) {
    class_share_[c] = class_total[c] / day_total;
    cumulative += class_share_[c];
    class_cdf_[c] = cumulative;
  }
  class_cdf_.back() = 1.0;  // guard against rounding in the last bucket

  // Per-class diurnal session rates: a class-c user's day has
  // sessions_per_day expected sessions, distributed over periods like the
  // class's share of the published profile.
  //
  // Each rate's screen: a class-c user's Poisson mean is activity * rate_c
  // with activity in [0.5, 1.5), so mean <= 1.5 * rate_c * (1 + eps) <
  // 1.6 * rate_c and exp(-1.6 * rate_c) < exp(-mean), Knuth's termination
  // limit, by a relative margin >= ~0.099 * rate_c: far above the few-ulp
  // error of any faithful libm exp once rate_c >= 1e-12. A first uniform
  // at or below the screen thus ends Knuth's walk at count 0 without the
  // user's own exp(-mean). Classes outside that range screen nobody
  // (-1.0): below 1e-12 the margin argument is void, and from 19 on some
  // users could reach Poisson's normal-approximation regime (mean >= 30).
  // A zero rate screens everybody (+infinity).
  TDP_REQUIRE(classes <= simd::kMaxClasses, "patience class count above cap");
  class_rate_.assign(n * simd::kMaxClasses, 0.0);
  class_screen_.assign(n * simd::kMaxClasses,
                       std::numeric_limits<double>::infinity());
  for (std::size_t c = 0; c < classes; ++c) {
    if (class_total[c] <= 0.0) continue;
    for (std::size_t i = 0; i < n; ++i) {
      const double rate =
          config_.sessions_per_day * mix[i][c] / class_total[c];
      class_rate_[i * simd::kMaxClasses + c] = rate;
      if (rate > 0.0) {
        class_screen_[i * simd::kMaxClasses + c] =
            rate >= 1e-12 && rate < 19.0 ? std::exp(-1.6 * rate) : -1.0;
      }
    }
  }

  // Waiting functions on the continuous lag grid (the dynamic model's
  // convention) normalized at the paper's maximum rational reward.
  waiting_.reserve(classes);
  for (std::size_t c = 0; c < classes; ++c) {
    waiting_.push_back(std::make_shared<PowerLawWaitingFunction>(
        paper::kPatienceIndices[c], n, paper::kStaticNormalizationReward,
        1.0, LagNormalization::kContinuous));
  }

  // Calibration: expected aggregate work per period in user units is
  // users * sessions_per_day * b * demand(i) / day_total, so this factor
  // maps aggregate user work onto the paper's demand units exactly.
  unit_calibration_ =
      day_total / (static_cast<double>(config_.users) *
                   config_.sessions_per_day * mean_session_size_);

  expected_units_.assign(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < classes; ++c) {
      expected_units_[i] += mix[i][c];
    }
  }
}

UserSpec Population::spec(std::uint64_t user) const {
  Rng rng = root_.fork_stream(user).fork_stream(kSpecStream);
  UserSpec spec;
  const double draw = rng.uniform();
  std::uint32_t cls = 0;
  while (cls + 1 < class_cdf_.size() && draw >= class_cdf_[cls]) ++cls;
  spec.patience_class = cls;
  spec.activity = 0.5 + rng.uniform();
  return spec;
}

Rng Population::user_period_rng(std::uint64_t user,
                                std::size_t period) const {
  return root_.fork_stream(user).fork_stream(period);
}

std::vector<WaitingFunctionPtr> Population::scaled_waiting(
    const std::vector<double>& beta_scale) const {
  const std::size_t classes = waiting_.size();
  TDP_REQUIRE(beta_scale.size() == classes,
              "need one beta scale per patience class");
  std::vector<WaitingFunctionPtr> drifted;
  drifted.reserve(classes);
  for (std::size_t c = 0; c < classes; ++c) {
    TDP_REQUIRE(beta_scale[c] > 0.0, "beta scales must be positive");
    // Same construction path as the calibrated defaults, so a scale of 1.0
    // reproduces waiting(c) bitwise.
    drifted.push_back(std::make_shared<PowerLawWaitingFunction>(
        paper::kPatienceIndices[c] * beta_scale[c], config_.periods,
        paper::kStaticNormalizationReward, 1.0,
        LagNormalization::kContinuous));
  }
  return drifted;
}

double Population::session_rate(std::uint32_t cls, std::size_t period) const {
  TDP_REQUIRE(cls < waiting_.size() && period < config_.periods,
              "class or period out of range");
  return class_rate_[period * simd::kMaxClasses + cls];
}

const double* Population::class_rates(std::size_t period) const {
  TDP_REQUIRE(period < config_.periods, "period out of range");
  return class_rate_.data() + period * simd::kMaxClasses;
}

const double* Population::class_screens(std::size_t period) const {
  TDP_REQUIRE(period < config_.periods, "period out of range");
  return class_screen_.data() + period * simd::kMaxClasses;
}

}  // namespace tdp::fleet
