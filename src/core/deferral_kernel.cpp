#include "core/deferral_kernel.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <deque>
#include <limits>
#include <mutex>
#include <utility>
#include <vector>

#include "common/cyclic.hpp"
#include "common/error.hpp"
#include "core/kernel_plan.hpp"
#include "math/quadrature.hpp"
#include "obs/registry.hpp"

namespace tdp {

double lag_weight(const WaitingFunction& w, double reward, std::size_t lag,
                  LagConvention convention) {
  const double t = static_cast<double>(lag);
  if (convention == LagConvention::kPeriodStart) {
    return w.value(reward, t);
  }
  return math::integrate_gauss(
      [&w, reward](double u) { return w.value(reward, u); }, t - 1.0, t, 1);
}

double lag_weight_derivative(const WaitingFunction& w, double reward,
                             std::size_t lag, LagConvention convention) {
  const double t = static_cast<double>(lag);
  if (convention == LagConvention::kPeriodStart) {
    return w.reward_derivative(reward, t);
  }
  return math::integrate_gauss(
      [&w, reward](double u) { return w.reward_derivative(reward, u); },
      t - 1.0, t, 1);
}

void lag_weight_pair(const WaitingFunction& w, double reward, std::size_t lag,
                     LagConvention convention, double& value_out,
                     double& derivative_out) {
  const double t = static_cast<double>(lag);
  if (convention == LagConvention::kPeriodStart) {
    w.value_and_reward_derivative(reward, t, value_out, derivative_out);
    return;
  }
  // One sweep over the Gauss nodes of [t-1, t], accumulating both integrals
  // with the exact arithmetic of integrate_gauss (1 segment) so each sum is
  // bitwise identical to the corresponding separate call.
  const double h = t - (t - 1.0);
  const double mid = (t - 1.0) + 0.5 * h;
  const double half = 0.5 * h;
  double vsum = 0.0;
  double dsum = 0.0;
  for (std::size_t k = 0; k < math::kGauss8Nodes.size(); ++k) {
    const double u = mid + half * math::kGauss8Nodes[k];
    double v = 0.0;
    double d = 0.0;
    w.value_and_reward_derivative(reward, u, v, d);
    vsum += math::kGauss8Weights[k] * v;
    dsum += math::kGauss8Weights[k] * d;
  }
  value_out = vsum * half;
  derivative_out = dsum * half;
}

namespace {

/// Bounded FIFO memo of immutable values shared by shared_ptr. The mutex
/// guards lookups and insertions only; a missing value is built outside
/// it, and if another thread inserted the same key meanwhile, the cached
/// value wins so equal keys share one value. A key that names an object
/// must hold it (a shared_ptr), so a cached address can never alias a new
/// object allocated where a freed one lived.
template <typename Key, typename Value>
class BoundedMemo {
 public:
  static constexpr std::size_t kCapacity = 64;

  /// The value cached under `key`, else `build()`, cached. `hit`, when
  /// given, reports whether the first lookup found it.
  template <typename Build>
  std::shared_ptr<const Value> get(Key key, Build&& build,
                                   bool* hit = nullptr) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (auto found = find(key)) {
        if (hit != nullptr) *hit = true;
        return found;
      }
    }
    if (hit != nullptr) *hit = false;
    std::shared_ptr<const Value> value = build();
    std::lock_guard<std::mutex> lock(mutex_);
    if (auto found = find(key)) return found;
    entries_.emplace_back(std::move(key), value);
    if (entries_.size() > kCapacity) entries_.pop_front();
    return value;
  }

  /// The most recently inserted value (null while empty).
  std::shared_ptr<const Value> newest() {
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.empty() ? nullptr : entries_.back().second;
  }

 private:
  std::shared_ptr<const Value> find(const Key& key) const {
    for (const auto& [k, value] : entries_) {
      if (k == key) return value;
    }
    return nullptr;
  }

  std::mutex mutex_;
  std::deque<std::pair<Key, std::shared_ptr<const Value>>> entries_;
};

/// Fingerprint of a demand snapshot: convention, period structure, the
/// identity of every waiting-function object, and the exact bit pattern of
/// every volume. Exact equality (not just hash equality) gates cache hits;
/// the hash only skips most unequal keys cheaply. The objects named by
/// their addresses stay alive in the cached state's class lists.
struct KernelKey {
  std::vector<std::uint64_t> words;
  std::uint64_t hash = 0;

  bool operator==(const KernelKey& other) const {
    return hash == other.hash && words == other.words;
  }
};

KernelKey make_key(const DemandProfile& demand, LagConvention convention) {
  KernelKey key;
  const std::size_t n = demand.periods();
  key.words.reserve(2 + 3 * n);
  key.words.push_back(static_cast<std::uint64_t>(convention));
  key.words.push_back(static_cast<std::uint64_t>(n));
  for (std::size_t i = 0; i < n; ++i) {
    const auto& classes = demand.classes(i);
    key.words.push_back(static_cast<std::uint64_t>(classes.size()));
    for (const SessionClass& sc : classes) {
      key.words.push_back(
          static_cast<std::uint64_t>(
              reinterpret_cast<std::uintptr_t>(sc.waiting.get())));
      key.words.push_back(std::bit_cast<std::uint64_t>(sc.volume));
    }
  }
  key.hash = 1469598103934665603ull;  // FNV-1a offset basis
  for (std::uint64_t w : key.words) {
    key.hash ^= w;
    key.hash *= 1099511628211ull;
  }
  return key;
}

/// One waiting function's unit-reward lag weights under one convention.
struct UnitWeightKey {
  WaitingFunctionPtr waiting;  ///< held, so the address cannot be reused
  std::size_t periods = 0;
  LagConvention convention = LagConvention::kPeriodStart;

  bool operator==(const UnitWeightKey& other) const {
    return waiting == other.waiting && periods == other.periods &&
           convention == other.convention;
  }
};

/// weights[lag] = lag_weight(wf, 1.0, lag, convention) for lag in [1, n);
/// lag 0 is unused (from == to is never a deferral). Under kUniformArrival
/// the UniformLagWeightTable reproduces the quadrature's arithmetic
/// exactly, at one pow per Gauss node instead of eight virtual calls.
std::vector<double> unit_lag_weights(const UnitWeightKey& key) {
  const std::size_t n = key.periods;
  std::vector<double> weights(n, 0.0);
  if (key.convention == LagConvention::kUniformArrival) {
    const UniformLagWeightTable table(key.waiting, n);
    for (std::size_t lag = 1; lag < n; ++lag) {
      weights[lag] = table.weight(1.0, lag);
    }
  } else {
    for (std::size_t lag = 1; lag < n; ++lag) {
      weights[lag] = lag_weight(*key.waiting, 1.0, lag, key.convention);
    }
  }
  return weights;
}

/// Waiting-function objects are immutable and shared by every profile
/// rescaled from one another (the online pricer rebuilds its kernel on
/// every observation), so their unit weights are computed once per object,
/// not once per kernel build.
std::shared_ptr<const std::vector<double>> cached_unit_weights(
    const UnitWeightKey& key) {
  static BoundedMemo<UnitWeightKey, std::vector<double>> memo;
  return memo.get(key, [&key] {
    return std::make_shared<const std::vector<double>>(unit_lag_weights(key));
  });
}

/// Memo effectiveness lives in the metrics registry (always on — the
/// static DeferralKernel::cache_hits()/cache_misses() accessors are views
/// over these counters and must work with telemetry disabled too).
obs::Counter& memo_hits_counter() {
  static obs::Counter& counter =
      obs::Registry::global().counter("kernel.memo_hits_total");
  return counter;
}

obs::Counter& memo_misses_counter() {
  static obs::Counter& counter =
      obs::Registry::global().counter("kernel.memo_misses_total");
  return counter;
}

}  // namespace

/// Immutable shared construction state. The memo cache retains recently
/// built states (including their waiting-function shared_ptrs, so a cached
/// pointer-identity key can never alias a new object at a reused address).
struct DeferralKernelState {
  std::size_t periods = 0;
  LagConvention convention = LagConvention::kPeriodStart;
  bool linear = false;
  std::vector<std::vector<SessionClass>> classes;
  std::vector<double> unit;         // [from * n + to], empty unless linear
  std::vector<double> unit_inflow;  // [to], empty unless linear

  // Lazily computed, memoized per state.
  mutable std::once_flag safe_reward_once;
  mutable double safe_reward = 0.0;
  mutable std::once_flag plan_once;
  mutable std::shared_ptr<const KernelPlan> plan;
};

namespace {

/// Same waiting-function objects and volume bit patterns, in order.
bool same_classes(const std::vector<SessionClass>& a,
                  const std::vector<SessionClass>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t c = 0; c < a.size(); ++c) {
    if (a[c].waiting != b[c].waiting ||
        std::bit_cast<std::uint64_t>(a[c].volume) !=
            std::bit_cast<std::uint64_t>(b[c].volume)) {
      return false;
    }
  }
  return true;
}

/// Builds the state of `demand`; `donor`, when given, is an existing state
/// whose unit-table rows are copied wherever they provably equal the ones
/// this build would compute.
std::shared_ptr<const DeferralKernelState> build_state(
    const DemandProfile& demand, LagConvention convention,
    const DeferralKernelState* donor) {
  auto state = std::make_shared<DeferralKernelState>();
  state->periods = demand.periods();
  state->convention = convention;
  state->classes.reserve(state->periods);
  state->linear = true;
  for (std::size_t i = 0; i < state->periods; ++i) {
    state->classes.push_back(demand.classes(i));
    for (const SessionClass& sc : state->classes.back()) {
      state->linear = state->linear && sc.waiting->is_linear_in_reward();
    }
  }

  if (!state->linear) return state;

  const std::size_t n = state->periods;
  // Each distinct waiting function's cached unit weights, resolved once per
  // (period, class) rather than once per (pair, class).
  std::vector<std::pair<const WaitingFunction*,
                        std::shared_ptr<const std::vector<double>>>>
      weights;
  const auto unit_weights = [&](const WaitingFunctionPtr& wf) {
    for (const auto& [function, table] : weights) {
      if (function == wf.get()) return table->data();
    }
    weights.emplace_back(wf.get(), cached_unit_weights({wf, n, convention}));
    return weights.back().second->data();
  };

  // A row of the unit table depends on its own period's classes alone, so
  // a row whose classes match the donor's bit for bit is copied from it.
  // The online pricer rescales one period per observation: all other rows
  // of its new kernel are the previous kernel's.
  const bool reuse = donor != nullptr && donor->linear &&
                     donor->periods == n && donor->convention == convention;

  // A computed row accumulates class by class across all its cells at
  // once: the cells are independent lanes, and each still sums its classes
  // in class order from 0.0, exactly as the per-pair reference does. The
  // two runs of `to` on either side of the diagonal read ascending lags.
  state->unit.assign(n * n, 0.0);
  state->unit_inflow.assign(n, 0.0);
  for (std::size_t from = 0; from < n; ++from) {
    double* row = &state->unit[from * n];
    if (reuse && same_classes(state->classes[from], donor->classes[from])) {
      std::copy_n(&donor->unit[from * n], n, row);
    } else {
      for (const SessionClass& sc : state->classes[from]) {
        const double* w = unit_weights(sc.waiting);
        for (std::size_t to = from + 1; to < n; ++to) {
          row[to] += sc.volume * w[to - from];
        }
        for (std::size_t to = 0; to < from; ++to) {
          row[to] += sc.volume * w[to + n - from];
        }
      }
    }
    for (std::size_t to = 0; to < n; ++to) {
      if (to != from) state->unit_inflow[to] += row[to];
    }
  }
  return state;
}

/// Kernels built from bitwise-identical profiles share one state; a new
/// state borrows unchanged rows from the most recently built one.
std::shared_ptr<const DeferralKernelState> cached_state(
    const DemandProfile& demand, LagConvention convention) {
  static BoundedMemo<KernelKey, DeferralKernelState> memo;
  bool hit = false;
  auto state = memo.get(
      make_key(demand, convention),
      [&] { return build_state(demand, convention, memo.newest().get()); },
      &hit);
  (hit ? memo_hits_counter() : memo_misses_counter()).add_always(1);
  return state;
}

}  // namespace

DeferralKernel::DeferralKernel(const DemandProfile& demand,
                               LagConvention convention)
    : periods_(demand.periods()),
      convention_(convention),
      state_(cached_state(demand, convention)) {
  linear_ = state_->linear;
}

double DeferralKernel::pair_volume(std::size_t from, std::size_t to,
                                   double reward) const {
  TDP_REQUIRE(from < periods_ && to < periods_ && from != to,
              "invalid period pair");
  if (reward <= 0.0) return 0.0;
  if (linear_) return state_->unit[from * periods_ + to] * reward;
  const std::size_t lag = cyclic_lag(from, to, periods_);
  double volume = 0.0;
  for (const SessionClass& sc : state_->classes[from]) {
    volume += sc.volume * lag_weight(*sc.waiting, reward, lag, convention_);
  }
  return volume;
}

double DeferralKernel::pair_volume_derivative(std::size_t from,
                                              std::size_t to,
                                              double reward) const {
  TDP_REQUIRE(from < periods_ && to < periods_ && from != to,
              "invalid period pair");
  if (linear_) return state_->unit[from * periods_ + to];
  const std::size_t lag = cyclic_lag(from, to, periods_);
  double deriv = 0.0;
  for (const SessionClass& sc : state_->classes[from]) {
    deriv += sc.volume *
             lag_weight_derivative(*sc.waiting, reward, lag, convention_);
  }
  return deriv;
}

double DeferralKernel::inflow(std::size_t into, double reward) const {
  TDP_REQUIRE(into < periods_, "period out of range");
  if (reward <= 0.0) return 0.0;
  if (linear_) return state_->unit_inflow[into] * reward;
  double total = 0.0;
  for (std::size_t from = 0; from < periods_; ++from) {
    if (from == into) continue;
    total += pair_volume(from, into, reward);
  }
  return total;
}

double DeferralKernel::inflow_derivative(std::size_t into,
                                         double reward) const {
  TDP_REQUIRE(into < periods_, "period out of range");
  if (linear_) return state_->unit_inflow[into];
  double total = 0.0;
  for (std::size_t from = 0; from < periods_; ++from) {
    if (from == into) continue;
    total += pair_volume_derivative(from, into, reward);
  }
  return total;
}

double DeferralKernel::outflow(std::size_t from,
                               const std::vector<double>& rewards) const {
  TDP_REQUIRE(from < periods_, "period out of range");
  TDP_REQUIRE(rewards.size() == periods_, "reward vector size mismatch");
  double total = 0.0;
  for (std::size_t to = 0; to < periods_; ++to) {
    if (to == from) continue;
    if (linear_) {
      if (rewards[to] > 0.0) {
        total += state_->unit[from * periods_ + to] * rewards[to];
      }
    } else {
      total += pair_volume(from, to, rewards[to]);
    }
  }
  return total;
}

double DeferralKernel::max_safe_reward() const {
  std::call_once(state_->safe_reward_once, [this] {
    double cap = std::numeric_limits<double>::infinity();
    std::vector<double> demand(periods_, 0.0);
    for (std::size_t i = 0; i < periods_; ++i) {
      for (const SessionClass& sc : state_->classes[i]) {
        demand[i] += sc.volume;
      }
    }

    if (linear_) {
      for (std::size_t i = 0; i < periods_; ++i) {
        double unit_out = 0.0;
        for (std::size_t m = 0; m < periods_; ++m) {
          if (m != i) unit_out += state_->unit[i * periods_ + m];
        }
        if (unit_out > 0.0 && demand[i] > 0.0) {
          cap = std::min(cap, demand[i] / unit_out);
        }
      }
      state_->safe_reward = cap;
      return;
    }

    // Nonlinear: bisection per period on outflow(uniform r) <= demand.
    for (std::size_t i = 0; i < periods_; ++i) {
      if (demand[i] <= 0.0) continue;
      auto outflow_at = [this, i](double r) {
        return outflow(i, std::vector<double>(periods_, r));
      };
      double hi = 1.0;
      while (outflow_at(hi) < demand[i] && hi < 1e9) hi *= 2.0;
      if (hi >= 1e9) continue;  // never saturates
      double lo = 0.0;
      for (int iter = 0; iter < 60; ++iter) {
        const double mid = 0.5 * (lo + hi);
        (outflow_at(mid) < demand[i] ? lo : hi) = mid;
      }
      cap = std::min(cap, lo);
    }
    state_->safe_reward = cap;
  });
  return state_->safe_reward;
}

std::shared_ptr<const KernelPlan> DeferralKernel::plan() const {
  std::call_once(state_->plan_once,
                 [this] { state_->plan = std::make_shared<KernelPlan>(*this); });
  return state_->plan;
}

const std::vector<SessionClass>& DeferralKernel::classes(
    std::size_t period) const {
  TDP_REQUIRE(period < periods_, "period out of range");
  return state_->classes[period];
}

const std::vector<double>& DeferralKernel::unit_table() const {
  return state_->unit;
}

const std::vector<double>& DeferralKernel::unit_inflow_table() const {
  return state_->unit_inflow;
}

const void* DeferralKernel::state_id() const { return state_.get(); }

std::uint64_t DeferralKernel::cache_hits() {
  return memo_hits_counter().value();
}

std::uint64_t DeferralKernel::cache_misses() {
  return memo_misses_counter().value();
}

}  // namespace tdp
