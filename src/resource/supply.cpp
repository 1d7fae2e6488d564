#include "resource/supply.hpp"

#include <algorithm>
#include <sstream>

#include "base/assert.hpp"
#include "curves/builders.hpp"

namespace strt {

const char* Supply::invalid_reason(const Model& model) {
  return std::visit(
      [](const auto& m) -> const char* {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, DedicatedSupply>) {
          if (m.rate < 1) return "dedicated rate must be >= 1";
        } else if constexpr (std::is_same_v<T, BoundedDelaySupply>) {
          if (m.rate <= Rational(0)) {
            return "bounded-delay rate must be positive";
          }
          if (m.delay < Time(0)) return "bounded-delay latency must be >= 0";
        } else if constexpr (std::is_same_v<T, PeriodicSupply>) {
          if (m.budget < Time(1)) return "budget must be >= 1";
          if (m.budget > m.period) return "budget must fit in the period";
        } else if constexpr (std::is_same_v<T, TdmaSupply>) {
          if (m.slot < Time(1)) return "slot must be >= 1";
          if (m.slot > m.cycle) return "slot must fit in the cycle";
        } else {
          if (m.active.empty()) return "schedule must have at least one tick";
          if (std::find(m.active.begin(), m.active.end(), true) ==
              m.active.end()) {
            return "schedule must have an active tick";
          }
        }
        return nullptr;
      },
      model);
}

Supply Supply::of(Model model) {
  const char* why = invalid_reason(model);
  STRT_REQUIRE(why == nullptr, why);
  return Supply(std::move(model));
}

Supply Supply::dedicated(std::int64_t rate) {
  return of(DedicatedSupply{rate});
}

Supply Supply::bounded_delay(Rational rate, Time delay) {
  return of(BoundedDelaySupply{rate, delay});
}

Supply Supply::periodic(Time budget, Time period) {
  return of(PeriodicSupply{budget, period});
}

Supply Supply::tdma(Time slot, Time cycle) {
  return of(TdmaSupply{slot, cycle});
}

Supply Supply::schedule(std::vector<bool> active) {
  return of(ScheduleSupply{std::move(active)});
}

Staircase Supply::sbf(Time horizon) const {
  STRT_REQUIRE(horizon >= min_horizon(),
               "horizon below the model's minimum (see min_horizon())");
  return std::visit(
      [&](const auto& m) -> Staircase {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, DedicatedSupply>) {
          return curve::dedicated(m.rate, horizon);
        } else if constexpr (std::is_same_v<T, BoundedDelaySupply>) {
          return curve::rate_latency(m.rate, m.delay, horizon);
        } else if constexpr (std::is_same_v<T, PeriodicSupply>) {
          return curve::periodic_resource(m.budget, m.period, horizon);
        } else if constexpr (std::is_same_v<T, TdmaSupply>) {
          return curve::tdma_supply(m.slot, m.cycle, horizon);
        } else {
          return curve::schedule_supply(m.active, horizon);
        }
      },
      model_);
}

Rational Supply::long_run_rate() const {
  return std::visit(
      [](const auto& m) -> Rational {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, DedicatedSupply>) {
          return Rational(m.rate);
        } else if constexpr (std::is_same_v<T, BoundedDelaySupply>) {
          return m.rate;
        } else if constexpr (std::is_same_v<T, PeriodicSupply>) {
          return Rational(m.budget.count(), m.period.count());
        } else if constexpr (std::is_same_v<T, TdmaSupply>) {
          return Rational(m.slot.count(), m.cycle.count());
        } else {
          std::int64_t on = 0;
          for (const bool a : m.active) on += a ? 1 : 0;
          return Rational(on, static_cast<std::int64_t>(m.active.size()));
        }
      },
      model_);
}

Time Supply::min_horizon() const {
  return std::visit(
      [](const auto& m) -> Time {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, DedicatedSupply>) {
          return Time(1);
        } else if constexpr (std::is_same_v<T, BoundedDelaySupply>) {
          return m.delay + Time(m.rate.den());
        } else if constexpr (std::is_same_v<T, PeriodicSupply>) {
          return m.period + m.period;
        } else if constexpr (std::is_same_v<T, TdmaSupply>) {
          return m.cycle;
        } else {
          return Time(static_cast<std::int64_t>(m.active.size()));
        }
      },
      model_);
}

std::string Supply::describe() const {
  std::ostringstream os;
  std::visit(
      [&](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, DedicatedSupply>) {
          os << "dedicated(rate=" << m.rate << ")";
        } else if constexpr (std::is_same_v<T, BoundedDelaySupply>) {
          os << "bounded_delay(rate=" << m.rate << ", delay=" << m.delay
             << ")";
        } else if constexpr (std::is_same_v<T, PeriodicSupply>) {
          os << "periodic(budget=" << m.budget << ", period=" << m.period
             << ")";
        } else if constexpr (std::is_same_v<T, TdmaSupply>) {
          os << "tdma(slot=" << m.slot << ", cycle=" << m.cycle << ")";
        } else {
          os << "schedule(mask=";
          for (const bool a : m.active) os << (a ? '1' : '0');
          os << ")";
        }
      },
      model_);
  return os.str();
}

}  // namespace strt
