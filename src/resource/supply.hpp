// Resource / supply models.
//
// A Supply describes the service guarantee a processing resource gives to
// the workload under analysis: its worst-case supply bound function
// sbf(t) (least service delivered in any window of t ticks) and its exact
// long-run rate.  Four standard models are provided; all deliver
// unit-rate service while active except `dedicated`, which may be an
// integer multiple.
#pragma once

#include <string>
#include <variant>
#include <vector>

#include "base/rational.hpp"
#include "base/types.hpp"
#include "curves/staircase.hpp"

namespace strt {

/// Processor of integer speed `rate` work units per tick, always on.
struct DedicatedSupply {
  std::int64_t rate{1};
};

/// Bounded-delay partition: after at most `delay` ticks of startup, at
/// least `rate` work per tick on average:  sbf(t) = floor(rate*(t-delay))+.
struct BoundedDelaySupply {
  Rational rate{1};
  Time delay{0};
};

/// Periodic resource (Shin & Lee): `budget` ticks of unit-rate service
/// somewhere within every `period` ticks.
struct PeriodicSupply {
  Time budget{1};
  Time period{1};
};

/// TDMA slice: a fixed slot of `slot` ticks out of every `cycle`.
struct TdmaSupply {
  Time slot{1};
  Time cycle{1};
};

/// Arbitrary static cyclic schedule: available during the `true` ticks,
/// repeated with period active.size().  Generalizes TDMA to multiple
/// slots per cycle.
struct ScheduleSupply {
  std::vector<bool> active;
};

class Supply {
 public:
  using Model = std::variant<DedicatedSupply, BoundedDelaySupply,
                             PeriodicSupply, TdmaSupply, ScheduleSupply>;

  /// Why `model` is out of range (the reason its factory rejects it),
  /// or nullptr when it is valid.  Front ends check this first, so that
  /// bad input becomes a diagnostic instead of an exception.
  [[nodiscard]] static const char* invalid_reason(const Model& model);

  /// A supply of any valid model; throws std::invalid_argument with
  /// invalid_reason() otherwise.  The factories below delegate to it.
  [[nodiscard]] static Supply of(Model model);

  static Supply dedicated(std::int64_t rate);
  static Supply bounded_delay(Rational rate, Time delay);
  static Supply periodic(Time budget, Time period);
  static Supply tdma(Time slot, Time cycle);
  static Supply schedule(std::vector<bool> active);

  /// Worst-case supply bound function, materialized on [0, horizon] with
  /// the exact periodic tail attached.
  [[nodiscard]] Staircase sbf(Time horizon) const;

  /// Exact long-run service rate (work per tick).
  [[nodiscard]] Rational long_run_rate() const;

  /// Smallest horizon sbf() accepts for this model (one period, etc.).
  [[nodiscard]] Time min_horizon() const;

  [[nodiscard]] const Model& model() const { return model_; }
  [[nodiscard]] std::string describe() const;

 private:
  explicit Supply(Model m) : model_(std::move(m)) {}
  Model model_;
};

}  // namespace strt
