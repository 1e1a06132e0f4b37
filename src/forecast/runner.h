// ForecastRunner: the per-interval driver loop of the detection engine and
// the per-flow path. Feeds observations to a model and hands back the error
// signal S_e(t) = S_o(t) - S_f(t) once the model is warmed up (§2.2). Also
// the one model-fit objective (§3.4.2), estimated_total_f2.
#pragma once

#include <algorithm>
#include <cstddef>
#include <limits>
#include <memory>
#include <optional>
#include <ranges>
#include <utility>

#include "forecast/linear_space.h"
#include "forecast/model.h"
#include "forecast/model_config.h"
#include "forecast/model_factory.h"

namespace scd::forecast {

template <LinearSignal V>
class ForecastRunner {
 public:
  ForecastRunner(const ModelConfig& config, const V& prototype)
      : model_(make_model<V>(config, prototype)) {}

  /// Result of one interval: the forecast and the error, absent during model
  /// warm-up.
  struct Step {
    V forecast;
    V error;
  };

  /// Processes one interval's observed signal, writing the result into the
  /// caller's signals: once the model is warmed up, S_f(t) goes into
  /// `forecast` and S_e(t) = S_o(t) - S_f(t) into `error`, and it returns
  /// true; during warm-up it returns false and leaves both untouched. Both
  /// must have the observed signal's shape, and `error` may be `observed`
  /// itself (S_e is then computed over S_o in place, after the model has
  /// observed it). The models write `forecast` by assignment and
  /// add_scaled, so a caller that keeps the two signals across intervals
  /// allocates nothing here.
  bool step_into(const V& observed, V& forecast, V& error) {
    const bool ready = model_->ready();
    if (ready) model_->forecast_into(forecast);
    model_->observe(observed);
    if (ready) {
      error = observed;  // a no-op when error is observed
      error.add_scaled(forecast, -1.0);
    }
    return ready;
  }

  /// step_into() into fresh signals: the forecast/error pair for this
  /// interval, or nullopt while warming up.
  [[nodiscard]] std::optional<Step> step(const V& observed) {
    if (!model_->ready()) {
      model_->observe(observed);  // all step_into does during warm-up
      return std::nullopt;
    }
    // S_e starts as a copy of S_o and is stepped in place, so the pair
    // costs two table copies on top of the step itself.
    Step s{observed, observed};
    (void)step_into(s.error, s.forecast, s.error);
    return s;
  }

  [[nodiscard]] const ForecastModel<V>& model() const noexcept { return *model_; }

  /// Field list (common/bytes.h): the model's state, the runner's only one.
  template <class Ar, class Self>
  static void transfer(Ar& ar, Self& self) {
    if constexpr (Ar::kReads) {
      self.model_->restore_state(ar);
    } else {
      self.model_->save_state(ar);
    }
  }

 private:
  std::unique_ptr<ForecastModel<V>> model_;
};

/// §3.4.2's objective: the sum of max(ESTIMATEF2(S_e(t)), 0) over the
/// intervals t >= skip of the observed sketches (ESTIMATEF2 is unbiased, not
/// nonnegative). The candidate steps over every sketch, into `forecast` and
/// `error`, which must have their shape; kept across candidates, they are
/// not reallocated. +infinity when no interval from `skip` on was forecast:
/// such a candidate would otherwise score 0, win, and never detect anything.
template <LinearSignal V, std::ranges::input_range R>
[[nodiscard]] double estimated_total_f2(const ModelConfig& candidate,
                                        const R& observed, std::size_t skip,
                                        V& forecast, V& error) {
  ForecastRunner<V> runner(candidate, forecast);  // forecast gives the shape
  double total = 0.0;
  bool forecast_any = false;
  std::size_t t = 0;
  for (const V& obs : observed) {
    if (runner.step_into(obs, forecast, error) && t >= skip) {
      total += std::max(error.estimate_f2(), 0.0);
      forecast_any = true;
    }
    ++t;
  }
  return forecast_any ? total : std::numeric_limits<double>::infinity();
}

}  // namespace scd::forecast
