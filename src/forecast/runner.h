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

/// One interval of `model` over `observed`, walked in blocks of `block`
/// cells: for each block, the forecast S_f into `forecast` (once the model
/// is ready), the observation, and S_e = S_o - S_f into `error`; then the
/// model advances. Every operation is elementwise, so any block size gives
/// the bits of the whole-signal step (block >= cells). Returns whether the
/// model was ready, i.e. whether `forecast` and `error` were written.
/// `error` may be `observed` itself.
template <LinearSignal V>
bool step_blocks(ForecastModel<V>& model, const V& observed, V& forecast,
                 V& error, std::size_t block) {
  const bool ready = model.ready();
  const std::size_t n = observed.cells();
  for (std::size_t begin = 0; begin < n; begin += block) {
    const CellRange r{begin, std::min(n, begin + block)};
    if (ready) model.forecast_into(forecast, r);
    model.observe(observed, r);
    if (ready) {
      error.assign(observed, r);  // a no-op when error is observed
      error.add_scaled(forecast, -1.0, r);
    }
  }
  model.advance();
  return ready;
}

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

  /// Cells per block of step_into's walk: a block's forecast, observation,
  /// model state and error (five to nine streams of 8 B per cell) stay in
  /// L1/L2 while the model's whole operation sequence runs over them, where
  /// the whole-table sequence streams every table from memory once per
  /// operation.
  static constexpr std::size_t kStepBlock = 1024;

  /// Processes one interval's observed signal, writing the result into the
  /// caller's signals: once the model is warmed up, S_f(t) goes into
  /// `forecast` and S_e(t) = S_o(t) - S_f(t) into `error`, and it returns
  /// true; during warm-up it returns false and leaves both untouched. Both
  /// must have the observed signal's shape, and `error` may be `observed`
  /// itself (S_e is then computed over S_o in place, after the model has
  /// observed it). Walks the cells in blocks of kStepBlock (step_blocks);
  /// the models write `forecast` by assignment and add_scaled and keep
  /// their scratch, so a caller that keeps the two signals across
  /// intervals allocates nothing here once the model's history is full.
  bool step_into(const V& observed, V& forecast, V& error) {
    return step_blocks(*model_, observed, forecast, error, kStepBlock);
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
