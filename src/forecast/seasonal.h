// Seasonal Holt-Winters (additive) — an extension beyond the paper's six
// models. The paper's NSHW reference [9] (Brutlag) actually runs the
// seasonal variant for daily/weekly network cycles; like every model here it
// is a fixed linear combination of past observations, so it runs on sketches
// unchanged.
//
//   level(t)  = alpha * (o_t - season(t - m)) + (1-alpha) * (level + trend)
//   trend(t)  = beta * (level(t) - level(t-1)) + (1-beta) * trend(t-1)
//   season(t) = gamma * (o_t - level(t)) + (1-gamma) * season(t - m)
//   forecast(t+1) = level(t) + trend(t) + season(t + 1 - m)
//
// Initialization: the first m observations seed the level (their mean) and
// the seasonal profile (deviation of each from the mean); trend starts at
// zero. The model is ready after m observations.
#pragma once

#include <cassert>
#include <cstddef>
#include <vector>

#include "forecast/linear_space.h"
#include "forecast/model.h"
#include "forecast/ring.h"

namespace scd::forecast {

template <LinearSignal V>
class SeasonalHoltWintersModel final
    : public ModelBase<SeasonalHoltWintersModel<V>, V> {
 public:
  SeasonalHoltWintersModel(double alpha, double beta, double gamma,
                           std::size_t period, const V& prototype)
      : alpha_(alpha),
        beta_(beta),
        gamma_(gamma),
        period_(period),
        level_(zero_like(prototype)),
        trend_(zero_like(prototype)),
        seasons_(period),
        warmup_(period) {
    assert(alpha_ >= 0.0 && alpha_ <= 1.0);
    assert(beta_ >= 0.0 && beta_ <= 1.0);
    assert(gamma_ >= 0.0 && gamma_ <= 1.0);
    assert(period_ >= 2);
  }

  [[nodiscard]] bool ready() const noexcept override {
    return count_ >= period_;
  }

  void forecast_into(V& out) const override {
    assert(ready());
    out = level_;
    out.add_scaled(trend_, 1.0);
    // season(t+1-m): the oldest live seasonal slot.
    out.add_scaled(seasons_.back(period_), 1.0);
  }

  void observe(const V& observed) override {
    if (count_ < period_) {
      warmup_.push(observed);
      ++count_;
      if (count_ == period_) initialize();
      return;
    }
    // Standard additive recurrences; season(t-m) is the oldest slot.
    const V& old_season = seasons_.back(period_);
    V prev_forecast_base = level_;          // level(t-1) + trend(t-1)
    prev_forecast_base.add_scaled(trend_, 1.0);
    V prev_level = level_;

    level_ = observed;                       // alpha*(o - season(t-m)) + ...
    level_.add_scaled(old_season, -1.0);
    level_.scale(alpha_);
    level_.add_scaled(prev_forecast_base, 1.0 - alpha_);

    V delta = subtract(level_, prev_level);
    trend_.scale(1.0 - beta_);
    trend_.add_scaled(delta, beta_);

    V new_season = subtract(observed, level_);
    new_season.scale(gamma_);
    new_season.add_scaled(old_season, 1.0 - gamma_);
    seasons_.push(new_season);
    ++count_;
  }

  [[nodiscard]] std::size_t observed_count() const noexcept override {
    return count_;
  }

  /// The rings must hold what the count says: forecast_into() and
  /// initialize() index them unchecked.
  template <class Ar, class Self>
  static void transfer(Ar& ar, Self& self) {
    ar.field(self.count_);
    ar.field(self.level_);
    ar.field(self.trend_);
    HistoryRing<V>::transfer(ar, self.seasons_, self.level_);
    HistoryRing<V>::transfer(ar, self.warmup_, self.level_);
    if constexpr (Ar::kReads) {
      const bool warm = self.count_ >= self.period_;
      if (self.seasons_.size() != (warm ? self.period_ : 0) ||
          self.warmup_.size() != (warm ? self.period_ : self.count_)) {
        throw common::FieldError(
            "seasonal model state does not match its observation count");
      }
    }
  }

 private:
  void initialize() {
    // level = mean of the first m observations; season_i = o_i - level.
    V mean = zero_like(level_);
    const double w = 1.0 / static_cast<double>(period_);
    for (std::size_t ago = 1; ago <= period_; ++ago) {
      mean.add_scaled(warmup_.back(ago), w);
    }
    level_ = mean;
    trend_.set_zero();
    for (std::size_t ago = period_; ago >= 1; --ago) {  // oldest first
      seasons_.push(subtract(warmup_.back(ago), mean));
    }
  }

  double alpha_;
  double beta_;
  double gamma_;
  std::size_t period_;
  V level_;
  V trend_;
  HistoryRing<V> seasons_;
  HistoryRing<V> warmup_;
  std::size_t count_ = 0;
};

}  // namespace scd::forecast
