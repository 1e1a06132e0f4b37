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
  using ForecastModel<V>::forecast_into;
  using ForecastModel<V>::observe;

  SeasonalHoltWintersModel(double alpha, double beta, double gamma,
                           std::size_t period, const V& prototype)
      : alpha_(alpha),
        beta_(beta),
        gamma_(gamma),
        period_(period),
        level_(zero_like(prototype)),
        trend_(zero_like(prototype)),
        seasons_(period),
        warmup_(period),
        prev_level_(zero_like(prototype)),
        scratch_(zero_like(prototype)) {
    assert(alpha_ >= 0.0 && alpha_ <= 1.0);
    assert(beta_ >= 0.0 && beta_ <= 1.0);
    assert(gamma_ >= 0.0 && gamma_ <= 1.0);
    assert(period_ >= 2);
  }

  [[nodiscard]] bool ready() const noexcept override {
    return count_ >= period_;
  }

  void forecast_into(V& out, CellRange r) const override {
    assert(ready());
    out.assign(level_, r);
    out.add_scaled(trend_, 1.0, r);
    // season(t+1-m): the oldest live seasonal slot.
    out.add_scaled(seasons_.back(period_), 1.0, r);
  }

  void observe(const V& observed, CellRange r) override {
    if (count_ < period_) {
      warmup_.next(level_).assign(observed, r);
      return;
    }
    // Standard additive recurrences; season(t-m) is the oldest slot, which
    // the new season replaces, so it is read before it is written.
    const V& old_season = seasons_.back(period_);
    prev_level_.assign(level_, r);
    scratch_.assign(level_, r);  // level(t-1) + trend(t-1)
    scratch_.add_scaled(trend_, 1.0, r);

    level_.assign(observed, r);  // alpha*(o - season(t-m)) + ...
    level_.add_scaled(old_season, -1.0, r);
    level_.scale(alpha_, r);
    level_.add_scaled(scratch_, 1.0 - alpha_, r);

    subtract_into(scratch_, level_, prev_level_, r);  // the level's delta
    trend_.scale(1.0 - beta_, r);
    trend_.add_scaled(scratch_, beta_, r);

    subtract_into(scratch_, observed, level_, r);  // the new season
    scratch_.scale(gamma_, r);
    scratch_.add_scaled(old_season, 1.0 - gamma_, r);
    seasons_.next(level_).assign(scratch_, r);
  }

  void advance() override {
    if (count_ < period_) {
      warmup_.commit();
      ++count_;
      if (count_ == period_) initialize();
      return;
    }
    seasons_.commit();
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
  /// Once, after the m-th warm-up observation, over the whole signal.
  void initialize() {
    // level = mean of the first m observations; season_i = o_i - level.
    level_.set_zero();
    const double w = 1.0 / static_cast<double>(period_);
    for (std::size_t ago = 1; ago <= period_; ++ago) {
      level_.add_scaled(warmup_.back(ago), w);
    }
    trend_.set_zero();
    for (std::size_t ago = period_; ago >= 1; --ago) {  // oldest first
      subtract_into(seasons_.next(level_), warmup_.back(ago), level_,
                    {0, level_.cells()});
      seasons_.commit();
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
  /// Scratch for one observe(): no state, so outside transfer.
  V prev_level_;
  V scratch_;
  std::size_t count_ = 0;
};

}  // namespace scd::forecast
