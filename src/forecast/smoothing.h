// The four simple smoothing models of §3.2.1: MA, SMA, EWMA, and
// non-seasonal Holt-Winters. Each is templated over the signal space, so the
// identical code produces forecast sketches and per-flow forecasts.
#pragma once

#include <cassert>
#include <cstddef>
#include <vector>

#include "forecast/linear_space.h"
#include "forecast/model.h"
#include "forecast/ring.h"

namespace scd::forecast {

/// Moving average: S_f(t) = (1/W) * sum_{i=1..W} S_o(t-i). While fewer than
/// W observations exist the window is truncated to the available history.
template <LinearSignal V>
class MovingAverageModel final
    : public ModelBase<MovingAverageModel<V>, V> {
 public:
  using ForecastModel<V>::forecast_into;
  using ForecastModel<V>::observe;

  MovingAverageModel(std::size_t window, const V& prototype)
      : window_(window), history_(window), zero_(zero_like(prototype)) {
    assert(window_ >= 1);
  }

  [[nodiscard]] bool ready() const noexcept override { return count_ >= 1; }

  void forecast_into(V& out, CellRange r) const override {
    assert(ready());
    const std::size_t n = history_.size();
    out.set_zero(r);
    const double w = 1.0 / static_cast<double>(n);
    for (std::size_t ago = 1; ago <= n; ++ago) {
      out.add_scaled(history_.back(ago), w, r);
    }
  }

  void observe(const V& observed, CellRange r) override {
    history_.next(zero_).assign(observed, r);
  }

  void advance() override {
    history_.commit();
    ++count_;
  }

  [[nodiscard]] std::size_t observed_count() const noexcept override {
    return count_;
  }

  template <class Ar, class Self>
  static void transfer(Ar& ar, Self& self) {
    ar.field(self.count_);
    HistoryRing<V>::transfer(ar, self.history_, self.zero_);
  }

 private:
  std::size_t window_;
  HistoryRing<V> history_;
  V zero_;  // the ring's slot shape
  std::size_t count_ = 0;
};

/// S-shaped moving average: weighted MA giving the most recent half of the
/// window equal (full) weight and the earlier half linearly decayed weight
/// (§3.2.1, discussion in ref [19]). With m = ceil(W/2):
///   w_i = 1                          for i <= m   (i = intervals ago)
///   w_i = (W - i + 1) / (W - m + 1)  for i >  m
template <LinearSignal V>
class SShapedMaModel final : public ModelBase<SShapedMaModel<V>, V> {
 public:
  using ForecastModel<V>::forecast_into;
  using ForecastModel<V>::observe;

  SShapedMaModel(std::size_t window, const V& prototype)
      : window_(window), history_(window), zero_(zero_like(prototype)) {
    assert(window_ >= 1);
    weights_.resize(window_);
    const std::size_t m = (window_ + 1) / 2;
    for (std::size_t i = 1; i <= window_; ++i) {
      weights_[i - 1] =
          i <= m ? 1.0
                 : static_cast<double>(window_ - i + 1) /
                       static_cast<double>(window_ - m + 1);
    }
  }

  [[nodiscard]] bool ready() const noexcept override { return count_ >= 1; }

  void forecast_into(V& out, CellRange r) const override {
    assert(ready());
    const std::size_t n = history_.size();
    double total = 0.0;
    for (std::size_t ago = 1; ago <= n; ++ago) total += weights_[ago - 1];
    out.set_zero(r);
    for (std::size_t ago = 1; ago <= n; ++ago) {
      out.add_scaled(history_.back(ago), weights_[ago - 1] / total, r);
    }
  }

  void observe(const V& observed, CellRange r) override {
    history_.next(zero_).assign(observed, r);
  }

  void advance() override {
    history_.commit();
    ++count_;
  }

  [[nodiscard]] std::size_t observed_count() const noexcept override {
    return count_;
  }

  template <class Ar, class Self>
  static void transfer(Ar& ar, Self& self) {
    ar.field(self.count_);
    HistoryRing<V>::transfer(ar, self.history_, self.zero_);
  }

 private:
  std::size_t window_;
  HistoryRing<V> history_;
  V zero_;  // the ring's slot shape
  std::vector<double> weights_;  // weights_[i-1] = weight for "i ago"
  std::size_t count_ = 0;
};

/// EWMA: S_f(t) = alpha * S_o(t-1) + (1 - alpha) * S_f(t-1); S_f(2) = S_o(1).
template <LinearSignal V>
class EwmaModel final : public ModelBase<EwmaModel<V>, V> {
 public:
  using ForecastModel<V>::forecast_into;
  using ForecastModel<V>::observe;

  EwmaModel(double alpha, const V& prototype)
      : alpha_(alpha), forecast_(zero_like(prototype)) {
    assert(alpha_ >= 0.0 && alpha_ <= 1.0);
  }

  [[nodiscard]] bool ready() const noexcept override { return count_ >= 1; }

  void forecast_into(V& out, CellRange r) const override {
    assert(ready());
    out.assign(forecast_, r);
  }

  void observe(const V& observed, CellRange r) override {
    if (count_ == 0) {
      forecast_.assign(observed, r);  // S_f(2) = S_o(1)
    } else {
      forecast_.scale(1.0 - alpha_, r);
      forecast_.add_scaled(observed, alpha_, r);
    }
  }

  void advance() override { ++count_; }

  [[nodiscard]] std::size_t observed_count() const noexcept override {
    return count_;
  }

  template <class Ar, class Self>
  static void transfer(Ar& ar, Self& self) {
    ar.field(self.count_);
    ar.field(self.forecast_);
  }

 private:
  double alpha_;
  V forecast_;  // the forecast for the *next* interval
  std::size_t count_ = 0;
};

/// Non-seasonal Holt-Winters (§3.2.1): separate smoothing component S_s and
/// trend component S_t,
///   S_s(t) = alpha * S_o(t-1) + (1-alpha) * S_f(t-1),  S_s(2) = S_o(1)
///   S_t(t) = beta * (S_s(t) - S_s(t-1)) + (1-beta) * S_t(t-1),
///   S_t(2) = S_o(2) - S_o(1)
///   S_f(t) = S_s(t) + S_t(t)
/// The trend initialization uses S_o(2), so the first causal forecast is for
/// t = 3: ready() requires two observations.
template <LinearSignal V>
class HoltWintersModel final : public ModelBase<HoltWintersModel<V>, V> {
 public:
  using ForecastModel<V>::forecast_into;
  using ForecastModel<V>::observe;

  HoltWintersModel(double alpha, double beta, const V& prototype)
      : alpha_(alpha),
        beta_(beta),
        smooth_(zero_like(prototype)),
        trend_(zero_like(prototype)),
        first_obs_(zero_like(prototype)),
        prev_smooth_(zero_like(prototype)) {
    assert(alpha_ >= 0.0 && alpha_ <= 1.0);
    assert(beta_ >= 0.0 && beta_ <= 1.0);
  }

  [[nodiscard]] bool ready() const noexcept override { return count_ >= 2; }

  void forecast_into(V& out, CellRange r) const override {
    assert(ready());
    out.assign(smooth_, r);
    out.add_scaled(trend_, 1.0, r);
  }

  void observe(const V& observed, CellRange r) override {
    if (count_ == 0) {
      first_obs_.assign(observed, r);
      smooth_.assign(observed, r);  // S_s(2) = S_o(1)
      return;
    }
    if (count_ == 1) {
      // S_t(2) = S_o(2) - S_o(1); the pre-update forecast S_f(2) is
      // S_s(2) + S_t(2).
      subtract_into(trend_, observed, first_obs_, r);
    }
    // Advance: S_s(t+1) = alpha*S_o(t) + (1-alpha)*S_f(t), with
    // S_f(t) = S_s(t) + S_t(t) the forecast covering this observation,
    // formed in place.
    prev_smooth_.assign(smooth_, r);
    smooth_.add_scaled(trend_, 1.0, r);
    smooth_.scale(1.0 - alpha_, r);
    smooth_.add_scaled(observed, alpha_, r);
    // S_t(t+1) = beta*(S_s(t+1) - S_s(t)) + (1-beta)*S_t(t); the scratch
    // turns into the difference -S_s(t) + S_s(t+1), which is
    // S_s(t+1) - S_s(t) bit for bit.
    prev_smooth_.scale(-1.0, r);
    prev_smooth_.add_scaled(smooth_, 1.0, r);
    trend_.scale(1.0 - beta_, r);
    trend_.add_scaled(prev_smooth_, beta_, r);
  }

  void advance() override { ++count_; }

  [[nodiscard]] std::size_t observed_count() const noexcept override {
    return count_;
  }

  template <class Ar, class Self>
  static void transfer(Ar& ar, Self& self) {
    ar.field(self.count_);
    ar.field(self.smooth_);
    ar.field(self.trend_);
    ar.field(self.first_obs_);
  }

 private:
  double alpha_;
  double beta_;
  V smooth_;  // S_s for the next interval
  V trend_;   // S_t for the next interval
  V first_obs_;
  /// Scratch for S_s(t) while S_s(t+1) is formed; no state, so outside
  /// transfer.
  V prev_smooth_;
  std::size_t count_ = 0;
};

}  // namespace scd::forecast
