// ARIMA(p, d, q) forecasting over a linear signal space (§3.2.2).
//
// Let Y(t) be the observed signal and Z(t) the d-times differenced series
// (d in {0, 1}; the paper's ARIMA0/ARIMA1). The one-step forecast is
//
//   Z_f(t) = sum_{j=1..p} AR_j * Z(t-j) + sum_{i=1..q} MA_i * e(t-i)
//   e(s)   = Z(s) - Z_f(s)
//   Y_f(t) = Z_f(t)                 (d = 0)
//   Y_f(t) = Y(t-1) + Z_f(t)        (d = 1)
//
// The constant term C is fixed at zero (see ModelConfig). Error terms that
// predate the first issued forecast are treated as zero, the standard
// conditional-sum-of-squares convention. Every operation above is a linear
// combination of past signals, which is exactly why the model runs unchanged
// on k-ary sketches (paper §3.2: sketch linearity).
#pragma once

#include <cassert>
#include <cstddef>

#include "forecast/linear_space.h"
#include "forecast/model.h"
#include "forecast/model_config.h"
#include "forecast/ring.h"

namespace scd::forecast {

template <LinearSignal V>
class ArimaModel final : public ModelBase<ArimaModel<V>, V> {
 public:
  using ForecastModel<V>::forecast_into;
  using ForecastModel<V>::observe;

  ArimaModel(const ArimaCoeffs& coeffs, const V& prototype)
      : coeffs_(coeffs),
        z_history_(static_cast<std::size_t>(coeffs.p > 0 ? coeffs.p : 1)),
        e_history_(static_cast<std::size_t>(coeffs.q > 0 ? coeffs.q : 1)),
        prev_y_(zero_like(prototype)),
        zero_(zero_like(prototype)),
        zf_(zero_like(prototype)) {
    assert(coeffs_.p >= 0 && coeffs_.p <= 2);
    assert(coeffs_.q >= 0 && coeffs_.q <= 2);
    assert(coeffs_.d == 0 || coeffs_.d == 1);
    assert(coeffs_.p + coeffs_.q >= 1);
  }

  [[nodiscard]] bool ready() const noexcept override {
    // Need all p lagged Z values (which requires p + d observations) and, for
    // d = 1, at least one observation to anchor the integration.
    const auto need =
        static_cast<std::size_t>(coeffs_.p + coeffs_.d);
    return count_ >= (need > 0 ? need : 1);
  }

  void forecast_into(V& out, CellRange r) const override {
    assert(ready());
    forecast_z(out, r);
    if (coeffs_.d == 1) out.add_scaled(prev_y_, 1.0, r);
  }

  void observe(const V& observed, CellRange r) override {
    // Z_f from the rings comes first: the slots the new Z and e take are
    // the oldest ones it reads.
    const bool forecast = ready() && have_z();
    if (forecast) forecast_z(zf_, r);
    // Z for this interval. With d = 1 the first observation yields no Z.
    if (have_z()) {
      V& z = z_history_.next(zero_);
      z.assign(observed, r);
      if (coeffs_.d == 1) z.add_scaled(prev_y_, -1.0, r);
    }
    // Forecast error e(t) = Z(t) - Z_f(t); zero before forecasts start.
    V& err = e_history_.next(zero_);
    if (forecast) {
      subtract_into(err, z_history_.next(zero_), zf_, r);
    } else {
      err.set_zero(r);
    }
    prev_y_.assign(observed, r);
  }

  void advance() override {
    if (have_z()) z_history_.commit();
    e_history_.commit();
    ++count_;
  }

  [[nodiscard]] std::size_t observed_count() const noexcept override {
    return count_;
  }

  template <class Ar, class Self>
  static void transfer(Ar& ar, Self& self) {
    ar.field(self.count_);
    HistoryRing<V>::transfer(ar, self.z_history_, self.zero_);
    HistoryRing<V>::transfer(ar, self.e_history_, self.zero_);
    ar.field(self.prev_y_);
  }

 private:
  /// Whether the interval being observed has a Z (every one but the first
  /// under d = 1).
  [[nodiscard]] bool have_z() const noexcept {
    return coeffs_.d == 0 || count_ >= 1;
  }

  /// Z_f for the next interval from the current rings (missing history = 0).
  void forecast_z(V& out, CellRange r) const {
    out.set_zero(r);
    for (int j = 1; j <= coeffs_.p; ++j) {
      const auto ago = static_cast<std::size_t>(j);
      if (ago <= z_history_.size()) {
        out.add_scaled(z_history_.back(ago), coeffs_.ar[ago - 1], r);
      }
    }
    for (int i = 1; i <= coeffs_.q; ++i) {
      const auto ago = static_cast<std::size_t>(i);
      if (ago <= e_history_.size()) {
        out.add_scaled(e_history_.back(ago), coeffs_.ma[ago - 1], r);
      }
    }
  }

  ArimaCoeffs coeffs_;
  HistoryRing<V> z_history_;
  HistoryRing<V> e_history_;
  V prev_y_;
  V zero_;  // the rings' slot shape
  /// Scratch for Z_f in observe(): no state, so outside transfer.
  V zf_;
  std::size_t count_ = 0;
};

}  // namespace scd::forecast
