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
  ArimaModel(const ArimaCoeffs& coeffs, const V& prototype)
      : coeffs_(coeffs),
        z_history_(static_cast<std::size_t>(coeffs.p > 0 ? coeffs.p : 1)),
        e_history_(static_cast<std::size_t>(coeffs.q > 0 ? coeffs.q : 1)),
        prev_y_(zero_like(prototype)),
        zero_(zero_like(prototype)) {
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

  void forecast_into(V& out) const override {
    assert(ready());
    forecast_z(out);
    if (coeffs_.d == 1) out.add_scaled(prev_y_, 1.0);
  }

  void observe(const V& observed) override {
    const bool was_ready = ready();
    // Z for this interval. With d = 1 the first observation yields no Z.
    const bool have_z = coeffs_.d == 0 || count_ >= 1;
    V z = zero_;
    if (have_z) {
      z = observed;
      if (coeffs_.d == 1) z.add_scaled(prev_y_, -1.0);
    }
    // Forecast error e(t) = Z(t) - Z_f(t); zero before forecasts start.
    V err = zero_;
    if (was_ready && have_z) {
      V zf = zero_;
      forecast_z(zf);
      err = subtract(z, zf);
    }
    if (have_z) z_history_.push(z);
    e_history_.push(err);
    prev_y_ = observed;
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
  /// Z_f for the next interval from the current rings (missing history = 0).
  void forecast_z(V& out) const {
    out = zero_;
    for (int j = 1; j <= coeffs_.p; ++j) {
      const auto ago = static_cast<std::size_t>(j);
      if (ago <= z_history_.size()) {
        out.add_scaled(z_history_.back(ago), coeffs_.ar[ago - 1]);
      }
    }
    for (int i = 1; i <= coeffs_.q; ++i) {
      const auto ago = static_cast<std::size_t>(i);
      if (ago <= e_history_.size()) {
        out.add_scaled(e_history_.back(ago), coeffs_.ma[ago - 1]);
      }
    }
  }

  ArimaCoeffs coeffs_;
  HistoryRing<V> z_history_;
  HistoryRing<V> e_history_;
  V prev_y_;
  V zero_;
  std::size_t count_ = 0;
};

}  // namespace scd::forecast
