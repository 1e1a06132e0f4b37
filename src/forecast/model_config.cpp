#include "forecast/model_config.h"

#include <cmath>

#include "common/strutil.h"

namespace scd::forecast {

const char* model_kind_name(ModelKind kind) noexcept {
  switch (kind) {
    case ModelKind::kMovingAverage: return "MA";
    case ModelKind::kSShapedMA: return "SMA";
    case ModelKind::kEwma: return "EWMA";
    case ModelKind::kHoltWinters: return "NSHW";
    case ModelKind::kArima0: return "ARIMA0";
    case ModelKind::kArima1: return "ARIMA1";
    case ModelKind::kSeasonalHoltWinters: return "SHW";
  }
  return "?";
}

std::array<ModelKind, 6> all_model_kinds() noexcept {
  return {ModelKind::kMovingAverage, ModelKind::kSShapedMA, ModelKind::kEwma,
          ModelKind::kHoltWinters, ModelKind::kArima0, ModelKind::kArima1};
}

namespace {
/// Roots of 1 - c1*x - c2*x^2 lie outside the unit circle iff
/// c1 + c2 < 1, c2 - c1 < 1 and |c2| < 1 (the AR(2) stationarity triangle);
/// degenerates to |c1| < 1 when c2 == 0.
bool triangle_condition(double c1, double c2) noexcept {
  if (c2 == 0.0) return std::abs(c1) < 1.0;
  return (c1 + c2 < 1.0) && (c2 - c1 < 1.0) && (std::abs(c2) < 1.0);
}
}  // namespace

bool is_stationary(const ArimaCoeffs& c) noexcept {
  const double ar1 = c.p >= 1 ? c.ar[0] : 0.0;
  const double ar2 = c.p >= 2 ? c.ar[1] : 0.0;
  return triangle_condition(ar1, ar2);
}

bool is_invertible(const ArimaCoeffs& c) noexcept {
  // 1 + ma1*x + ma2*x^2 has roots outside the unit circle iff the same
  // triangle holds for (-ma1, -ma2).
  const double ma1 = c.q >= 1 ? c.ma[0] : 0.0;
  const double ma2 = c.q >= 2 ? c.ma[1] : 0.0;
  return triangle_condition(-ma1, -ma2);
}

std::string ModelConfig::to_string() const {
  using scd::common::str_format;
  switch (kind) {
    case ModelKind::kMovingAverage:
      return str_format("MA(W=%zu)", window);
    case ModelKind::kSShapedMA:
      return str_format("SMA(W=%zu)", window);
    case ModelKind::kEwma:
      return str_format("EWMA(alpha=%.4f)", alpha);
    case ModelKind::kHoltWinters:
      return str_format("NSHW(alpha=%.4f, beta=%.4f)", alpha, beta);
    case ModelKind::kArima0:
    case ModelKind::kArima1:
      return str_format("ARIMA(p=%d,d=%d,q=%d; ar=[%.3f,%.3f], ma=[%.3f,%.3f])",
                        arima.p, arima.d, arima.q, arima.ar[0], arima.ar[1],
                        arima.ma[0], arima.ma[1]);
    case ModelKind::kSeasonalHoltWinters:
      return str_format("SHW(alpha=%.4f, beta=%.4f, gamma=%.4f, m=%zu)", alpha,
                        beta, gamma, period);
  }
  return "?";
}

bool ModelConfig::valid() const noexcept {
  switch (kind) {
    case ModelKind::kMovingAverage:
    case ModelKind::kSShapedMA:
      return window >= 1 && window <= kMaxHistory;
    case ModelKind::kEwma:
      return alpha >= 0.0 && alpha <= 1.0;
    case ModelKind::kHoltWinters:
      return alpha >= 0.0 && alpha <= 1.0 && beta >= 0.0 && beta <= 1.0;
    case ModelKind::kArima0:
    case ModelKind::kArima1: {
      const bool order_ok = arima.p >= 0 && arima.p <= 2 && arima.q >= 0 &&
                            arima.q <= 2 && arima.d >= 0 && arima.d <= 1 &&
                            (arima.p + arima.q) >= 1 &&
                            arima.d == (kind == ModelKind::kArima1 ? 1 : 0);
      return order_ok && is_stationary(arima) && is_invertible(arima);
    }
    case ModelKind::kSeasonalHoltWinters:
      return alpha >= 0.0 && alpha <= 1.0 && beta >= 0.0 && beta <= 1.0 &&
             gamma >= 0.0 && gamma <= 1.0 && period >= 2 &&
             period <= kMaxHistory;
  }
  return false;
}

}  // namespace scd::forecast
