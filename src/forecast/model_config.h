// Forecast model identification and parameters (paper §3.2).
#pragma once

#include <array>
#include <cstddef>
#include <string>

namespace scd::forecast {

/// The six univariate forecasting models of §3.2, plus seasonal
/// Holt-Winters as this library's extension (see forecast/seasonal.h).
enum class ModelKind {
  kMovingAverage,          // MA(W)
  kSShapedMA,              // SMA(W) — equal recent half, linear-decay tail
  kEwma,                   // EWMA(alpha)
  kHoltWinters,            // non-seasonal Holt-Winters (alpha, beta)
  kArima0,                 // ARIMA(p<=2, d=0, q<=2)
  kArima1,                 // ARIMA(p<=2, d=1, q<=2)
  kSeasonalHoltWinters,    // extension: additive seasonal HW (alpha, beta,
                           // gamma, period)
};

[[nodiscard]] const char* model_kind_name(ModelKind kind) noexcept;

/// The paper's six kinds in paper order (MA, SMA, EWMA, NSHW, ARIMA0,
/// ARIMA1); the seasonal extension is deliberately excluded so evaluation
/// sweeps reproduce the paper's model set.
[[nodiscard]] std::array<ModelKind, 6> all_model_kinds() noexcept;

/// ARIMA(p, d, q) coefficients. Only p, q <= 2 and d <= 1 are supported,
/// matching the paper's ARIMA0/ARIMA1 restriction. The constant term is
/// fixed at zero: a per-key constant is not representable as a single linear
/// combination of sketches.
struct ArimaCoeffs {
  int p = 1;
  int d = 0;
  int q = 0;
  std::array<double, 2> ar{0.0, 0.0};
  std::array<double, 2> ma{0.0, 0.0};
};

/// AR stationarity: roots of 1 - ar1*x - ar2*x^2 outside the unit circle.
[[nodiscard]] bool is_stationary(const ArimaCoeffs& c) noexcept;
/// MA invertibility: roots of 1 + ma1*x + ma2*x^2 outside the unit circle.
[[nodiscard]] bool is_invertible(const ArimaCoeffs& c) noexcept;

/// The longest history, in intervals, a model may keep (an MA or SMA
/// window, a seasonal period): each slot can hold a whole signal.
inline constexpr std::size_t kMaxHistory = std::size_t{1} << 16;

/// Full parameter set for any of the six models; the fields used depend on
/// `kind`. Produced by hand, by random sampling (Figures 1-3), or by grid
/// search (§3.4.2).
struct ModelConfig {
  ModelKind kind = ModelKind::kEwma;
  std::size_t window = 1;     // MA, SMA
  double alpha = 0.5;         // EWMA, NSHW, SHW
  double beta = 0.5;          // NSHW, SHW
  double gamma = 0.5;         // SHW (seasonal smoothing)
  std::size_t period = 24;    // SHW (season length in intervals)
  ArimaCoeffs arima{};        // ARIMA0, ARIMA1

  [[nodiscard]] std::string to_string() const;
  /// True iff the parameters are in-range for `kind` (window, period <=
  /// kMaxHistory, alpha/beta in [0,1], ARIMA stationary + invertible).
  [[nodiscard]] bool valid() const noexcept;

  /// Field list (common/bytes.h); a reader checks the result with valid().
  template <class Ar, class Self>
  static void transfer(Ar& ar, Self& m) {
    ar.field(m.kind);
    ar.field(m.window);
    ar.field(m.alpha);
    ar.field(m.beta);
    ar.field(m.gamma);
    ar.field(m.period);
    ar.field(m.arima.p);
    ar.field(m.arima.d);
    ar.field(m.arima.q);
    ar.field(m.arima.ar);
    ar.field(m.arima.ma);
  }
};

}  // namespace scd::forecast
