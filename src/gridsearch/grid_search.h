// Multi-pass grid search for forecast-model parameters (§3.4.2, §4.2).
//
// The objective is supplied by the caller — in the paper, and in the engine's
// refit and the benches, forecast::estimated_total_f2: the estimated total
// energy sum_t ESTIMATEF2(S_e(t)) of the forecast errors. The search:
//   * integral windows (MA, SMA): exhaustive sweep of W in [1, max_window];
//   * continuous parameters (EWMA, NSHW): `passes` passes, each dividing the
//     current range into `smoothing_divisions` parts and re-centering on the
//     best point (paper: 10 parts, 2 passes);
//   * ARIMA: the same per-coefficient refinement with `arima_divisions`
//     parts (paper: 7, to bound the larger search space), over every order
//     (p, q) with p, q <= 2, p + q >= 1, skipping coefficient points that
//     violate stationarity/invertibility.
#pragma once

#include <cstddef>
#include <functional>

#include "forecast/model_config.h"

namespace scd::gridsearch {

struct GridSearchOptions {
  int passes = 2;
  int smoothing_divisions = 10;
  int arima_divisions = 7;
  /// Maximum MA/SMA window; paper uses 10 for 300 s intervals, 12 for 60 s.
  std::size_t max_window = 10;
  /// Season length (intervals) used when searching the seasonal
  /// Holt-Winters extension; the period itself is not searched.
  std::size_t season_period = 24;
};

/// Maps a candidate parameterization to its objective value (lower = better).
using Objective = std::function<double(const scd::forecast::ModelConfig&)>;

struct GridSearchResult {
  scd::forecast::ModelConfig best;
  double best_objective = 0.0;
  std::size_t evaluations = 0;
};

/// Finds the parameterization of `kind` minimizing `objective`.
[[nodiscard]] GridSearchResult grid_search(scd::forecast::ModelKind kind,
                                           const Objective& objective,
                                           const GridSearchOptions& options = {});

}  // namespace scd::gridsearch
