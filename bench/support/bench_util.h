// Shared infrastructure for the figure/table reproduction binaries.
//
// Every bench binary prints, for its table or figure:
//   * a header naming the paper artifact,
//   * the data series (x, y rows) the paper plots,
//   * CHECK lines re-stating the paper's qualitative claim and whether the
//     measured shape reproduces it (PASS/FAIL).
// EXPERIMENTS.md aggregates these results.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/strutil.h"
#include "eval/intervalized.h"
#include "forecast/model_config.h"
#include "traffic/flow_record.h"

namespace scd::bench {

// ---- output helpers -------------------------------------------------------

void print_header(const std::string& artifact, const std::string& title,
                  const std::string& paper_claim);

/// Prints "series <name>: (x1, y1) (x2, y2) ..." one point per line as
/// "<name>\tx\ty" for easy plotting.
void print_series(const std::string& name,
                  const std::vector<std::pair<double, double>>& points);

/// Prints "CHECK <claim>: PASS|FAIL (<details>)" and records the result.
/// Returns ok.
bool check(bool ok, const std::string& claim, const std::string& details = "");

/// Exit code for main(): 0 if every check() so far passed.
[[nodiscard]] int finish();

// ---- data access ----------------------------------------------------------

/// Intervalized view of a router's cached trace (keys = dst IP, updates =
/// bytes — the paper's configuration). Streams are memoized per process.
const eval::IntervalizedStream& stream_for(const std::string& router,
                                           double interval_s);

/// Number of leading intervals excluded from metrics: the paper sets aside
/// the first hour for model warm-up (12 intervals at 300 s, 60 at 60 s).
[[nodiscard]] std::size_t warmup_intervals(double interval_s);

// ---- model parameters -----------------------------------------------------

/// The §3.4.2 objective, forecast::estimated_total_f2, over the intervals
/// from `warmup` on at H=1, K=8192 (the paper's grid-search configuration).
/// The stream's sketches are built once per process, like truth_for's.
[[nodiscard]] double estimated_total_energy_objective(
    const eval::IntervalizedStream& stream,
    const forecast::ModelConfig& config, std::size_t warmup);

/// Grid-searched parameters for (router, interval, kind), memoized on disk
/// next to the trace cache so the many bench binaries share one search.
forecast::ModelConfig cached_grid_model(const std::string& router,
                                        double interval_s,
                                        forecast::ModelKind kind);

/// Deterministic random parameterizations for the §5.1 "random" experiments.
[[nodiscard]] std::vector<forecast::ModelConfig> random_model_configs(
    forecast::ModelKind kind, std::size_t count, std::uint64_t seed,
    std::size_t max_window);

}  // namespace scd::bench
