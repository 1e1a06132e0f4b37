#include "gridsearch/grid_search.h"

#include <algorithm>
#include <array>
#include <limits>
#include <vector>

namespace scd::gridsearch {

using scd::forecast::ModelConfig;
using scd::forecast::ModelKind;

namespace {

struct Range {
  double lo;
  double hi;
};

/// Every ARIMA order with p, q <= 2 and at least one coefficient.
constexpr std::array<std::pair<int, int>, 8> kArimaOrders{
    {{1, 0}, {0, 1}, {1, 1}, {2, 0}, {0, 2}, {2, 1}, {1, 2}, {2, 2}}};

/// The first candidate offered, then any with a strictly lower objective.
struct Best {
  bool found = false;
  double value = std::numeric_limits<double>::infinity();
  ModelConfig config;
  std::vector<double> point;

  void offer(double v, const ModelConfig& c, const std::vector<double>& p) {
    if (found && !(v < value)) return;
    found = true;
    value = v;
    config = c;
    point = p;
  }
};

/// Builds a ModelConfig from a point in coefficient space; returns false if
/// the point is invalid (e.g. non-stationary ARIMA).
using PointBuilder =
    std::function<bool(const std::vector<double>&, ModelConfig&)>;

/// Grid search over one coefficient space, counting evaluations.
struct Sweep {
  const Objective& objective;
  const PointBuilder& builder;
  int divisions;
  std::size_t evaluations = 0;

  /// Evaluates every valid point of the Cartesian grid over `ranges`, with
  /// `divisions` points per dimension, the first dimension outermost.
  void grid(const std::vector<Range>& ranges, std::vector<double>& point,
            std::size_t dim, Best& best) {
    if (dim == ranges.size()) {
      ModelConfig config;
      if (!builder(point, config)) return;
      best.offer(objective(config), config, point);
      ++evaluations;
      return;
    }
    const Range& r = ranges[dim];
    for (int i = 0; i < divisions; ++i) {
      point[dim] =
          divisions == 1
              ? 0.5 * (r.lo + r.hi)
              : r.lo + (r.hi - r.lo) * static_cast<double>(i) /
                           static_cast<double>(divisions - 1);
      grid(ranges, point, dim + 1, best);
    }
  }

  /// Multi-pass refinement: after each pass, each dimension's range shrinks
  /// to +/- one grid step around that pass's best point (clipped to the
  /// outer bounds), mirroring the paper's [a0 - 0.1, a0 + 0.1] second pass.
  Best refine(const std::vector<Range>& bounds, int passes) {
    Best best;
    std::vector<Range> ranges = bounds;
    std::vector<double> point(ranges.size(), 0.0);
    for (int pass = 0; pass < passes; ++pass) {
      Best pass_best;
      grid(ranges, point, 0, pass_best);
      if (!pass_best.found) break;
      best.offer(pass_best.value, pass_best.config, pass_best.point);
      for (std::size_t d = 0; d < ranges.size(); ++d) {
        const double step =
            divisions > 1 ? (ranges[d].hi - ranges[d].lo) /
                                static_cast<double>(divisions - 1)
                          : (ranges[d].hi - ranges[d].lo);
        ranges[d].lo = std::max(bounds[d].lo, pass_best.point[d] - step);
        ranges[d].hi = std::min(bounds[d].hi, pass_best.point[d] + step);
      }
    }
    return best;
  }
};

}  // namespace

GridSearchResult grid_search(ModelKind kind, const Objective& objective,
                             const GridSearchOptions& options) {
  Best best;
  std::size_t evaluations = 0;
  // One refined grid over `dims` coefficients, each ranging over `range`.
  const auto search = [&](std::size_t dims, Range range, int divisions,
                          int passes, const PointBuilder& builder) {
    Sweep sweep{objective, builder, divisions};
    const Best found = sweep.refine(std::vector<Range>(dims, range), passes);
    evaluations += sweep.evaluations;
    if (found.found) best.offer(found.value, found.config, {});
  };
  switch (kind) {
    case ModelKind::kMovingAverage:
    case ModelKind::kSShapedMA: {
      // Every window in [1, max_window]: one pass, one grid point per window.
      const auto max_window = static_cast<int>(options.max_window);
      search(1, Range{1.0, static_cast<double>(max_window)}, max_window, 1,
             [kind](const std::vector<double>& p, ModelConfig& config) {
               config.kind = kind;
               config.window = static_cast<std::size_t>(p[0]);
               return true;
             });
      break;
    }
    case ModelKind::kEwma:
    case ModelKind::kHoltWinters:
    case ModelKind::kSeasonalHoltWinters:
      search(kind == ModelKind::kEwma          ? 1
             : kind == ModelKind::kHoltWinters ? 2
                                               : 3,
             Range{0.0, 1.0}, options.smoothing_divisions, options.passes,
             [kind, &options](const std::vector<double>& p,
                              ModelConfig& config) {
               config.kind = kind;
               config.alpha = p[0];
               if (p.size() > 1) config.beta = p[1];
               if (p.size() > 2) {
                 config.gamma = p[2];
                 config.period = options.season_period;
               }
               return config.valid();
             });
      break;
    case ModelKind::kArima0:
    case ModelKind::kArima1:
      for (const auto& [p, q] : kArimaOrders) {
        search(static_cast<std::size_t>(p + q), Range{-2.0, 2.0},
               options.arima_divisions, options.passes,
               [kind, p = p, q = q](const std::vector<double>& point,
                                    ModelConfig& config) {
                 config.kind = kind;
                 config.arima.p = p;
                 config.arima.d = kind == ModelKind::kArima1 ? 1 : 0;
                 config.arima.q = q;
                 std::copy_n(point.begin(), p, config.arima.ar.begin());
                 std::copy_n(point.begin() + p, q, config.arima.ma.begin());
                 return config.valid();
               });
      }
      break;
  }
  return {best.config, best.value, evaluations};
}

}  // namespace scd::gridsearch
