#include "support/experiments.h"

#include <cmath>
#include <map>

#include "eval/metrics.h"

namespace scd::bench {

const eval::PerFlowTruth& truth_for(const eval::IntervalizedStream& stream,
                                    const forecast::ModelConfig& model) {
  static std::map<std::pair<const eval::IntervalizedStream*, std::string>,
                  eval::PerFlowTruth>
      cache;
  auto [it, fresh] = cache.try_emplace({&stream, model.to_string()});
  if (fresh) it->second = eval::compute_perflow_truth(stream, model);
  return it->second;
}

double energy_relative_difference(const eval::IntervalizedStream& stream,
                                  const forecast::ModelConfig& model,
                                  std::size_t h, std::size_t k,
                                  std::size_t warmup) {
  // Energy-only truth (no per-key error ranking), memoized separately from
  // the full truth since Figures 1-3 sweep hundreds of parameterizations.
  static std::map<std::pair<const eval::IntervalizedStream*, std::string>,
                  double>
      energy_cache;
  const auto key = std::make_pair(&stream, model.to_string() + "#" +
                                               std::to_string(warmup));
  auto it = energy_cache.find(key);
  if (it == energy_cache.end()) {
    const auto truth = eval::compute_perflow_truth(stream, model, false);
    it = energy_cache.emplace(key, truth.total_energy(warmup)).first;
  }
  eval::SketchPathOptions options;
  options.h = h;
  options.k = k;
  options.collect_errors = false;
  const auto sketch = eval::compute_sketch_errors(stream, model, options);
  return eval::relative_difference_pct(sketch.total_energy(warmup), it->second);
}

eval::SketchPathResult sketch_errors_for(const eval::IntervalizedStream& stream,
                                         const forecast::ModelConfig& model,
                                         std::size_t h, std::size_t k) {
  eval::SketchPathOptions options;
  options.h = h;
  options.k = k;
  return eval::compute_sketch_errors(stream, model, options);
}

SimilaritySeries topn_similarity_series(const eval::PerFlowTruth& truth,
                                        const eval::SketchPathResult& sketch,
                                        std::size_t n, double x,
                                        std::size_t warmup) {
  SimilaritySeries series;
  double sum = 0.0;
  for (std::size_t t = warmup; t < truth.intervals.size(); ++t) {
    if (!truth.intervals[t].ready || !sketch.intervals[t].ready) continue;
    const double similarity = eval::topn_similarity(
        truth.intervals[t].ranked, sketch.intervals[t].ranked, n, x);
    series.points.emplace_back(static_cast<double>(t), similarity);
    sum += similarity;
  }
  series.mean =
      series.points.empty() ? 0.0 : sum / static_cast<double>(series.points.size());
  return series;
}

ThresholdStats threshold_stats(const eval::PerFlowTruth& truth,
                               const eval::SketchPathResult& sketch,
                               double threshold, std::size_t warmup) {
  ThresholdStats stats;
  std::size_t n = 0;
  for (std::size_t t = warmup; t < truth.intervals.size(); ++t) {
    if (!truth.intervals[t].ready || !sketch.intervals[t].ready) continue;
    const double pf_l2 = std::sqrt(std::max(truth.intervals[t].f2, 0.0));
    const double sk_l2 =
        std::sqrt(std::max(sketch.intervals[t].est_f2, 0.0));
    const auto counts =
        eval::threshold_counts(truth.intervals[t].ranked, pf_l2,
                               sketch.intervals[t].ranked, sk_l2, threshold);
    stats.mean_pf_alarms += static_cast<double>(counts.perflow_alarms);
    stats.mean_sk_alarms += static_cast<double>(counts.sketch_alarms);
    stats.mean_false_negative += counts.false_negative_ratio();
    stats.mean_false_positive += counts.false_positive_ratio();
    ++n;
  }
  if (n > 0) {
    const auto dn = static_cast<double>(n);
    stats.mean_pf_alarms /= dn;
    stats.mean_sk_alarms /= dn;
    stats.mean_false_negative /= dn;
    stats.mean_false_positive /= dn;
  }
  return stats;
}

}  // namespace scd::bench
