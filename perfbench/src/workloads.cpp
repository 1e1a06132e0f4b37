#include "workloads.h"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "forecast/runner.h"
#include "hash/cw_hash.h"
#include "hash/tabulation_hash.h"
#include "traffic/key_extract.h"

namespace perfbench {

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  // splitmix64 over (seed, stream).
  std::uint64_t z =
      seed * 0x9e3779b97f4a7c15ULL + stream + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return (z ^ (z >> 31)) | 1;
}

std::vector<std::vector<scd::sketch::Record>> training_prefix(
    const std::vector<traffic::FlowRecord>& records, double interval_s,
    traffic::KeyKind key_kind, std::size_t intervals) {
  std::vector<std::vector<scd::sketch::Record>> out(intervals);
  if (records.empty()) return out;
  const double t0 = traffic::record_time_s(records.front());
  for (const auto& r : records) {
    const auto t = static_cast<std::size_t>(
        (traffic::record_time_s(r) - t0) / interval_s);
    if (t >= intervals) break;
    out[t].push_back({traffic::extract_key(r, key_kind),
                      traffic::extract_update(r, traffic::UpdateKind::kBytes)});
  }
  return out;
}

namespace {

template <typename Family>
Fit fit_with(forecast::ModelKind kind,
             const std::vector<std::vector<scd::sketch::Record>>& training,
             std::size_t h, std::size_t k, std::uint64_t seed) {
  using Sketch = scd::sketch::BasicKarySketch<Family>;
  const auto family = std::make_shared<const Family>(seed, h);
  std::vector<Sketch> history;
  history.reserve(training.size());
  for (const auto& updates : training) {
    history.emplace_back(family, k);
    history.back().update_batch(updates);
  }
  const auto t0 = Clock::now();
  const auto result = scd::gridsearch::grid_search(
      kind, [&](const forecast::ModelConfig& candidate) {
        forecast::ForecastRunner<Sketch> runner(candidate, history.front());
        double total = 0.0;
        for (const Sketch& observed : history) {
          if (const auto step = runner.step(observed)) {
            total += std::max(step->error.estimate_f2(), 0.0);
          }
        }
        return total;
      });
  return {result.best, result.evaluations, seconds_since(t0)};
}

}  // namespace

Fit fit_model(forecast::ModelKind kind,
              const std::vector<std::vector<scd::sketch::Record>>& training,
              bool key_fits_32bit, std::size_t h, std::size_t k,
              std::uint64_t seed) {
  if (key_fits_32bit) {
    return fit_with<scd::hash::TabulationHashFamily>(kind, training, h, k,
                                                     seed);
  }
  return fit_with<scd::hash::CwHashFamily>(kind, training, h, k, seed);
}

void report_traced(const RunArgs& args, const SpanRecorder& spans,
                   double traced_s, const std::vector<Pass>& passes,
                   const std::vector<double>& fit_s, const Fit& fit,
                   Metrics& out) {
  spans.write_tsv(args.work_dir / ("spans-" + args.workload + "-" +
                                   std::to_string(args.seed) + ".tsv"));
  for (const auto& [name, self_s] : spans.self_seconds()) {
    info("span %-28s self %.4f s (%.1f%% of traced)", name.c_str(), self_s,
         100.0 * self_s / traced_s);
  }
  std::vector<double> untraced_s;
  for (const Pass& pass : passes) untraced_s.push_back(pass.seconds);
  out.set("obs.trace_overhead_pct",
          100.0 * (traced_s / median(untraced_s) - 1.0), "%");
  out.set("gridsearch.fit_s", median(fit_s), "s");
  out.set("gridsearch.evaluations", static_cast<double>(fit.evaluations),
          "count");
}

void report_ledger(const std::vector<LedgerStage>& stages,
                   const std::vector<Pass>& passes, Metrics& out) {
  std::vector<double> pass_s;
  for (const Pass& pass : passes) pass_s.push_back(pass.seconds);
  const double wall_s = median(pass_s);
  double blocking_s = 0.0;
  for (const LedgerStage& stage : stages) {
    double stage_s = 0.0;
    for (const LedgerTerm& term : stage.terms) {
      const auto& [value, unit] = out.all().at(term.metric);
      const double scale = unit == "ns"   ? 1e-9
                           : unit == "us" ? 1e-6
                           : unit == "ms" ? 1e-3
                                          : 0.0;
      if (scale == 0.0) {
        throw std::logic_error(std::string("ledger term ") + term.metric +
                               " is not a time per call");
      }
      const double s = value * scale * term.calls;
      stage_s += s;
      info("ledger %-8s %-28s %10.0f calls %8.4f s (%5.1f%% of pass)",
           stage.name, term.metric, term.calls, s, 100.0 * s / wall_s);
    }
    info("ledger %-8s %-28s %16s %8.4f s (%5.1f%% of pass)", stage.name,
         "(stage total)", "", stage_s, 100.0 * stage_s / wall_s);
    blocking_s = std::max(blocking_s, stage_s);
  }
  info("ledger median untraced pass %.4f s; the slowest stage explains "
       "%.1f%% of it",
       wall_s, 100.0 * blocking_s / wall_s);
  out.set("ledger.coverage", blocking_s / wall_s, "ratio");
}

}  // namespace perfbench
