#include "eval/sketch_path.h"

#include <cmath>
#include <limits>
#include <memory>

#include "core/pipeline.h"
#include "core/sketch_binding.h"

namespace scd::eval {

double SketchPathResult::total_energy(std::size_t warmup_intervals) const {
  return std::sqrt(total_f2(warmup_intervals));
}

double SketchPathResult::total_f2(std::size_t warmup_intervals) const {
  double sum = 0.0;
  for (std::size_t t = warmup_intervals; t < intervals.size(); ++t) {
    // ESTIMATEF2 is unbiased, not nonnegative; clamp per-interval terms so a
    // near-zero error signal cannot drive the total negative.
    if (intervals[t].ready) sum += std::max(intervals[t].est_f2, 0.0);
  }
  return sum;
}

SketchPathResult compute_sketch_errors(const IntervalizedStream& stream,
                                       const forecast::ModelConfig& config,
                                       const SketchPathOptions& options) {
  core::PipelineConfig engine;
  engine.interval_s = stream.interval_seconds();
  engine.h = options.h;
  engine.k = options.k;
  engine.seed = options.seed;
  engine.key_kind = stream.key_kind();
  engine.model = config;
  // Every replayed key is an alarm, so the alarms are the whole ranking.
  engine.threshold = 0.0;
  engine.max_alarms_per_interval = std::numeric_limits<std::size_t>::max();
  engine.metrics = false;
  core::ChangeDetectionPipeline pipeline(engine);

  SketchPathResult result;
  pipeline.set_report_callback([&result](const core::IntervalReport& report) {
    SketchIntervalErrors& out = result.intervals.emplace_back();
    out.ready = report.detection_ran;
    out.est_f2 = report.estimated_error_f2;
    for (const detect::Alarm& alarm : report.alarms) {
      out.ranked.push_back({alarm.key, alarm.error});
    }
  });
  core::IntervalBatch batch;
  batch.registers.assign(options.h * options.k, 0.0);
  batch.len_s = engine.interval_s;
  core::with_sketch_type(engine.recovery, engine.key_kind, [&]<class Sketch>() {
    using Family = typename Sketch::FamilyType;
    Sketch observed(std::make_shared<const Family>(options.seed, options.h),
                    options.k);
    for (std::size_t t = 0; t < stream.num_intervals(); ++t) {
      // observed holds the table the engine handed back last, not zeroed.
      observed.set_zero();
      stream.fill_observed_sketch(t, observed);
      observed.swap_registers(batch.registers);
      batch.start_s = static_cast<double>(t) * batch.len_s;
      if (options.collect_errors) batch.keys = stream.interval_keys(t);
      pipeline.ingest_interval(std::move(batch));
      // NOLINTNEXTLINE(bugprone-use-after-move): swapped, not moved from.
      observed.swap_registers(batch.registers);
    }
  });
  return result;
}

}  // namespace scd::eval
