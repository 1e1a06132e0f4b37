#include "obs/pipeline_metrics.h"

#include "obs/metrics.h"

namespace scd::obs {

namespace {

Histogram& stage_histogram(MetricsRegistry& registry, const char* stage) {
  return registry.histogram(
      "scd_pipeline_stage_seconds",
      "Latency of one pipeline stage execution, in seconds (see "
      "docs/OBSERVABILITY.md for the stage-to-paper mapping)",
      Histogram::default_latency_buckets(), {{"stage", stage}});
}

}  // namespace

PipelineInstruments PipelineInstruments::create(MetricsRegistry& registry) {
  return PipelineInstruments{
      registry.counter("scd_pipeline_records_total",
                       "Flow records fed into add_record/add"),
      registry.counter("scd_pipeline_intervals_closed_total",
                       "Detection intervals closed"),
      registry.counter("scd_pipeline_detections_total",
                       "Intervals where change detection ran (post warm-up)"),
      registry.counter("scd_pipeline_alarms_total",
                       "Alarms raised, by detection criterion",
                       {{"criterion", "threshold"}}),
      registry.counter("scd_pipeline_alarms_total",
                       "Alarms raised, by detection criterion",
                       {{"criterion", "topn"}}),
      registry.counter("scd_pipeline_keys_replayed_total",
                       "Candidate keys replayed through ESTIMATE"),
      registry.counter("scd_recovery_candidates_total",
                       "Candidate keys swept out of the error sketch's "
                       "buckets before verification (sketch-recovery modes)"),
      registry.counter("scd_recovery_keys_total",
                       "Recovered keys that survived median-estimate "
                       "verification (sketch-recovery modes)"),
      registry.counter(
          "scd_pipeline_hysteresis_suppressed_total",
          "Above-threshold keys withheld by min_consecutive hysteresis"),
      registry.counter("scd_pipeline_refits_total",
                       "Online grid-search model re-fits performed"),
      registry.counter("scd_pipeline_out_of_order_total",
                       "Records whose timestamp regressed below the stream "
                       "high-water mark (clamped into the open interval)"),
      registry.gauge("scd_pipeline_replay_buffer_keys",
                     "Sampled key-set size at the last interval close"),
      registry.gauge("scd_recovery_last_keys",
                     "Verified keys recovered by the latest detection "
                     "(sketch-recovery modes)"),
      registry.gauge("scd_pipeline_sketch_bytes",
                     "Register memory of the observed sketch (H*K*8)"),
      registry.gauge("scd_pipeline_last_alarm_threshold",
                     "Absolute alarm threshold T_A of the latest detection"),
      registry.gauge("scd_pipeline_last_error_l2",
                     "Estimated L2 norm of the latest error sketch"),
      stage_histogram(registry, "sketch_update"),
      stage_histogram(registry, "interval_close"),
      stage_histogram(registry, "forecast"),
      stage_histogram(registry, "estimate_f2"),
      stage_histogram(registry, "key_replay"),
      stage_histogram(registry, "refit"),
  };
}

void publish(PipelineInstruments* instruments, PipelineStats& stats,
             const IntervalTally& tally) noexcept {
  const StageTimings& t = tally.timings;
  stats.records += tally.records;
  stats.intervals_closed += tally.intervals_closed;
  stats.alarms += tally.alarms_threshold + tally.alarms_topn;
  stats.refits += tally.refits;
  stats.keys_replayed += tally.keys_replayed;
  stats.recovery_candidates += tally.recovery_candidates;
  stats.keys_recovered += tally.keys_recovered;
  stats.hysteresis_suppressed += tally.hysteresis_suppressed;
  stats.close_seconds += t.close_s;
  stats.forecast_seconds += t.forecast_s;
  stats.estimate_f2_seconds += t.estimate_f2_s;
  stats.key_replay_seconds += t.key_replay_s;
  stats.refit_seconds += tally.refit_s;
  if (instruments == nullptr) return;
  PipelineInstruments& m = *instruments;
  m.records.inc(tally.records);
  m.intervals_closed.inc(tally.intervals_closed);
  m.detections.inc(tally.detections);
  m.alarms_threshold.inc(tally.alarms_threshold);
  m.alarms_topn.inc(tally.alarms_topn);
  m.keys_replayed.inc(tally.keys_replayed);
  m.recovery_candidates.inc(tally.recovery_candidates);
  m.recovery_keys.inc(tally.keys_recovered);
  m.hysteresis_suppressed.inc(tally.hysteresis_suppressed);
  m.refits.inc(tally.refits);
  if (tally.intervals_closed != 0) {
    m.replay_buffer_keys.set(tally.replay_buffer_keys);
    m.stage_interval_close.observe(t.close_s);
    m.stage_forecast.observe(t.forecast_s);
  }
  if (tally.detections != 0) m.stage_estimate_f2.observe(t.estimate_f2_s);
  if (tally.sweeps != 0) {
    m.last_error_l2.set(tally.last_error_l2);
    m.last_alarm_threshold.set(tally.last_alarm_threshold);
    m.stage_key_replay.observe(t.key_replay_s);
  }
  if (tally.recovered) {
    m.recovery_last_keys.set(static_cast<double>(tally.keys_recovered));
  }
  if (tally.refits != 0) m.stage_refit.observe(tally.refit_s);
}

PipelineInstruments& PipelineInstruments::global() {
  static PipelineInstruments instruments = create(MetricsRegistry::global());
  return instruments;
}

}  // namespace scd::obs
