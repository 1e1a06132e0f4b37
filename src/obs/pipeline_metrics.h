// Pre-registered instrument bundle for ChangeDetectionPipeline, and the one
// point where a pipeline's measurements become observable.
//
// All pipeline instances share one process-wide set of instruments (the
// Prometheus model: a process exports one `scd_pipeline_records_total`, not
// one per object). Registration happens exactly once, on first use, so the
// pipeline's hot path only ever touches stable references — no locks, no
// lookups, no allocation in add_record.
//
// Stage histograms form one family, scd_pipeline_stage_seconds{stage=...},
// mapping to the paper's module structure (§2.2):
//   sketch_update  — UPDATE(S_o, a, u) per record (sampled; see pipeline.cpp)
//   interval_close — the close's own work when an interval boundary passes,
//                    never the consumer's report or interval-close callbacks
//   forecast       — the forecasting module's step (S_f, S_e construction)
//   estimate_f2    — ESTIMATEF2(S_e)
//   key_replay     — the detection sweep: threshold, ESTIMATE per candidate
//                    key (or MV recovery) + ranking + hysteresis
//   refit          — §6 online grid-search re-fit
//
// Each stage is timed once, by obs::ScopedTimer. The engine collects the
// readings and counter movements in an IntervalTally and hands it to
// publish(), which adds it to the pipeline's PipelineStats and, when metrics
// are on, to these instruments: the report's timings, the stats totals, the
// histograms and the trace spans are all the same readings.
#pragma once

#include <cstddef>
#include <cstdint>

#include "obs/metrics.h"

namespace scd::obs {

/// One interval's stage record, in seconds: the readings of the stage
/// timers that ran for it. close_s is the close's own work (forecast step,
/// ESTIMATEF2, the detection sweep run during the close, the reset for the
/// next interval), never the consumer's report or interval-close callbacks
/// nor a re-fit. forecast_s and estimate_f2_s are sub-spans of close_s; in
/// kNextInterval replay mode key_replay_s is measured when the deferred
/// sweep runs, inside the next interval's close (or flush()).
struct StageTimings {
  double close_s = 0.0;        // the close's own work (see above)
  double forecast_s = 0.0;     // forecasting-module step (S_f, S_e)
  double estimate_f2_s = 0.0;  // ESTIMATEF2(S_e)
  double key_replay_s = 0.0;   // detection sweep: T_A, per-key ESTIMATE or
                               // MV recovery, ranking, hysteresis
};

/// Lifetime counters for capacity planning and monitoring.
struct PipelineStats {
  std::uint64_t records = 0;        // items fed
  std::size_t intervals_closed = 0;
  std::size_t alarms = 0;
  std::size_t refits = 0;           // online re-fits performed
  std::size_t sketch_bytes = 0;     // register memory of one sketch (H*K*8)
  std::uint64_t keys_replayed = 0;  // candidate keys run through ESTIMATE
  /// Sketch-recovery modes only: candidate keys swept out of the error
  /// sketch's buckets (pre-verification) and keys that survived the median
  /// verification. keys_replayed stays 0 in these modes — that zero is the
  /// "no replay pass" evidence the online monitor prints.
  std::uint64_t recovery_candidates = 0;
  std::uint64_t keys_recovered = 0;
  std::uint64_t hysteresis_suppressed = 0;  // withheld by min_consecutive
  /// Records whose timestamp regressed below the stream's high-water mark.
  /// Such records are clamped into the open interval (never mis-binned into
  /// a past one) and counted here rather than rejected — one late NetFlow
  /// export must not abort a live feed.
  std::uint64_t out_of_order_records = 0;

  // Cumulative stage budget (seconds). update_seconds covers only the
  // sampled (1 in 64) add() calls that were timed; scale by
  // records / update_samples for a whole-stream estimate.
  double update_seconds = 0.0;
  std::uint64_t update_samples = 0;
  double close_seconds = 0.0;
  double forecast_seconds = 0.0;
  double estimate_f2_seconds = 0.0;
  double key_replay_seconds = 0.0;
  double refit_seconds = 0.0;
};

/// What a pipeline did between two publish() calls: the stage readings it
/// took and the counters it moved. A stage whose run count is zero did not
/// run, and its histogram is not observed.
struct IntervalTally {
  StageTimings timings;    // runs: intervals_closed (close, forecast),
                           // detections (estimate_f2), sweeps (key_replay)
  double refit_s = 0.0;    // runs: refits
  std::uint64_t records = 0;
  std::size_t intervals_closed = 0;
  std::size_t detections = 0;  // ESTIMATEF2 ran on an error sketch
  std::size_t sweeps = 0;      // a detection sweep ran
  std::size_t refits = 0;
  std::size_t alarms_threshold = 0;  // alarms, by detection criterion
  std::size_t alarms_topn = 0;
  std::uint64_t keys_replayed = 0;
  std::uint64_t recovery_candidates = 0;
  std::uint64_t keys_recovered = 0;
  std::uint64_t hysteresis_suppressed = 0;
  /// Gauge readings, published with the event that takes them: the key-set
  /// size with a close; the error L2 and T_A with a sweep; the recovered-key
  /// count with a sweep that ran MV recovery.
  double replay_buffer_keys = 0.0;
  double last_error_l2 = 0.0;
  double last_alarm_threshold = 0.0;
  bool recovered = false;
};

struct PipelineInstruments {
  Counter& records;                // scd_pipeline_records_total
  Counter& intervals_closed;       // scd_pipeline_intervals_closed_total
  Counter& detections;             // intervals where detection ran
  Counter& alarms_threshold;       // scd_pipeline_alarms_total{criterion=...}
  Counter& alarms_topn;
  Counter& keys_replayed;          // scd_pipeline_keys_replayed_total
  Counter& recovery_candidates;    // scd_recovery_candidates_total
  Counter& recovery_keys;          // scd_recovery_keys_total
  Counter& hysteresis_suppressed;  // flagged but below min_consecutive
  Counter& refits;                 // scd_pipeline_refits_total
  Counter& out_of_order;           // scd_pipeline_out_of_order_total

  Gauge& replay_buffer_keys;       // sampled key-set occupancy at close
  Gauge& recovery_last_keys;       // scd_recovery_last_keys
  Gauge& sketch_bytes;             // register memory of the observed sketch
  Gauge& last_alarm_threshold;     // T_A of the latest detection
  Gauge& last_error_l2;            // sqrt(max(ESTIMATEF2, 0)) of the latest

  Histogram& stage_sketch_update;
  Histogram& stage_interval_close;
  Histogram& stage_forecast;
  Histogram& stage_estimate_f2;
  Histogram& stage_key_replay;
  Histogram& stage_refit;

  /// The shared bundle, registered against MetricsRegistry::global() on
  /// first call (thread-safe via static-local initialization).
  [[nodiscard]] static PipelineInstruments& global();

  /// Registers a full bundle against `registry` (tests use private
  /// registries to assert on exposition without cross-test interference).
  [[nodiscard]] static PipelineInstruments create(MetricsRegistry& registry);
};

/// Adds `tally` to `stats` and, when `instruments` is non-null, bumps the
/// counters and gauges and observes each stage that ran. The one place a
/// pipeline's measurements leave the engine.
void publish(PipelineInstruments* instruments, PipelineStats& stats,
             const IntervalTally& tally) noexcept;

}  // namespace scd::obs
