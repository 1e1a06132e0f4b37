// ChangeDetectionPipeline — the library's public entry point.
//
// Wires together the three modules of §2.2 over a live record stream:
//   sketch module      -> observed sketch S_o(t) per interval
//   forecasting module -> forecast sketch S_f(t) and error sketch S_e(t)
//   change detection   -> alarms for keys with |error| >= T * sqrt(F2(S_e))
//
// Key replay (the "where do keys come from" problem of §3.3) supports:
//   * kCurrentInterval — remember the interval's distinct keys and replay
//     them when the interval closes (the paper's brute-force/two-pass
//     behaviour, exact but keeps per-interval key state);
//   * kNextInterval — detect changes of interval t using the keys that
//     arrive during interval t+1 (the paper's online alternative: misses
//     only keys that never return, "often acceptable for DoS detection").
// Both modes honor key_sample_rate (§6's sampling extension).
//
// Optional online re-fitting (§6 "online change detection"): every
// refit_every intervals the model parameters are re-estimated by grid
// search over the last refit_window observed sketches.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "detect/alarm.h"
#include "detect/provenance.h"
#include "forecast/model_config.h"
#include "obs/pipeline_metrics.h"
#include "traffic/flow_record.h"
#include "traffic/key_extract.h"

namespace scd::core {

enum class KeyReplayMode {
  kCurrentInterval,
  kNextInterval,
};

/// How alarms are selected from the ranked forecast errors (§6: "the
/// technique can be asked to only report the top N major changes, or the
/// changes that are above a threshold").
enum class DetectionCriterion {
  kThreshold,  // |error| >= threshold * ||S_e||  (paper default)
  kTopN,       // the max_alarms_per_interval largest |error| keys
};

/// Which L2 norm anchors the threshold. kCurrentF2 is the paper's T_A.
/// kSmoothedF2 uses an EWMA of *past* intervals' F2 instead, so a massive
/// change cannot inflate its own threshold and mask itself.
enum class ThresholdBaseline {
  kCurrentF2,
  kSmoothedF2,
};

/// How the keys behind an aggregate change are identified (ROADMAP open
/// item 2; docs/KEY_RECOVERY.md):
///   * kReplay — the paper's §3.3 key replay: remember the interval's keys
///     and run each through ESTIMATE at close (exact ranking, but a second
///     pass plus O(distinct keys) state per interval);
///   * kInvertible — read keys out of majority-vote invertible sketches
///     (no key state; single-pass; the current and previous interval's
///     observed sketches at 3x k-ary memory each).
/// In kInvertible mode the pipeline keeps no key set at all: the heavy
/// buckets of the forecast-error sketch S_e(t) are named by the observed
/// sketches' votes, so KeyReplayMode and key_sample_rate do not apply.
///
/// The values are fixed because config_fingerprint mixes them: renumbering
/// kInvertible would orphan every invertible checkpoint and break every
/// invertible wire handshake. (1 was the retired group-testing mode.)
enum class RecoveryMode {
  kReplay = 0,
  kInvertible = 2,
};

struct PipelineConfig {
  double interval_s = 300.0;             // paper's default tradeoff (§4.2)
  std::size_t h = 5;                     // hash functions
  std::size_t k = 32768;                 // buckets per row
  std::uint64_t seed = 0x5eedc0de;       // hash-family seed
  traffic::KeyKind key_kind = traffic::KeyKind::kDstIp;
  traffic::UpdateKind update_kind = traffic::UpdateKind::kBytes;
  forecast::ModelConfig model{};         // defaults to EWMA(0.5)
  double threshold = 0.05;               // T in T_A = T * sqrt(ESTIMATEF2)
  DetectionCriterion criterion = DetectionCriterion::kThreshold;
  ThresholdBaseline baseline = ThresholdBaseline::kCurrentF2;
  /// EWMA weight for kSmoothedF2 (history weight = 1 - this).
  double baseline_alpha = 0.3;
  KeyReplayMode replay = KeyReplayMode::kCurrentInterval;
  double key_sample_rate = 1.0;          // fraction of keys replayed
  /// Key-identification strategy. The sketch-recovery modes require the
  /// defaults for the replay knobs they make meaningless (kCurrentInterval,
  /// key_sample_rate 1.0 — validate() rejects anything else).
  RecoveryMode recovery = RecoveryMode::kReplay;
  /// §6 boundary-effect mitigation: draw each interval's length from an
  /// exponential distribution with mean interval_s (clamped to
  /// [0.25, 4] * interval_s) and normalize the observed sketch by the
  /// actual length before forecasting — possible because sketches are
  /// linear. Changes that would straddle a fixed boundary land in randomly
  /// different intervals instead of being systematically split.
  bool randomize_intervals = false;
  std::size_t max_alarms_per_interval = 1000;  // report cap (top-N style)
  /// §6 false-positive reduction: only report a key after it exceeds the
  /// threshold in this many consecutive detections (1 = no hysteresis).
  /// State kept is O(keys currently above threshold).
  std::size_t min_consecutive = 1;
  std::size_t refit_every = 0;           // 0 = no online re-fitting
  std::size_t refit_window = 24;         // history intervals for re-fitting
  /// Feed the process-wide observability instruments (src/obs): per-stage
  /// latency histograms, counters, and gauges. The per-record cost is one
  /// sampled (1/64) stage timer — counters are published to the shared
  /// registry once per interval close, so the registry's records counter
  /// advances at interval granularity. Set to false for
  /// micro-benchmarks that must not touch shared state.
  bool metrics = true;

  /// Throws std::invalid_argument when out of range (bad K, sample rate...).
  void validate() const;
};

/// FNV-1a over every state-determining config field (metrics excluded —
/// observability never alters state). Stamped into checkpoints so a restore
/// with a drifted config is refused, and into alarm-provenance records and
/// flight-recorder dumps so evidence is traceable to the exact configuration
/// that produced it.
[[nodiscard]] std::uint64_t config_fingerprint(
    const PipelineConfig& config) noexcept;

/// The per-interval stage record and the lifetime totals live beside the
/// instruments they are published to (obs/pipeline_metrics.h).
using StageTimings = obs::StageTimings;
using PipelineStats = obs::PipelineStats;

/// One pre-aggregated interval produced by an external ingestion front-end
/// (src/ingest): the register table of the observed sketch, the distinct
/// keys seen, and the record count. The registers must come
/// from sketches built with the pipeline's (seed, h, k) — the same hash
/// family parameters — or every downstream ESTIMATE is garbage.
///
/// Post-condition of ChangeDetectionPipeline::ingest_interval: the pipeline
/// adopts the tables by swap, not by copy. On return `registers` — and, for
/// an invertible (kInvertible) pipeline, `mv_candidates` and `mv_votes` —
/// hold the pipeline's previous tables: same h x k shape, contents
/// unspecified (an earlier interval's state, not zeroed). Whoever fills a
/// table zeroes it first; the pipeline zeroes none at close. The other
/// fields keep their values. A rejected batch (the call throws) is left
/// untouched. The sharded front end puts these tables back into its
/// epoch-table ring, whose row workers zero their rows before filling them,
/// so in steady state no h x k table is allocated, copied or zeroed on the
/// merger per interval.
struct IntervalBatch {
  double start_s = 0.0;
  double len_s = 0.0;
  std::uint64_t records = 0;
  /// Row-major h x k register table.
  std::vector<double> registers;
  std::vector<std::uint64_t> keys;  // distinct keys, in no fixed order
  /// kInvertible only: the sketch's per-bucket majority-vote state (h x k
  /// each). Empty in every other mode.
  std::vector<std::uint64_t> mv_candidates;
  std::vector<double> mv_votes;
  /// The front end's stream clock at the close: the late records it binned
  /// into this interval (added to PipelineStats::out_of_order_records) and
  /// the largest record time it had seen (the pipeline keeps the larger of
  /// this and its own mark). With these the pipeline's clock, and so its
  /// save_state(), matches a pipeline fed the same records by add(). The
  /// zero defaults add no late records and leave the mark where it was.
  std::uint64_t out_of_order = 0;
  double high_water_s = 0.0;
};

/// Where a pipeline sits in its input stream. After a restore this tells the
/// feeding layer which records the snapshot already accounts for: skip
/// everything with time < next_interval_start_s and resume feeding from
/// there — the replayed stream then produces reports bit-identical to an
/// uninterrupted run.
struct StreamPosition {
  bool started = false;
  /// Index of the interval that will close next (0-based).
  std::size_t interval_index = 0;
  /// Start time of the first interval the snapshot does NOT cover.
  double next_interval_start_s = 0.0;
  /// Largest record timestamp seen (out-of-order high-water mark).
  double high_water_s = 0.0;
};

/// Everything the pipeline learned about one closed interval.
struct IntervalReport {
  std::size_t index = 0;
  double start_s = 0.0;
  double end_s = 0.0;
  std::uint64_t records = 0;
  /// False during model warm-up (no forecast existed for this interval).
  bool detection_ran = false;
  std::size_t keys_checked = 0;
  double estimated_error_f2 = 0.0;  // ESTIMATEF2(S_e(t))
  double alarm_threshold = 0.0;     // T_A
  std::vector<detect::Alarm> alarms;  // sorted by |error| descending
  StageTimings timings;             // where this interval's time went

  /// Field list (common/bytes.h): a deferred report rides in engine state.
  template <class Ar, class Self>
  static void transfer(Ar& ar, Self& r) {
    ar.field(r.index);
    ar.field(r.start_s);
    ar.field(r.end_s);
    ar.field(r.records);
    ar.field(r.detection_ran);
    ar.field(r.keys_checked);
    ar.field(r.estimated_error_f2);
    ar.field(r.alarm_threshold);
    ar.size(r.alarms, 4 * sizeof(std::uint64_t));
    for (auto& alarm : r.alarms) ar.field(alarm);
    ar.field(r.timings.close_s);
    ar.field(r.timings.forecast_s);
    ar.field(r.timings.estimate_f2_s);
    ar.field(r.timings.key_replay_s);
  }
};

class ChangeDetectionPipeline {
 public:
  explicit ChangeDetectionPipeline(PipelineConfig config);
  ~ChangeDetectionPipeline();
  ChangeDetectionPipeline(ChangeDetectionPipeline&&) noexcept;
  ChangeDetectionPipeline& operator=(ChangeDetectionPipeline&&) noexcept;

  /// Feeds one flow record (key/update extracted per config). Records should
  /// arrive in nondecreasing time order; a record whose timestamp regresses
  /// is clamped to the open interval's start and counted in
  /// PipelineStats::out_of_order_records instead of being rejected or
  /// silently mis-binned.
  void add_record(const traffic::FlowRecord& record);

  /// Feeds one raw (key, update) item at an absolute time — the Turnstile
  /// interface for non-NetFlow sources. Same time-order contract as
  /// add_record.
  void add(std::uint64_t key, double update, double time_s);

  /// Feeds one pre-aggregated interval (a sharded front end's epoch table,
  /// see src/ingest) and closes it immediately: the forecast/detect stages
  /// run exactly as if the batch's records had been add()ed one by one.
  /// The tables are adopted by swap; see IntervalBatch for what the batch
  /// holds afterwards. Throws std::invalid_argument, before changing any
  /// state, when the register table (or, for kInvertible, the vote state)
  /// does not match the configured h*k, when len_s is not positive, when
  /// batches regress in time, or when an interval opened by add() is still
  /// in progress — mixing the two feeds within one interval is not
  /// supported.
  void ingest_interval(IntervalBatch&& batch);

  /// Closes the interval in progress (and, in kNextInterval mode, emits the
  /// final pending detection). Call once at end of stream.
  void flush();

  /// Reports for all closed intervals so far.
  [[nodiscard]] const std::vector<IntervalReport>& reports() const noexcept;

  /// Invoked synchronously as each interval report is produced.
  void set_report_callback(std::function<void(const IntervalReport&)> callback);

  /// Invoked synchronously with one provenance record per alarm, carrying
  /// the full evidence chain (observed/forecast/error estimates, per-row
  /// bucket values, threshold, config fingerprint). Installing the callback
  /// is what turns provenance capture on — without it detection skips the
  /// extra per-alarm ESTIMATE work entirely.
  void set_alarm_provenance_callback(
      std::function<void(const detect::AlarmProvenance&)> callback);

  /// Invoked at the very end of every interval close — after the report is
  /// out, the counters are advanced and any online re-fit has run — with the
  /// number of intervals closed so far. At that instant the engine is in its
  /// serial-equivalent boundary state, which is the one safe point for
  /// save_state(); checkpointing layers hook here.
  void set_interval_close_callback(std::function<void(std::size_t)> callback);

  /// Serializes the complete mutable engine state: stream position, model
  /// parameters and model state, refit history, RNG states, counters and any
  /// deferred detection. Only legal at an interval boundary (no interval in
  /// progress — i.e. from the interval-close callback, between
  /// ingest_interval calls, or before the first record); throws
  /// std::logic_error otherwise. The encoding is a versioned byte stream
  /// whose integrity is the caller's job (src/checkpoint frames it with
  /// CRCs); restore_state on a pipeline with the same config reproduces all
  /// future reports bit-identically.
  [[nodiscard]] std::vector<std::uint8_t> save_state() const;

  /// Restores a save_state() stream into this pipeline, which must have been
  /// constructed with the same configuration (sketch geometry, seed and key
  /// kinds are cross-checked). Existing reports are discarded — restore into
  /// a freshly constructed pipeline, before installing callbacks. Throws
  /// sketch::SerializeError on malformed input or config mismatch; on throw
  /// the pipeline state is unspecified and the object must be discarded.
  void restore_state(const std::vector<std::uint8_t>& bytes);

  /// Current stream position; after restore_state, tells the feeder where to
  /// resume.
  [[nodiscard]] StreamPosition position() const noexcept;

  /// Model currently in use (changes after online re-fitting).
  [[nodiscard]] const forecast::ModelConfig& active_model() const noexcept;

  /// Lifetime counters (records fed, intervals closed, alarms, re-fits,
  /// sketch memory).
  [[nodiscard]] PipelineStats stats() const noexcept;

  [[nodiscard]] const PipelineConfig& config() const noexcept;

 private:
  class Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace scd::core
