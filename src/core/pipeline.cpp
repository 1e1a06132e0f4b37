#include "core/pipeline.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <deque>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/bytes.h"
#include "common/logging.h"
#include "common/random.h"
#include "core/interval_cutter.h"
#include "core/sketch_binding.h"
#include "detect/detection.h"
#include "detect/provenance.h"
#include "forecast/runner.h"
#include "gridsearch/grid_search.h"
#include "hash/cw_hash.h"
#include "hash/tabulation_hash.h"
#include "obs/pipeline_metrics.h"
#include "obs/scoped_timer.h"
#include "obs/trace.h"
#include "sketch/kary_sketch.h"
#include "sketch/mv_sketch.h"
#include "sketch/serialize.h"
#include "traffic/flow_record.h"

namespace scd::core {

void PipelineConfig::validate() const {
  if (!(interval_s > 0.0)) {
    throw std::invalid_argument("PipelineConfig: interval_s must be > 0");
  }
  if (!hash::valid_bucket_count(k) || k < 2) {
    throw std::invalid_argument(
        "PipelineConfig: k must be a power of two in [2, 65536]");
  }
  if (h < 1 || h > sketch::kMaxRows) {
    throw std::invalid_argument("PipelineConfig: h must be in [1, 32]");
  }
  if (!(key_sample_rate > 0.0) || key_sample_rate > 1.0) {
    throw std::invalid_argument(
        "PipelineConfig: key_sample_rate must be in (0, 1]");
  }
  if (!(threshold >= 0.0)) {
    throw std::invalid_argument("PipelineConfig: threshold must be >= 0");
  }
  if (!(baseline_alpha > 0.0) || baseline_alpha > 1.0) {
    throw std::invalid_argument(
        "PipelineConfig: baseline_alpha must be in (0, 1]");
  }
  if (!model.valid()) {
    throw std::invalid_argument("PipelineConfig: invalid forecast model: " +
                                model.to_string());
  }
  if (min_consecutive < 1) {
    throw std::invalid_argument("PipelineConfig: min_consecutive must be >= 1");
  }
  if (refit_every > 0 && refit_window < 4) {
    throw std::invalid_argument(
        "PipelineConfig: refit_window must be >= 4 when re-fitting");
  }
  if (recovery != RecoveryMode::kReplay &&
      recovery != RecoveryMode::kInvertible) {
    throw std::invalid_argument("PipelineConfig: unknown recovery mode");
  }
  if (recovery != RecoveryMode::kReplay) {
    // The sketch-recovery modes keep no key set: replay scheduling and key
    // sampling are meaningless, so reject non-default settings instead of
    // silently ignoring them.
    if (replay != KeyReplayMode::kCurrentInterval) {
      throw std::invalid_argument(
          "PipelineConfig: sketch-recovery modes require "
          "KeyReplayMode::kCurrentInterval (replay scheduling does not "
          "apply)");
    }
    if (key_sample_rate != 1.0) {
      throw std::invalid_argument(
          "PipelineConfig: sketch-recovery modes require key_sample_rate == "
          "1.0 (no keys are sampled)");
    }
  }
}

std::uint64_t config_fingerprint(const PipelineConfig& config) noexcept {
  // FNV-1a64 over the state-determining fields' little-endian bytes, in
  // declaration order; the model configuration is its own field list.
  // Lives in core (not checkpoint) because provenance records and
  // flight-recorder dumps stamp it too; checkpoint delegates here.
  std::vector<std::uint8_t> bytes;
  common::ByteWriter out(bytes);
  out.field(config.interval_s);
  out.field(config.h);
  out.field(config.k);
  out.field(config.seed);
  out.field(config.key_kind);
  out.field(config.update_kind);
  out.field(config.model);
  out.field(config.threshold);
  out.field(config.criterion);
  out.field(config.baseline);
  out.field(config.baseline_alpha);
  out.field(config.replay);
  out.field(config.key_sample_rate);
  out.field(config.randomize_intervals);
  out.field(config.max_alarms_per_interval);
  out.field(config.min_consecutive);
  out.field(config.refit_every);
  out.field(config.refit_window);
  // The recovery mode is mixed only when it departs from kReplay: every
  // fingerprint computed before the field existed stays valid, so
  // checkpoints and provenance records from replay-mode deployments restore
  // unchanged.
  if (config.recovery != RecoveryMode::kReplay) out.field(config.recovery);
  // config.metrics deliberately excluded: observability never alters state.
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const std::uint8_t b : bytes) {
    hash ^= b;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

namespace {

// One in every 64 add() calls is timed into the sketch_update stage
// histogram. Timing every record would cost two clock
// reads (~40 ns) against a ~30 ns UPDATE; sampling amortizes that to well
// under 1 ns per record while the histogram still converges quickly.
constexpr std::uint64_t kUpdateSampleMask = 63;

// ---------------------------------------------------------------------------
// Engine-state byte stream. The encoding is explicit little-endian so a
// checkpoint written on one host restores bit-identically on any other; the
// checkpoint layer (src/checkpoint) adds CRC framing and atomicity on top of
// this raw stream. Engine::transfer is its one field list.

/// Engine-state stream layout version; bump on any field change.
/// v2: a deferred (kNextInterval) detection now also carries the interval's
/// forecast sketch, so alarm provenance survives a checkpoint/restore.
/// v3: recovery counters (recovery_candidates, keys_recovered) join the
/// stats block, and invertible-family signals carry their candidate/vote
/// state after the registers.
/// v4: every signal (model state, pending, history) is counters-only in both
/// recovery modes; an invertible engine appends the previous interval's
/// candidate and vote arrays after the history.
constexpr std::uint64_t kEngineStateVersion = 4;
/// Trailing sentinel: a stream cut short at a field boundary and followed
/// by other bytes fails here rather than restoring.
constexpr std::uint64_t kEngineStateSentinel = 0x5cdc0de5e17a11edULL;

using common::ByteReader;
using common::ByteWriter;
using sketch::SerializeError;
using sketch::SerializeErrorKind;

/// A reader hook's verdict against the stream.
[[noreturn]] void reject(SerializeErrorKind kind, const std::string& what) {
  throw SerializeError(kind, "engine state " + what);
}

/// Reader hook on the stream clock: a non-finite time never closes an
/// interval, and a length the cutter could not have drawn (or too small to
/// move the start) stalls or skews every later close.
void check_clock(const IntervalCutter::Position& clock,
                 const PipelineConfig& config) {
  const double len = clock.len_s;
  const bool drawable = config.randomize_intervals
                            ? len >= 0.25 * config.interval_s &&
                                  len <= 4.0 * config.interval_s
                            : len == config.interval_s;
  if (!std::isfinite(clock.start_s) || !std::isfinite(clock.high_water_s) ||
      !drawable || !(clock.end_s() > clock.start_s)) {
    reject(SerializeErrorKind::kCorruptRegisters,
           "stream clock is invalid: its times must be finite and its "
           "length one the interval cutter draws");
  }
}

class EngineBase {
 public:
  virtual ~EngineBase() = default;
  virtual void add(std::uint64_t key, double update, double time_s) = 0;
  virtual void ingest_interval(IntervalBatch&& batch) = 0;
  virtual void flush() = 0;
  [[nodiscard]] virtual const forecast::ModelConfig& active_model()
      const noexcept = 0;
  [[nodiscard]] virtual PipelineStats stats() const noexcept = 0;
  virtual void save_state(ByteWriter& out) const = 0;
  virtual void restore_state(ByteReader& in) = 0;
  virtual void set_interval_close_callback(
      std::function<void(std::size_t)> callback) = 0;
  virtual void set_alarm_provenance_callback(
      std::function<void(const detect::AlarmProvenance&)> callback) = 0;
  [[nodiscard]] virtual StreamPosition position() const noexcept = 0;
  /// Reports emitted so far: intervals closed minus any detection still
  /// deferred (kNextInterval). The restore path uses this to re-base the
  /// flush() report-count invariant.
  [[nodiscard]] virtual std::size_t reports_emitted() const noexcept = 0;
};

[[nodiscard]] obs::PipelineInstruments* instruments_for(
    const PipelineConfig& config) {
  return config.metrics ? &obs::PipelineInstruments::global() : nullptr;
}

/// The pipeline engine, generic over the observed sketch type. SketchT
/// decides the key-identification strategy at compile time: a sketch
/// exposing recover_heavy_keys() (MvSketch) runs the replay-free recovery
/// sweep and keeps no key set at all; a plain k-ary sketch runs the paper's
/// key replay. Either way the forecasting module runs on the k-ary counters
/// alone (Counters): S_f, S_e, the model state and the refit history carry
/// no votes. The runtime RecoveryMode -> SketchT mapping lives in
/// ChangeDetectionPipeline::Impl.
template <typename SketchT>
class Engine final : public EngineBase {
 public:
  using Sketch = SketchT;
  using Family = typename SketchT::FamilyType;
  using Counters = sketch::BasicKarySketch<Family>;
  using Emit = std::function<void(IntervalReport&&)>;

  /// Replay-free sketch-recovery engine: changed keys are read out of the
  /// error sketch's buckets through the observed sketches' votes, never
  /// replayed.
  static constexpr bool kRecovers =
      requires(const SketchT& s) { s.recover_heavy_keys(0.0); };

  Engine(const PipelineConfig& config, Emit emit)
      : config_(config),
        emit_(std::move(emit)),
        obs_(instruments_for(config)),
        family_(std::make_shared<const Family>(config.seed, config.h)),
        observed_(family_, config.k),
        step_{Counters(family_, config.k), Counters(family_, config.k)},
        active_model_(config.model),
        sample_rng_(config.seed ^ 0x5a5a5a5a5a5a5a5aULL),
        cutter_(config, obs_ != nullptr ? &obs_->out_of_order : nullptr) {
    // The single place sketch memory is accounted (the table never resizes).
    stats_.sketch_bytes = observed_.table_bytes();
    if (obs_ != nullptr) {
      obs_->sketch_bytes.set(static_cast<double>(stats_.sketch_bytes));
    }
    if constexpr (kRecovers) previous_.emplace(family_, config.k);
    rebuild_runner();
  }

  void add(std::uint64_t key, double update, double time_s) override {
    if (!std::isfinite(update)) {
      throw std::invalid_argument(
          "ChangeDetectionPipeline: update must be finite");
    }
    cutter_.place(time_s, [this] { close_interval(); });
    clear_observed();
    // Records are counted by the cutter and published once per interval:
    // one shared fetch_add per close instead of one per record keeps this
    // path free of cross-core traffic (a per-record inc alone costs ~5%
    // throughput). Records fed before this one: the closed intervals' plus
    // the open one's, less this record.
    const std::uint64_t fed = stats_.records + cutter_.position().records - 1;
    if (obs_ != nullptr && (fed & kUpdateSampleMask) == 0) {
      obs::ScopedTimer timer(&obs_->stage_sketch_update,
                             &stats_.update_seconds);
      observed_.update(key, update);
      ++stats_.update_samples;
    } else {
      observed_.update(key, update);
    }
    // Sketch-recovery engines never keep keys — that absence is the mode's
    // whole point (no per-interval key state, no second pass).
    if constexpr (!kRecovers) {
      if (config_.key_sample_rate >= 1.0 ||
          sample_rng_.bernoulli(config_.key_sample_rate)) {
        keys_.insert(key);
      }
    }
  }

  void ingest_interval(IntervalBatch&& batch) override {
    SCD_TRACE_SPAN_ARG("ingest_interval", "core", batch.records);
    // Every check runs before any state changes, so a rejected batch leaves
    // the engine as it was and the next valid batch is accepted.
    if (batch.registers.size() != observed_.registers().size()) {
      throw std::invalid_argument(
          "ChangeDetectionPipeline::ingest_interval: register table size "
          "does not match the configured h*k");
    }
    if constexpr (kRecovers) {
      if (batch.mv_candidates.size() != observed_.candidates().size() ||
          batch.mv_votes.size() != observed_.votes().size()) {
        throw std::invalid_argument(
            "ChangeDetectionPipeline::ingest_interval: majority-vote state "
            "size does not match the configured h*k");
      }
    }
    if (!(batch.len_s > 0.0)) {
      throw std::invalid_argument(
          "ChangeDetectionPipeline::ingest_interval: len_s must be > 0");
    }
    const IntervalCutter::Position& clock = cutter_.position();
    if (clock.records != 0) {
      throw std::invalid_argument(
          "ChangeDetectionPipeline::ingest_interval: an interval opened by "
          "add() is still in progress");
    }
    if (clock.started && batch.start_s < clock.start_s) {
      throw std::invalid_argument(
          "ChangeDetectionPipeline::ingest_interval: batches must be "
          "time-ordered");
    }
    cutter_.open(batch.start_s, batch.len_s, batch.records, batch.out_of_order,
                 batch.high_water_s);
    // Adopt the batch's tables by swap. The batch leaves holding the
    // engine's previous tables, of the same shape and not zeroed (the
    // IntervalBatch post-condition): whoever fills them next zeroes them.
    observed_.swap_registers(batch.registers);
    observed_dirty_ = false;
    if constexpr (kRecovers) {
      observed_.swap_aux(batch.mv_candidates, batch.mv_votes);
    } else {
      keys_.insert(batch.keys.begin(), batch.keys.end());
    }
    close_interval();
  }

  void flush() override {
    if (cutter_.position().records != 0) close_interval();
    if (pending_.has_value()) {
      // kNextInterval: the last error sketch never sees future keys; emit an
      // empty-detection report so the interval is still accounted for.
      IntervalReport report = take_pending({});
      publish();
      emit_(std::move(report));
    }
  }

  [[nodiscard]] const forecast::ModelConfig& active_model()
      const noexcept override {
    return active_model_;
  }

  [[nodiscard]] PipelineStats stats() const noexcept override {
    PipelineStats stats = stats_;  // sketch_bytes is fixed at construction
    stats.records += cutter_.position().records;  // the open interval's
    stats.out_of_order_records = cutter_.position().out_of_order;
    return stats;
  }

  void set_interval_close_callback(
      std::function<void(std::size_t)> callback) override {
    on_interval_close_ = std::move(callback);
  }

  void set_alarm_provenance_callback(
      std::function<void(const detect::AlarmProvenance&)> callback) override {
    on_provenance_ = std::move(callback);
    // Stamped into every record; computed once, the config never changes.
    fingerprint_ = config_fingerprint(config_);
  }

  [[nodiscard]] StreamPosition position() const noexcept override {
    const IntervalCutter::Position& clock = cutter_.position();
    return {clock.started, static_cast<std::size_t>(clock.index),
            clock.start_s, clock.high_water_s};
  }

  [[nodiscard]] std::size_t reports_emitted() const noexcept override {
    return stats_.intervals_closed - (pending_.has_value() ? 1 : 0);
  }

  void save_state(ByteWriter& out) const override {
    const IntervalCutter::Position& clock = cutter_.position();
    if (clock.records != 0 || !keys_.empty()) {
      throw std::logic_error(
          "ChangeDetectionPipeline::save_state: an interval is in progress; "
          "snapshot only at an interval boundary (see "
          "set_interval_close_callback)");
    }
    transfer(out, *this);
  }

  void restore_state(ByteReader& in) override {
    transfer(in, *this);
    observed_dirty_ = true;
    keys_.clear();
  }

  /// The engine state's one field list, in stream order; reader hooks check
  /// values and rebuild what the fields imply.
  template <class Ar, class Self>
  static void transfer(Ar& ar, Self& self) {
    const PipelineConfig& config = self.config_;
    ar.pinned(kEngineStateVersion, [](std::uint64_t version) {
      reject(SerializeErrorKind::kBadVersion,
             "version " + std::to_string(version) +
                 " is not the supported version 4");
    });
    // Config guards: restoring into a pipeline with different sketch
    // geometry or hashing would silently corrupt every later estimate, so
    // the stream pins the state-determining config axes.
    ar.pinned(std::array<std::uint64_t, 2>{config.h, config.k},
              [](const auto&) {
                reject(SerializeErrorKind::kBadDimensions,
                       "sketch geometry (h, k) does not match this "
                       "pipeline's configuration");
              });
    ar.pinned(std::array<std::uint64_t, 3>{
                  config.seed, static_cast<std::uint64_t>(config.key_kind),
                  static_cast<std::uint64_t>(config.update_kind)},
              [](const auto&) {
                reject(SerializeErrorKind::kFamilyMismatch,
                       "(seed, key kind, update kind) does not match this "
                       "pipeline's configuration");
              });

    // Boundary state: a snapshot is only taken between intervals, so the
    // open interval restores empty.
    IntervalCutter::Position clock;
    if constexpr (!Ar::kReads) clock = self.cutter_.position();
    ar.field(clock.started);
    ar.field(clock.start_s);
    ar.field(clock.len_s);
    ar.field(clock.high_water_s);
    ar.field(clock.index);
    if constexpr (Ar::kReads) check_clock(clock, config);
    ar.field(self.active_model_);
    if constexpr (Ar::kReads) {
      if (!self.active_model_.valid()) {
        reject(SerializeErrorKind::kCorruptRegisters,
               "model config is invalid: " + self.active_model_.to_string());
      }
    }
    ar.field(self.smoothed_f2_);
    ar.field(self.have_smoothed_f2_);
    ar.field(self.sample_rng_);
    ar.field(self.cutter_.length_rng());

    if constexpr (Ar::kReads) {
      self.stats_ = PipelineStats{};
      self.stats_.sketch_bytes = self.observed_.table_bytes();
      self.tally_ = obs::IntervalTally{};
    }
    auto& stats = self.stats_;
    ar.field(stats.records);
    ar.field(stats.intervals_closed);
    ar.field(stats.alarms);
    ar.field(stats.refits);
    ar.field(stats.keys_replayed);
    ar.field(stats.recovery_candidates);  // v3
    ar.field(stats.keys_recovered);       // v3
    ar.field(stats.hysteresis_suppressed);
    ar.field(clock.out_of_order);
    if constexpr (Ar::kReads) self.cutter_.restore(clock);
    ar.field(stats.update_seconds);
    ar.field(stats.update_samples);
    ar.field(stats.close_seconds);
    ar.field(stats.forecast_seconds);
    ar.field(stats.estimate_f2_seconds);
    ar.field(stats.key_replay_seconds);
    ar.field(stats.refit_seconds);

    // Hysteresis streaks, sorted by key: the map's iteration order is not
    // deterministic, the byte stream must be.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> streaks;
    if constexpr (!Ar::kReads) {
      streaks.assign(self.alarm_streaks_.begin(), self.alarm_streaks_.end());
      std::sort(streaks.begin(), streaks.end());
    }
    ar.size(streaks, 2 * sizeof(std::uint64_t));
    for (auto& [key, streak] : streaks) {
      ar.field(key);
      ar.field(streak);
    }
    if constexpr (Ar::kReads) {
      self.alarm_streaks_ = {streaks.begin(), streaks.end()};
      self.rebuild_runner();  // the restored active_model_'s runner
    }

    ar.field(*self.runner_);
    bool pending = self.pending_.has_value();
    ar.field(pending);
    if constexpr (Ar::kReads) {
      self.pending_.reset();
      if (pending) {
        self.pending_.emplace();
        (void)self.parked_tables();
      }
    }
    if (pending) {
      ar.field(self.pending_->est_f2);
      ar.field(self.pending_->report);
      ar.field(self.parked_->error);
      ar.field(self.parked_->forecast);  // v2
    }
    const Counters& shape = counters_of(self.observed_);
    ar.size(self.history_, sizeof(std::uint64_t) + shape.table_bytes(), shape);
    for (auto& s : self.history_) ar.field(s);
    // v4: the last closed interval's votes, which the next detection sweeps
    // for keys that vanished. The counters restore zero.
    if constexpr (kRecovers) {
      if constexpr (Ar::kReads) self.previous_->set_zero();
      Sketch::transfer_votes(ar, *self.previous_);
    }
    ar.pinned(kEngineStateSentinel, [](std::uint64_t) {
      reject(SerializeErrorKind::kCorruptRegisters,
             "sentinel mismatch: the stream ends before its last field");
    });
  }

 private:
  /// One forecast step's output, S_f(t) and S_e(t). The forecast is kept
  /// alongside the error so detection can reconstruct per-row provenance
  /// evidence.
  struct StepTables {
    Counters forecast;
    Counters error;
  };

  /// kNextInterval: a detection parked until the next interval's keys
  /// arrive. Its S_e and S_f are in parked_.
  struct Pending {
    double est_f2 = 0.0;
    IntervalReport report;  // partially filled
  };

  /// parked_, allocated on first use (only kNextInterval parks).
  [[nodiscard]] StepTables& parked_tables() {
    if (!parked_.has_value()) {
      parked_.emplace(StepTables{Counters(family_, config_.k),
                                 Counters(family_, config_.k)});
    }
    return *parked_;
  }

  void rebuild_runner() {
    const Counters prototype(family_, config_.k);
    runner_ = std::make_unique<forecast::ForecastRunner<Counters>>(
        active_model_, prototype);
  }

  /// The k-ary counter table of an observed sketch: what the forecasting
  /// module sees in both recovery modes.
  [[nodiscard]] static const Counters& counters_of(
      const Sketch& observed) noexcept {
    if constexpr (kRecovers) {
      return observed.counters();
    } else {
      return observed;
    }
  }

  /// Whoever fills a table zeroes it: a close leaves observed_ holding a
  /// closed interval's state, cleared before the next interval's first
  /// update (or its close, for an interval without records).
  void clear_observed() noexcept {
    if (!observed_dirty_) return;
    observed_.set_zero();
    observed_dirty_ = false;
  }

  void close_interval() {
    clear_observed();
    const IntervalCutter::Position& clock = cutter_.position();
    IntervalReport report;
    report.index = static_cast<std::size_t>(clock.index);
    report.start_s = clock.start_s;
    report.end_s = clock.end_s();
    report.records = clock.records;
    // kNextInterval: the previous interval's report, swept with this
    // interval's keys; this interval's report is parked until the next close.
    std::optional<IntervalReport> previous;
    bool parked = false;

    double close_s = 0.0;
    {
      obs::ScopedTimer close_timer(nullptr, &close_s, "interval_close", "core",
                                   clock.records);
      if (config_.randomize_intervals) {
        // Normalize to per-nominal-interval volume so intervals of different
        // lengths are comparable (§6; sketch linearity makes this a scale).
        observed_.scale(config_.interval_s / clock.len_s);
      }

      if (config_.refit_every > 0) {
        if (history_.size() < config_.refit_window) {
          history_.push_back(counters_of(observed_));
        } else {
          // A full window: the oldest table takes this interval's counters
          // (a copy into storage of the same size allocates nothing).
          Counters oldest = std::move(history_.front());
          history_.pop_front();
          oldest = counters_of(observed_);
          history_.push_back(std::move(oldest));
        }
      }

      tally_.records += clock.records;
      ++tally_.intervals_closed;
      tally_.replay_buffer_keys = static_cast<double>(keys_.size());
      bool stepped = false;
      {
        obs::ScopedTimer timer(nullptr, &report.timings.forecast_s,
                               "forecast_step", "core");
        stepped = runner_->step_into(counters_of(observed_), step_.forecast,
                                     step_.error);
      }

      if (config_.replay == KeyReplayMode::kNextInterval) {
        // This interval's keys detect the *previous* interval's changes.
        if (pending_.has_value()) {
          previous = take_pending(
              std::vector<std::uint64_t>(keys_.begin(), keys_.end()));
        }
        if (stepped) {
          // Park this step's tables; the swap leaves the ones just swept
          // in step_ for the next step to overwrite.
          std::swap(step_, parked_tables());
          Pending p{0.0, std::move(report)};
          p.est_f2 = timed_estimate_f2(parked_->error, p.report);
          pending_.emplace(std::move(p));
          parked = true;
        }
      } else if (stepped) {
        const double est_f2 = timed_estimate_f2(step_.error, report);
        sweep(step_.error, &step_.forecast, est_f2,
              std::vector<std::uint64_t>(keys_.begin(), keys_.end()), report);
      }

      // Keep this interval's votes for the next detection, reusing the older
      // table as the new open interval. It is zeroed when the next interval
      // fills it through add(), not here: ingest_interval() swaps it out to
      // a filler that zeroes it itself.
      if constexpr (kRecovers) std::swap(observed_, *previous_);
      observed_dirty_ = true;
      keys_.clear();
      cutter_.next();
    }

    StageTimings& timings = parked ? pending_->report.timings : report.timings;
    timings.close_s = close_s;
    tally_.timings.close_s = close_s;
    tally_.timings.forecast_s = timings.forecast_s;
    tally_.timings.estimate_f2_s = timings.estimate_f2_s;
    publish();
    if (previous.has_value()) emit_(std::move(*previous));
    if (!parked) emit_(std::move(report));

    maybe_refit();

    // Last act of the close: every counter is advanced, the report is out
    // (or parked in pending_) and the accumulators are empty — the engine is
    // in exactly the state a restore reproduces. Checkpoint triggers hook
    // here so a snapshot can never straddle an interval.
    if (on_interval_close_) on_interval_close_(stats_.intervals_closed);
  }

  /// Hands everything tallied since the last publish to the stats and, when
  /// metrics are on, to the shared instruments.
  void publish() {
    obs::publish(obs_, stats_, tally_);
    tally_ = obs::IntervalTally{};
  }

  /// ESTIMATEF2(S_e) under the estimate_f2 stage timer; the timing lands in
  /// the report that will eventually carry this detection.
  [[nodiscard]] double timed_estimate_f2(const Counters& error,
                                         IntervalReport& report) {
    obs::ScopedTimer timer(nullptr, &report.timings.estimate_f2_s,
                           "estimate_f2", "core");
    report.detection_ran = true;
    ++tally_.detections;
    return error.estimate_f2();
  }

  /// Runs the deferred detection of the parked report with `keys`.
  [[nodiscard]] IntervalReport take_pending(
      const std::vector<std::uint64_t>& keys) {
    Pending p = std::move(*pending_);
    pending_.reset();
    sweep(parked_->error, &parked_->forecast, p.est_f2, keys, p.report);
    return std::move(p.report);
  }

  /// The detection sweep under the key_replay stage timer.
  void sweep(const Counters& error, const Counters* forecast, double est_f2,
             const std::vector<std::uint64_t>& keys, IntervalReport& report) {
    {
      obs::ScopedTimer timer(nullptr, &report.timings.key_replay_s,
                             "detection_sweep", "core", keys.size());
      fill_detection(error, forecast, est_f2, keys, report);
    }
    ++tally_.sweeps;
    tally_.timings.key_replay_s = report.timings.key_replay_s;
  }

  void fill_detection(const Counters& error, const Counters* forecast,
                      double est_f2, const std::vector<std::uint64_t>& keys,
                      IntervalReport& report) {
    report.keys_checked = keys.size();
    report.estimated_error_f2 = est_f2;
    if constexpr (!kRecovers) tally_.keys_replayed += keys.size();
    // Threshold anchor: this interval's F2, or the smoothed history (which
    // a large in-progress change cannot inflate).
    double anchor_f2 = std::max(est_f2, 0.0);
    if (config_.baseline == ThresholdBaseline::kSmoothedF2) {
      if (have_smoothed_f2_) anchor_f2 = smoothed_f2_;
      smoothed_f2_ = have_smoothed_f2_
                         ? config_.baseline_alpha * std::max(est_f2, 0.0) +
                               (1.0 - config_.baseline_alpha) * smoothed_f2_
                         : std::max(est_f2, 0.0);
      have_smoothed_f2_ = true;
    }
    const double l2 = std::sqrt(anchor_f2);
    report.alarm_threshold = config_.threshold * l2;
    tally_.last_error_l2 = std::sqrt(std::max(est_f2, 0.0));
    tally_.last_alarm_threshold = report.alarm_threshold;
    if (l2 <= 0.0) return;  // degenerate error signal: nothing to flag
    std::vector<detect::KeyError> ranked;
    if constexpr (kRecovers) {
      // Replay-free path: every error bucket at or above the cut contributes
      // the candidates of this interval's observed sketch and of the
      // previous one (detection runs in the close, before the swap), and
      // each is verified on S_e. Under the threshold criterion the cut is
      // T_A; under top-N every voted bucket contributes and the cap below
      // keeps the largest.
      const double cut = config_.criterion == DetectionCriterion::kTopN
                             ? 0.0
                             : report.alarm_threshold;
      std::size_t swept = 0;
      const Sketch* const sources[] = {&observed_, &*previous_};
      const auto recovered =
          sketch::recover_heavy_keys<Family>(error, cut, sources, &swept);
      report.keys_checked = recovered.size();
      tally_.recovery_candidates += swept;
      tally_.keys_recovered += recovered.size();
      tally_.recovered = true;
      ranked.reserve(recovered.size());
      for (const sketch::RecoveredHeavyKey& r : recovered) {
        ranked.push_back(detect::KeyError{r.key, r.value});
      }
    } else {
      ranked = detect::rank_by_abs_error(
          keys, [&error](std::uint64_t key) { return error.estimate(key); });
    }
    auto flagged =
        config_.criterion == DetectionCriterion::kTopN
            ? detect::top_n(ranked, config_.max_alarms_per_interval)
            : detect::above_threshold(ranked, config_.threshold, l2);
    // Hysteresis (§6): require min_consecutive consecutive trips per key.
    std::vector<detect::KeyError> persistent;
    if (config_.min_consecutive > 1) {
      std::unordered_map<std::uint64_t, std::size_t> streaks;
      streaks.reserve(flagged.size() * 2);
      for (const detect::KeyError& e : flagged) {
        const auto it = alarm_streaks_.find(e.key);
        const std::size_t streak = 1 + (it != alarm_streaks_.end() ? it->second : 0);
        streaks.emplace(e.key, streak);
        if (streak >= config_.min_consecutive) persistent.push_back(e);
      }
      const std::size_t suppressed = flagged.size() - persistent.size();
      tally_.hysteresis_suppressed += suppressed;
      alarm_streaks_ = std::move(streaks);  // keys not flagged reset to 0
      flagged = persistent;
    }
    const auto capped =
        flagged.subspan(0, std::min(flagged.size(),
                                    config_.max_alarms_per_interval));
    report.alarms = detect::make_alarms(capped, report.index,
                                        report.alarm_threshold);
    std::size_t& alarms = config_.criterion == DetectionCriterion::kTopN
                              ? tally_.alarms_topn
                              : tally_.alarms_threshold;
    alarms += report.alarms.size();
    if (on_provenance_ && forecast != nullptr) {
      emit_provenance(error, *forecast, est_f2, report);
    }
  }

  /// One provenance record per alarm: per-row evidence re-read from the
  /// error and forecast sketches. The observed sketch is long gone by now,
  /// but S_o = S_f + S_e elementwise, so each row's observed estimate is
  /// exactly forecast_i + error_i and the reported `observed` median is
  /// bit-equal to ESTIMATE on the observed sketch.
  void emit_provenance(const Counters& error, const Counters& forecast,
                       double est_f2, const IntervalReport& report) {
    const std::size_t h = config_.h;
    std::vector<double> err_buckets(h);
    std::vector<double> err_est(h);
    std::vector<double> fc_buckets(h);
    std::vector<double> fc_est(h);
    std::vector<double> scratch(h);
    for (const detect::Alarm& alarm : report.alarms) {
      error.estimate_rows(alarm.key, err_buckets, err_est);
      forecast.estimate_rows(alarm.key, fc_buckets, fc_est);
      detect::AlarmProvenance prov;
      prov.interval = alarm.interval;
      prov.key = alarm.key;
      for (std::size_t i = 0; i < h; ++i) scratch[i] = fc_est[i] + err_est[i];
      prov.observed = sketch::median_inplace(scratch);
      scratch = fc_est;
      prov.forecast = sketch::median_inplace(scratch);
      prov.error = alarm.error;
      prov.threshold = config_.threshold;
      prov.threshold_abs = alarm.threshold_abs;
      prov.error_f2 = est_f2;
      prov.row_error_buckets = err_buckets;
      prov.row_error_estimates = err_est;
      prov.row_forecast_estimates = fc_est;
      prov.config_fingerprint = fingerprint_;
      prov.model = active_model_.to_string();
      on_provenance_(prov);
    }
  }

  void maybe_refit() {
    const std::uint64_t closed = cutter_.position().index;
    if (config_.refit_every == 0 || closed == 0) return;
    if (closed % config_.refit_every != 0) return;
    if (history_.size() < 4) return;  // not enough signal to fit
    refit();
    publish();
  }

  void refit() {
    obs::ScopedTimer timer(nullptr, &tally_.refit_s, "refit", "core");
    // Candidates step into step_: scratch between closes, and the re-warm
    // below overwrites it anyway.
    const gridsearch::Objective objective =
        [this](const forecast::ModelConfig& candidate) {
          return forecast::estimated_total_f2(candidate, history_, 0,
                                              step_.forecast, step_.error);
        };
    gridsearch::GridSearchOptions options;
    options.max_window = std::max<std::size_t>(2, history_.size() / 2);
    options.season_period = active_model_.period;
    const auto result =
        gridsearch::grid_search(active_model_.kind, objective, options);
    ++tally_.refits;
    // No candidate could forecast the window: keep the active model.
    if (!std::isfinite(result.best_objective)) return;
    active_model_ = result.best;
    // Swap in the re-fitted model, warmed with the retained history.
    rebuild_runner();
    for (const Counters& obs : history_) {
      (void)runner_->step_into(obs, step_.forecast, step_.error);
    }
  }

  PipelineConfig config_;
  Emit emit_;
  /// Shared process-wide instruments; null when config.metrics is false.
  obs::PipelineInstruments* obs_;
  std::shared_ptr<const Family> family_;
  Sketch observed_;
  /// observed_ holds a closed interval's state; clear_observed() zeroes it
  /// before the next interval fills it.
  bool observed_dirty_ = false;
  /// kRecovers only: the last closed interval's observed sketch, swapped in
  /// at close; its votes find keys that vanished this interval. Replay
  /// engines leave it empty.
  std::optional<Sketch> previous_;
  /// The forecast step's output tables, written in place every close
  /// (ForecastRunner::step_into) and never reallocated.
  StepTables step_;
  std::unique_ptr<forecast::ForecastRunner<Counters>> runner_;
  forecast::ModelConfig active_model_;
  common::Rng sample_rng_;
  /// The stream clock. An interval is open while it holds records; flush
  /// closes only open intervals, so ingest_interval (which closes eagerly)
  /// leaves no phantom empty interval behind.
  IntervalCutter cutter_;
  std::unordered_set<std::uint64_t> keys_;
  std::unordered_map<std::uint64_t, std::size_t> alarm_streaks_;
  double smoothed_f2_ = 0.0;
  bool have_smoothed_f2_ = false;
  std::optional<Pending> pending_;
  /// kNextInterval: the pending detection's S_e and S_f. Kept once taken;
  /// the next park swaps them with step_.
  std::optional<StepTables> parked_;
  std::deque<Counters> history_;
  /// Totals of everything published. records excludes the open interval,
  /// which the cutter counts until its close.
  PipelineStats stats_;
  obs::IntervalTally tally_;  // what happened since the last publish()
  std::function<void(std::size_t)> on_interval_close_;
  std::function<void(const detect::AlarmProvenance&)> on_provenance_;
  std::uint64_t fingerprint_ = 0;  // set with the provenance callback
};

}  // namespace

class ChangeDetectionPipeline::Impl {
 public:
  explicit Impl(PipelineConfig config) : config_(std::move(config)) {
    config_.validate();
    const auto emit = [this](IntervalReport&& report) {
      if (callback_) callback_(report);
      reports_.push_back(std::move(report));
    };
    with_sketch_type(config_.recovery, config_.key_kind,
                     [&]<typename SketchT>() {
                       engine_ =
                           std::make_unique<Engine<SketchT>>(config_, emit);
                     });
  }

  PipelineConfig config_;
  std::unique_ptr<EngineBase> engine_;
  std::vector<IntervalReport> reports_;
  /// Reports emitted before a restored snapshot was taken: the restored
  /// engine's intervals_closed includes them, reports_ does not.
  std::size_t reports_offset_ = 0;
  std::function<void(const IntervalReport&)> callback_;
};

ChangeDetectionPipeline::ChangeDetectionPipeline(PipelineConfig config)
    : impl_(std::make_unique<Impl>(std::move(config))) {}

ChangeDetectionPipeline::~ChangeDetectionPipeline() = default;
ChangeDetectionPipeline::ChangeDetectionPipeline(
    ChangeDetectionPipeline&&) noexcept = default;
ChangeDetectionPipeline& ChangeDetectionPipeline::operator=(
    ChangeDetectionPipeline&&) noexcept = default;

void ChangeDetectionPipeline::add_record(const traffic::FlowRecord& record) {
  add(traffic::extract_key(record, impl_->config_.key_kind),
      traffic::extract_update(record, impl_->config_.update_kind),
      traffic::record_time_s(record));
}

void ChangeDetectionPipeline::add(std::uint64_t key, double update,
                                  double time_s) {
  impl_->engine_->add(key, update, time_s);
}

void ChangeDetectionPipeline::ingest_interval(IntervalBatch&& batch) {
  impl_->engine_->ingest_interval(std::move(batch));
}

void ChangeDetectionPipeline::flush() {
  impl_->engine_->flush();
  // Every closed interval must have produced exactly one report, whether it
  // was emitted immediately (kCurrentInterval), deferred one interval
  // (kNextInterval), or flushed with an empty key set. Replay modes added
  // later must preserve this.
  const std::size_t closed = impl_->engine_->stats().intervals_closed;
  const std::size_t emitted = impl_->reports_offset_ + impl_->reports_.size();
  if (closed != emitted) {
    SCD_ERROR() << "pipeline invariant violated after flush: "
                << closed << " intervals closed but "
                << emitted << " reports emitted";
    assert(closed == emitted);
  }
}

const std::vector<IntervalReport>& ChangeDetectionPipeline::reports()
    const noexcept {
  return impl_->reports_;
}

void ChangeDetectionPipeline::set_report_callback(
    std::function<void(const IntervalReport&)> callback) {
  impl_->callback_ = std::move(callback);
}

void ChangeDetectionPipeline::set_interval_close_callback(
    std::function<void(std::size_t)> callback) {
  impl_->engine_->set_interval_close_callback(std::move(callback));
}

void ChangeDetectionPipeline::set_alarm_provenance_callback(
    std::function<void(const detect::AlarmProvenance&)> callback) {
  impl_->engine_->set_alarm_provenance_callback(std::move(callback));
}

std::vector<std::uint8_t> ChangeDetectionPipeline::save_state() const {
  std::vector<std::uint8_t> bytes;
  ByteWriter out(bytes);
  impl_->engine_->save_state(out);
  return bytes;
}

void ChangeDetectionPipeline::restore_state(
    const std::vector<std::uint8_t>& bytes) {
  ByteReader in(bytes, "engine state");
  try {
    impl_->engine_->restore_state(in);
  } catch (const common::TruncatedError& e) {
    throw SerializeError(SerializeErrorKind::kTruncated, e.what());
  } catch (const common::FieldError& e) {
    throw SerializeError(SerializeErrorKind::kBadDimensions,
                         std::string("engine state: ") + e.what());
  }
  if (in.remaining() != 0) {
    throw SerializeError(
        SerializeErrorKind::kTrailingBytes,
        "engine state has " + std::to_string(in.remaining()) +
            " unconsumed trailing bytes");
  }
  impl_->reports_.clear();
  impl_->reports_offset_ = impl_->engine_->reports_emitted();
}

StreamPosition ChangeDetectionPipeline::position() const noexcept {
  return impl_->engine_->position();
}

const forecast::ModelConfig& ChangeDetectionPipeline::active_model()
    const noexcept {
  return impl_->engine_->active_model();
}

PipelineStats ChangeDetectionPipeline::stats() const noexcept {
  return impl_->engine_->stats();
}

const PipelineConfig& ChangeDetectionPipeline::config() const noexcept {
  return impl_->config_;
}

}  // namespace scd::core
