#include "core/pipeline.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <deque>
#include <optional>
#include <stdexcept>
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
  // FNV-1a64 over the state-determining fields, in declaration order.
  // Lives in core (not checkpoint) because provenance records and
  // flight-recorder dumps stamp it too; checkpoint delegates here.
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix_u64 = [&hash](std::uint64_t v) noexcept {
    std::uint8_t bytes[8];
    common::store_le(bytes, v);
    for (const std::uint8_t b : bytes) {
      hash ^= b;
      hash *= 0x100000001b3ULL;
    }
  };
  const auto mix_f64 = [&mix_u64](double v) noexcept {
    mix_u64(std::bit_cast<std::uint64_t>(v));
  };
  mix_f64(config.interval_s);
  mix_u64(config.h);
  mix_u64(config.k);
  mix_u64(config.seed);
  mix_u64(static_cast<std::uint64_t>(config.key_kind));
  mix_u64(static_cast<std::uint64_t>(config.update_kind));
  mix_u64(static_cast<std::uint64_t>(config.model.kind));
  mix_u64(config.model.window);
  mix_f64(config.model.alpha);
  mix_f64(config.model.beta);
  mix_f64(config.model.gamma);
  mix_u64(config.model.period);
  mix_u64(static_cast<std::uint64_t>(config.model.arima.p));
  mix_u64(static_cast<std::uint64_t>(config.model.arima.d));
  mix_u64(static_cast<std::uint64_t>(config.model.arima.q));
  for (const double c : config.model.arima.ar) mix_f64(c);
  for (const double c : config.model.arima.ma) mix_f64(c);
  mix_f64(config.threshold);
  mix_u64(static_cast<std::uint64_t>(config.criterion));
  mix_u64(static_cast<std::uint64_t>(config.baseline));
  mix_f64(config.baseline_alpha);
  mix_u64(static_cast<std::uint64_t>(config.replay));
  mix_f64(config.key_sample_rate);
  mix_u64(config.randomize_intervals ? 1 : 0);
  mix_u64(config.max_alarms_per_interval);
  mix_u64(config.min_consecutive);
  mix_u64(config.refit_every);
  mix_u64(config.refit_window);
  // The recovery mode is mixed only when it departs from kReplay: every
  // fingerprint computed before the field existed stays valid, so
  // checkpoints and provenance records from replay-mode deployments restore
  // unchanged.
  if (config.recovery != RecoveryMode::kReplay) {
    mix_u64(static_cast<std::uint64_t>(config.recovery));
  }
  // config.metrics deliberately excluded: observability never alters state.
  return hash;
}

namespace {

// One in every 64 add() calls is timed into the sketch_update stage
// histogram. Timing every record would cost two clock
// reads (~40 ns) against a ~30 ns UPDATE; sampling amortizes that to well
// under 1 ns per record while the histogram still converges quickly.
constexpr std::uint64_t kUpdateSampleMask = 63;

// ---------------------------------------------------------------------------
// Engine-state byte codec. The encoding is explicit little-endian so a
// checkpoint written on one host restores bit-identically on any other; the
// checkpoint layer (src/checkpoint) adds CRC framing and atomicity on top of
// this raw stream.

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
/// Trailing sentinel: catches a reader/writer field-order drift that happens
/// to stay inside the buffer.
constexpr std::uint64_t kEngineStateSentinel = 0x5cdc0de5e17a11edULL;

using common::ByteReader;
using common::ByteWriter;

/// Bridges the engine's byte stream to the forecast layer's typed
/// StateWriter: signals (k-ary sketches) are written as a register count
/// followed by the raw register doubles.
template <typename Sketch>
class SketchStateWriter final : public forecast::StateWriter<Sketch> {
 public:
  explicit SketchStateWriter(ByteWriter& out) : out_(out) {}
  void write_u64(std::uint64_t value) override { out_.u64(value); }
  void write_f64(double value) override { out_.f64(value); }
  void write_signal(const Sketch& value) override {
    out_.u64(value.registers().size());
    out_.array(value.registers());
  }

 private:
  ByteWriter& out_;
};

template <typename Sketch>
class SketchStateReader final : public forecast::StateReader<Sketch> {
 public:
  SketchStateReader(ByteReader& in, std::size_t expected_registers)
      : in_(in), expected_(expected_registers) {}

  [[nodiscard]] std::uint64_t read_u64() override { return in_.u64(); }
  [[nodiscard]] double read_f64() override { return in_.f64(); }
  void read_signal(Sketch& out) override {
    const std::uint64_t n = in_.u64();
    if (n != expected_) {
      throw sketch::SerializeError(
          sketch::SerializeErrorKind::kBadDimensions,
          "engine state sketch has " + std::to_string(n) +
              " registers, expected " + std::to_string(expected_));
    }
    scratch_.resize(expected_);
    in_.array(std::span(scratch_));
    out.load_registers(scratch_);
  }
  [[noreturn]] void fail(const std::string& what) override {
    throw sketch::SerializeError(sketch::SerializeErrorKind::kBadDimensions,
                                 "engine state: " + what);
  }

 private:
  ByteReader& in_;
  std::size_t expected_;
  std::vector<double> scratch_;
};

/// An invertible sketch's candidate and vote arrays, without its registers.
template <typename Sketch>
void write_vote_state(ByteWriter& out, const Sketch& sketch) {
  out.u64(sketch.candidates().size());
  out.array(sketch.candidates());
  out.array(sketch.votes());
}

/// Reads write_vote_state's arrays into `sketch`, whose counters are left
/// as they are.
template <typename Sketch>
void read_vote_state(ByteReader& in, Sketch& sketch) {
  const std::size_t cells = sketch.candidates().size();
  const std::uint64_t n = in.u64();
  if (n != cells) {
    throw sketch::SerializeError(
        sketch::SerializeErrorKind::kBadDimensions,
        "engine state vote table has " + std::to_string(n) +
            " cells, expected " + std::to_string(cells));
  }
  std::vector<std::uint64_t> candidates(cells);
  in.array(std::span(candidates));
  std::vector<double> votes(cells);
  in.array(std::span(votes));
  for (const double v : votes) {
    if (!std::isfinite(v) || v < 0.0) {
      throw sketch::SerializeError(
          sketch::SerializeErrorKind::kCorruptRegisters,
          "engine state vote table holds an invalid vote value");
    }
  }
  sketch.load_aux(candidates, votes);
}

void write_model_config(ByteWriter& out, const forecast::ModelConfig& m) {
  out.u64(static_cast<std::uint64_t>(m.kind));
  out.u64(m.window);
  out.f64(m.alpha);
  out.f64(m.beta);
  out.f64(m.gamma);
  out.u64(m.period);
  out.u64(static_cast<std::uint64_t>(m.arima.p));
  out.u64(static_cast<std::uint64_t>(m.arima.d));
  out.u64(static_cast<std::uint64_t>(m.arima.q));
  for (const double c : m.arima.ar) out.f64(c);
  for (const double c : m.arima.ma) out.f64(c);
}

[[nodiscard]] forecast::ModelConfig read_model_config(ByteReader& in) {
  forecast::ModelConfig m;
  const std::uint64_t kind = in.u64();
  if (kind >
      static_cast<std::uint64_t>(forecast::ModelKind::kSeasonalHoltWinters)) {
    throw sketch::SerializeError(sketch::SerializeErrorKind::kCorruptRegisters,
                                 "engine state names an unknown model kind");
  }
  m.kind = static_cast<forecast::ModelKind>(kind);
  m.window = static_cast<std::size_t>(in.u64());
  m.alpha = in.f64();
  m.beta = in.f64();
  m.gamma = in.f64();
  m.period = static_cast<std::size_t>(in.u64());
  m.arima.p = static_cast<int>(in.u64());
  m.arima.d = static_cast<int>(in.u64());
  m.arima.q = static_cast<int>(in.u64());
  for (double& c : m.arima.ar) c = in.f64();
  for (double& c : m.arima.ma) c = in.f64();
  if (!m.valid()) {
    throw sketch::SerializeError(
        sketch::SerializeErrorKind::kCorruptRegisters,
        "engine state model config is invalid: " + m.to_string());
  }
  return m;
}

void write_rng(ByteWriter& out, const common::Rng& rng) {
  const common::Rng::Snapshot snap = rng.snapshot();
  for (const std::uint64_t word : snap.state) out.u64(word);
  out.f64(snap.cached_normal);
  out.u64(snap.has_cached_normal ? 1 : 0);
}

void read_rng(ByteReader& in, common::Rng& rng) {
  common::Rng::Snapshot snap;
  for (std::uint64_t& word : snap.state) word = in.u64();
  snap.cached_normal = in.f64();
  snap.has_cached_normal = in.u64() != 0;
  rng.restore(snap);
}

void write_report(ByteWriter& out, const IntervalReport& r) {
  out.u64(r.index);
  out.f64(r.start_s);
  out.f64(r.end_s);
  out.u64(r.records);
  out.u64(r.detection_ran ? 1 : 0);
  out.u64(r.keys_checked);
  out.f64(r.estimated_error_f2);
  out.f64(r.alarm_threshold);
  out.u64(r.alarms.size());
  for (const detect::Alarm& a : r.alarms) {
    out.u64(a.interval);
    out.u64(a.key);
    out.f64(a.error);
    out.f64(a.threshold_abs);
  }
  out.f64(r.timings.close_s);
  out.f64(r.timings.forecast_s);
  out.f64(r.timings.estimate_f2_s);
  out.f64(r.timings.key_replay_s);
}

[[nodiscard]] IntervalReport read_report(ByteReader& in) {
  IntervalReport r;
  r.index = static_cast<std::size_t>(in.u64());
  r.start_s = in.f64();
  r.end_s = in.f64();
  r.records = in.u64();
  r.detection_ran = in.u64() != 0;
  r.keys_checked = static_cast<std::size_t>(in.u64());
  r.estimated_error_f2 = in.f64();
  r.alarm_threshold = in.f64();
  const std::uint64_t alarms = in.u64();
  r.alarms.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(alarms, 1024)));  // defensive pre-reserve cap
  for (std::uint64_t i = 0; i < alarms; ++i) {
    detect::Alarm a;
    a.interval = static_cast<std::size_t>(in.u64());
    a.key = in.u64();
    a.error = in.f64();
    a.threshold_abs = in.f64();
    r.alarms.push_back(a);
  }
  r.timings.close_s = in.f64();
  r.timings.forecast_s = in.f64();
  r.timings.estimate_f2_s = in.f64();
  r.timings.key_replay_s = in.f64();
  return r;
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
    cutter_.open(batch.start_s, batch.len_s, batch.records);
    // Adopt the batch's tables by swap. No interval is open, so observed_
    // is all zeros, and the batch leaves holding zeroed tables of the same
    // shape (the IntervalBatch post-condition).
    observed_.swap_registers(batch.registers);
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
    out.u64(kEngineStateVersion);
    // Config guards: restoring into a pipeline with different sketch
    // geometry or hashing would silently corrupt every later estimate, so
    // the stream pins the state-determining config axes.
    out.u64(config_.h);
    out.u64(config_.k);
    out.u64(config_.seed);
    out.u64(static_cast<std::uint64_t>(config_.key_kind));
    out.u64(static_cast<std::uint64_t>(config_.update_kind));

    out.u64(clock.started ? 1 : 0);
    out.f64(clock.start_s);
    out.f64(clock.len_s);
    out.f64(clock.high_water_s);
    out.u64(clock.index);
    write_model_config(out, active_model_);
    out.f64(smoothed_f2_);
    out.u64(have_smoothed_f2_ ? 1 : 0);
    write_rng(out, sample_rng_);
    write_rng(out, cutter_.length_rng());
    out.u64(stats_.records);
    out.u64(stats_.intervals_closed);
    out.u64(stats_.alarms);
    out.u64(stats_.refits);
    out.u64(stats_.keys_replayed);
    out.u64(stats_.recovery_candidates);  // v3
    out.u64(stats_.keys_recovered);       // v3
    out.u64(stats_.hysteresis_suppressed);
    out.u64(clock.out_of_order);
    out.f64(stats_.update_seconds);
    out.u64(stats_.update_samples);
    out.f64(stats_.close_seconds);
    out.f64(stats_.forecast_seconds);
    out.f64(stats_.estimate_f2_seconds);
    out.f64(stats_.key_replay_seconds);
    out.f64(stats_.refit_seconds);
    // Hysteresis streaks, sorted by key: the map's iteration order is not
    // deterministic, the byte stream must be.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> streaks;
    streaks.reserve(alarm_streaks_.size());
    for (const auto& [key, streak] : alarm_streaks_) {
      streaks.emplace_back(key, streak);
    }
    std::sort(streaks.begin(), streaks.end());
    out.u64(streaks.size());
    for (const auto& [key, streak] : streaks) {
      out.u64(key);
      out.u64(streak);
    }
    SketchStateWriter<Counters> model_out(out);
    runner_->save_state(model_out);
    out.u64(pending_.has_value() ? 1 : 0);
    if (pending_.has_value()) {
      out.f64(pending_->est_f2);
      write_report(out, pending_->report);
      model_out.write_signal(pending_->error);
      model_out.write_signal(pending_->forecast);  // v2
    }
    out.u64(history_.size());
    for (const Counters& s : history_) model_out.write_signal(s);
    // v4: the last closed interval's votes, which the next detection sweeps
    // for keys that vanished.
    if constexpr (kRecovers) write_vote_state(out, *previous_);
    out.u64(kEngineStateSentinel);
  }

  void restore_state(ByteReader& in) override {
    const std::uint64_t version = in.u64();
    if (version != kEngineStateVersion) {
      throw sketch::SerializeError(
          sketch::SerializeErrorKind::kBadVersion,
          "engine state version " + std::to_string(version) +
              " is not the supported version " +
              std::to_string(kEngineStateVersion));
    }
    if (in.u64() != config_.h || in.u64() != config_.k) {
      throw sketch::SerializeError(
          sketch::SerializeErrorKind::kBadDimensions,
          "engine state sketch geometry (h, k) does not match this "
          "pipeline's configuration");
    }
    if (in.u64() != config_.seed ||
        in.u64() != static_cast<std::uint64_t>(config_.key_kind) ||
        in.u64() != static_cast<std::uint64_t>(config_.update_kind)) {
      throw sketch::SerializeError(
          sketch::SerializeErrorKind::kFamilyMismatch,
          "engine state (seed, key kind, update kind) does not match this "
          "pipeline's configuration");
    }
    // Boundary state: a snapshot is only taken between intervals, so the
    // open interval restores empty.
    IntervalCutter::Position clock;
    clock.started = in.u64() != 0;
    clock.start_s = in.f64();
    clock.len_s = in.f64();
    clock.high_water_s = in.f64();
    clock.index = in.u64();
    active_model_ = read_model_config(in);
    smoothed_f2_ = in.f64();
    have_smoothed_f2_ = in.u64() != 0;
    read_rng(in, sample_rng_);
    read_rng(in, cutter_.length_rng());
    stats_ = PipelineStats{};
    tally_ = obs::IntervalTally{};
    stats_.records = in.u64();
    stats_.intervals_closed = static_cast<std::size_t>(in.u64());
    stats_.alarms = static_cast<std::size_t>(in.u64());
    stats_.refits = static_cast<std::size_t>(in.u64());
    stats_.keys_replayed = in.u64();
    stats_.recovery_candidates = in.u64();  // v3
    stats_.keys_recovered = in.u64();       // v3
    stats_.hysteresis_suppressed = in.u64();
    clock.out_of_order = in.u64();
    cutter_.restore(clock);
    stats_.update_seconds = in.f64();
    stats_.update_samples = in.u64();
    stats_.close_seconds = in.f64();
    stats_.forecast_seconds = in.f64();
    stats_.estimate_f2_seconds = in.f64();
    stats_.key_replay_seconds = in.f64();
    stats_.refit_seconds = in.f64();
    stats_.sketch_bytes = observed_.table_bytes();
    alarm_streaks_.clear();
    const std::uint64_t streaks = in.u64();
    for (std::uint64_t i = 0; i < streaks; ++i) {
      const std::uint64_t key = in.u64();
      alarm_streaks_[key] = static_cast<std::size_t>(in.u64());
    }
    rebuild_runner();
    SketchStateReader<Counters> model_in(in, observed_.registers().size());
    runner_->restore_state(model_in);
    pending_.reset();
    if (in.u64() != 0) {
      Pending p{Counters(family_, config_.k), Counters(family_, config_.k),
                0.0, IntervalReport{}};
      p.est_f2 = in.f64();
      p.report = read_report(in);
      model_in.read_signal(p.error);
      model_in.read_signal(p.forecast);  // v2
      pending_.emplace(std::move(p));
    }
    history_.clear();
    const std::uint64_t hist = in.u64();
    for (std::uint64_t i = 0; i < hist; ++i) {
      Counters s(family_, config_.k);
      model_in.read_signal(s);
      history_.push_back(std::move(s));
    }
    if constexpr (kRecovers) {
      previous_->set_zero();
      read_vote_state(in, *previous_);
    }
    if (in.u64() != kEngineStateSentinel) {
      throw sketch::SerializeError(
          sketch::SerializeErrorKind::kCorruptRegisters,
          "engine state sentinel mismatch: reader and writer disagree on "
          "the field layout");
    }
    observed_.set_zero();
    keys_.clear();
  }

 private:
  struct Pending {
    Counters error;
    Counters forecast;  // kept alongside the error so deferred detection can
                      // still reconstruct per-row provenance evidence
    double est_f2;
    IntervalReport report;  // partially filled
  };

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

  void close_interval() {
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
        history_.push_back(counters_of(observed_));
        if (history_.size() > config_.refit_window) history_.pop_front();
      }

      tally_.records += clock.records;
      ++tally_.intervals_closed;
      tally_.replay_buffer_keys = static_cast<double>(keys_.size());
      std::optional<typename forecast::ForecastRunner<Counters>::Step> step;
      {
        obs::ScopedTimer timer(nullptr, &report.timings.forecast_s,
                               "forecast_step", "core");
        step = runner_->step(counters_of(observed_));
      }

      if (config_.replay == KeyReplayMode::kNextInterval) {
        // This interval's keys detect the *previous* interval's changes.
        if (pending_.has_value()) {
          previous = take_pending(
              std::vector<std::uint64_t>(keys_.begin(), keys_.end()));
        }
        if (step.has_value()) {
          Pending p{std::move(step->error), std::move(step->forecast), 0.0,
                    std::move(report)};
          p.est_f2 = timed_estimate_f2(p.error, p.report);
          pending_.emplace(std::move(p));
          parked = true;
        }
      } else if (step.has_value()) {
        const double est_f2 = timed_estimate_f2(step->error, report);
        sweep(step->error, &step->forecast, est_f2,
              std::vector<std::uint64_t>(keys_.begin(), keys_.end()), report);
      }

      // Keep this interval's votes for the next detection, reusing the older
      // table as the new open interval.
      if constexpr (kRecovers) std::swap(observed_, *previous_);
      observed_.set_zero();
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
    sweep(p.error, &p.forecast, p.est_f2, keys, p.report);
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
    const Counters prototype(family_, config_.k);
    const gridsearch::Objective objective =
        [this, &prototype](const forecast::ModelConfig& candidate) {
          forecast::ForecastRunner<Counters> trial(candidate, prototype);
          double total = 0.0;
          for (const Counters& obs : history_) {
            if (const auto step = trial.step(obs); step.has_value()) {
              total += std::max(step->error.estimate_f2(), 0.0);
            }
          }
          return total;
        };
    gridsearch::GridSearchOptions options;
    options.max_window = std::max<std::size_t>(2, history_.size() / 2);
    const auto result =
        gridsearch::grid_search(active_model_.kind, objective, options);
    active_model_ = result.best;
    ++tally_.refits;
    // Swap in the re-fitted model, warmed with the retained history.
    rebuild_runner();
    for (const Counters& obs : history_) (void)runner_->step(obs);
  }

  PipelineConfig config_;
  Emit emit_;
  /// Shared process-wide instruments; null when config.metrics is false.
  obs::PipelineInstruments* obs_;
  std::shared_ptr<const Family> family_;
  Sketch observed_;
  /// kRecovers only: the last closed interval's observed sketch, swapped in
  /// at close; its votes find keys that vanished this interval. Replay
  /// engines leave it empty.
  std::optional<Sketch> previous_;
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
    throw sketch::SerializeError(sketch::SerializeErrorKind::kTruncated,
                                 e.what());
  }
  if (in.remaining() != 0) {
    throw sketch::SerializeError(
        sketch::SerializeErrorKind::kTrailingBytes,
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
