// FrontEndDifferential: a model-based differential test of the sharded
// front end against the serial pipeline, its oracle.
//
// Each seed draws a sequence of API operations: add_record in order, late,
// or past one or more boundaries; start_at; flush; drain; and save_state
// followed by restore_state into a fresh pipeline of either type
// (ChangeDetectionPipeline, or ParallelPipeline at W = 1, 2, 4 or 8). The
// sequence runs on the serial oracle and on the subject, and after every
// operation the two must agree on:
//   * the report stream, timings masked, with stats() read inside each
//     report callback;
//   * the state at every interval close: stats(), position() and the
//     save_state() bytes, read in the interval-close callback;
//   * the front end's counters, position() and stats() at the boundary,
//     and save_state() — both throw, or both return the same bytes.
// Stage timings are wall-clock readings, so they are masked in reports, in
// stats() and in the saved bytes; nothing else is.
//
// Two documented front-end rules have no serial API, so the oracle models
// them: start_at anchors interval 0 (the oracle restores a snapshot whose
// clock is anchored the same way), and flush() closes a start_at-anchored
// empty interval 0 (the oracle ingests an empty batch). A snapshot taken
// before that first close does not carry the anchor (docs/PARALLEL_INGEST.md),
// so the oracle drops it there too.
//
// On failure the test prints the seed and a shrunk operation sequence that
// still fails. Runs under the tsan preset via `ctest -L concurrency`.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/pipeline.h"
#include "ingest/parallel_pipeline.h"
#include "traffic/flow_record.h"

namespace scd::ingest {
namespace {

using Bytes = std::vector<std::uint8_t>;

constexpr double kIntervalS = 10.0;
// W=2 splits the rows 3/2, W=4 splits them 2/1/1/1, W=8 runs 5 workers.
constexpr std::size_t kH = 5;
constexpr std::size_t kK = 64;
constexpr std::size_t kCells = kH * kK;

enum class Mode { kReplayCurrent, kReplayNext, kInvertible };

core::PipelineConfig config_for(Mode mode, bool wide_keys) {
  core::PipelineConfig config;
  config.interval_s = kIntervalS;
  config.h = kH;
  config.k = kK;
  config.seed = 0xd1ff;
  config.key_kind =
      wide_keys ? traffic::KeyKind::kSrcDstPair : traffic::KeyKind::kDstIp;
  config.model.kind = forecast::ModelKind::kEwma;
  config.model.alpha = 0.5;
  config.threshold = 0.1;
  config.metrics = false;
  if (mode == Mode::kReplayNext) {
    config.replay = core::KeyReplayMode::kNextInterval;
  }
  if (mode == Mode::kInvertible) {
    config.recovery = core::RecoveryMode::kInvertible;
  }
  return config;
}

// ---------------------------------------------------------------------------
// Operations

struct Op {
  enum Kind { kAdd, kLate, kJump, kStartAt, kFlush, kDrain, kSaveRestore };
  Kind kind = kAdd;
  std::uint64_t arg = 0;  // kAdd: records; kJump: intervals; kSaveRestore:
                          // target (0 serial, else W = 1, 2, 4, 8)
  std::uint64_t seed = 0;  // draws of the records or the anchor
};

std::string describe(const Op& op) {
  std::ostringstream out;
  switch (op.kind) {
    case Op::kAdd: out << "add x" << op.arg; break;
    case Op::kLate: out << "late"; break;
    case Op::kJump: out << "jump +" << op.arg; break;
    case Op::kStartAt: out << "start_at"; break;
    case Op::kFlush: out << "flush"; break;
    case Op::kDrain: out << "drain"; break;
    case Op::kSaveRestore:
      out << "save+restore into "
          << (op.arg == 0 ? std::string("serial")
                          : "W=" + std::to_string(op.arg));
      break;
  }
  out << " (" << op.seed << ")";
  return out.str();
}

std::vector<Op> draw_ops(std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<Op> ops;
  if (rng.next_below(3) == 0) ops.push_back({Op::kStartAt, 0, rng.next_u64()});
  const std::size_t n = 20 + rng.next_below(25);
  static constexpr std::uint64_t kTargets[] = {0, 1, 2, 4, 8};
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t draw = rng.next_below(100);
    Op op;
    op.seed = rng.next_u64();
    if (draw < 45) {
      op = {Op::kAdd, 1 + rng.next_below(40), op.seed};
    } else if (draw < 57) {
      op.kind = Op::kLate;
    } else if (draw < 69) {
      op = {Op::kJump, 1 + rng.next_below(3), op.seed};
    } else if (draw < 72) {
      op.kind = Op::kStartAt;
    } else if (draw < 81) {
      op.kind = Op::kFlush;
    } else if (draw < 88) {
      op.kind = Op::kDrain;
    } else {
      op = {Op::kSaveRestore, kTargets[rng.next_below(5)], op.seed};
    }
    ops.push_back(op);
  }
  return ops;
}

/// Key pool: 30 steady keys and one that spikes; both key kinds draw from
/// it, the pair kind with the source half set.
traffic::FlowRecord make_record(common::Rng& rng, double time_s) {
  traffic::FlowRecord r;
  r.timestamp_us = static_cast<std::uint64_t>(time_s * 1e6);
  const std::uint64_t k = rng.next_below(31);
  r.dst_ip = 0x0a000000u + static_cast<std::uint32_t>(k * 7919);
  r.src_ip = 0xc0a80000u + static_cast<std::uint32_t>(k % 5);
  r.bytes = k == 30 ? 20000 + rng.next_below(40000)
                    : 40 + rng.next_below(1460);
  return r;
}

// ---------------------------------------------------------------------------
// What the two sides are compared on

struct ReportEntry {
  core::IntervalReport report;
  core::PipelineStats stats;  // read inside the report callback
};

struct CloseEntry {
  std::size_t closed = 0;
  core::PipelineStats stats;
  core::StreamPosition position;
  Bytes state;
};

struct Log {
  std::vector<ReportEntry> reports;
  std::vector<CloseEntry> closes;
};

/// Engine-state offsets of the wall-clock doubles (the layout
/// tests/golden/golden_bytes_test.cpp pins): update_seconds, then the five
/// per-stage totals after update_samples.
constexpr std::size_t kTimingOffsets[] = {376, 392, 400, 408, 416, 424};

/// Zeroes the stage timings in a saved engine state. `pending` says a
/// kNextInterval detection is parked in it; that report's four timing
/// doubles sit before the parked S_e and S_f tables, the (empty) refit
/// history's count and the sentinel.
void mask_state(Bytes& state, bool pending) {
  for (const std::size_t off : kTimingOffsets) {
    std::memset(&state.at(off), 0, 8);
  }
  if (pending) {
    const std::size_t tail = 8 + 8 + 2 * (8 + kCells * 8);
    std::memset(&state.at(state.size() - tail - 32), 0, 32);
  }
}

void mask_stats(core::PipelineStats& s) {
  s.update_seconds = 0.0;
  s.close_seconds = 0.0;
  s.forecast_seconds = 0.0;
  s.estimate_f2_seconds = 0.0;
  s.key_replay_seconds = 0.0;
  s.refit_seconds = 0.0;
}

std::string diff_stats(const core::PipelineStats& a,
                       const core::PipelineStats& b) {
  std::ostringstream out;
  const auto field = [&out](const char* name, auto x, auto y) {
    if (x != y) out << name << " " << x << " != " << y << "; ";
  };
  field("records", a.records, b.records);
  field("intervals_closed", a.intervals_closed, b.intervals_closed);
  field("alarms", a.alarms, b.alarms);
  field("refits", a.refits, b.refits);
  field("sketch_bytes", a.sketch_bytes, b.sketch_bytes);
  field("keys_replayed", a.keys_replayed, b.keys_replayed);
  field("recovery_candidates", a.recovery_candidates, b.recovery_candidates);
  field("keys_recovered", a.keys_recovered, b.keys_recovered);
  field("hysteresis_suppressed", a.hysteresis_suppressed,
        b.hysteresis_suppressed);
  field("out_of_order_records", a.out_of_order_records,
        b.out_of_order_records);
  field("update_samples", a.update_samples, b.update_samples);
  return out.str();
}

std::string diff_position(const core::StreamPosition& a,
                          const core::StreamPosition& b) {
  std::ostringstream out;
  if (a.started != b.started || a.interval_index != b.interval_index ||
      a.next_interval_start_s != b.next_interval_start_s ||
      a.high_water_s != b.high_water_s) {
    out << "position {" << a.started << ", " << a.interval_index << ", "
        << a.next_interval_start_s << ", " << a.high_water_s << "} != {"
        << b.started << ", " << b.interval_index << ", "
        << b.next_interval_start_s << ", " << b.high_water_s << "}";
  }
  return out.str();
}

std::string diff_report(const core::IntervalReport& a,
                        const core::IntervalReport& b) {
  std::ostringstream out;
  const auto field = [&out](const char* name, auto x, auto y) {
    if (x != y) out << name << " " << x << " != " << y << "; ";
  };
  field("index", a.index, b.index);
  field("start_s", a.start_s, b.start_s);
  field("end_s", a.end_s, b.end_s);
  field("records", a.records, b.records);
  field("detection_ran", a.detection_ran, b.detection_ran);
  field("keys_checked", a.keys_checked, b.keys_checked);
  field("estimated_error_f2", a.estimated_error_f2, b.estimated_error_f2);
  field("alarm_threshold", a.alarm_threshold, b.alarm_threshold);
  field("alarms", a.alarms.size(), b.alarms.size());
  for (std::size_t i = 0; i < std::min(a.alarms.size(), b.alarms.size());
       ++i) {
    const detect::Alarm& x = a.alarms[i];
    const detect::Alarm& y = b.alarms[i];
    if (x.key != y.key || x.error != y.error) {
      out << "alarm " << i << " (" << x.key << ", " << x.error << ") != ("
          << y.key << ", " << y.error << "); ";
    }
  }
  return out.str();
}

// ---------------------------------------------------------------------------
// The two pipeline types behind one interface

class Side {
 public:
  virtual ~Side() = default;
  virtual void add_record(const traffic::FlowRecord& record) = 0;
  virtual void flush() = 0;
  virtual void drain() = 0;
  [[nodiscard]] virtual Bytes save_state() const = 0;
  [[nodiscard]] virtual core::PipelineStats stats() const = 0;
  [[nodiscard]] virtual core::StreamPosition position() const = 0;
  /// The sharded front end, or null for a serial pipeline.
  [[nodiscard]] virtual ParallelPipeline* sharded() = 0;
  [[nodiscard]] virtual core::ChangeDetectionPipeline* serial() = 0;
};

template <typename Pipeline>
class SideOf final : public Side {
 public:
  /// Builds the pipeline, restores `state` when given, then installs the
  /// callbacks that write `log`. `pending` tells the close callback whether
  /// the engine holds a parked detection: intervals closed minus reports
  /// logged so far.
  SideOf(const core::PipelineConfig& config, std::size_t workers,
         const Bytes* state, Log& log)
      : pipeline_(make(config, workers)) {
    if (state != nullptr) pipeline_.restore_state(*state);
    pipeline_.set_report_callback([this, &log](const core::IntervalReport& r) {
      ReportEntry entry{r, pipeline_.stats()};
      entry.report.timings = {};
      mask_stats(entry.stats);
      log.reports.push_back(std::move(entry));
    });
    pipeline_.set_interval_close_callback([this, &log](std::size_t closed) {
      CloseEntry entry{closed, pipeline_.stats(), pipeline_.position(),
                       pipeline_.save_state()};
      mask_state(entry.state,
                 entry.stats.intervals_closed > log.reports.size());
      mask_stats(entry.stats);
      log.closes.push_back(std::move(entry));
    });
  }

  void add_record(const traffic::FlowRecord& record) override {
    pipeline_.add_record(record);
  }
  void flush() override { pipeline_.flush(); }
  void drain() override {
    if constexpr (std::is_same_v<Pipeline, ParallelPipeline>) {
      pipeline_.drain();
    }
  }
  [[nodiscard]] Bytes save_state() const override {
    return pipeline_.save_state();
  }
  [[nodiscard]] core::PipelineStats stats() const override {
    return pipeline_.stats();
  }
  [[nodiscard]] core::StreamPosition position() const override {
    return pipeline_.position();
  }
  [[nodiscard]] ParallelPipeline* sharded() override {
    if constexpr (std::is_same_v<Pipeline, ParallelPipeline>) {
      return &pipeline_;
    } else {
      return nullptr;
    }
  }
  [[nodiscard]] core::ChangeDetectionPipeline* serial() override {
    if constexpr (std::is_same_v<Pipeline, ParallelPipeline>) {
      return nullptr;
    } else {
      return &pipeline_;
    }
  }

 private:
  static Pipeline make(const core::PipelineConfig& config,
                       std::size_t workers) {
    if constexpr (std::is_same_v<Pipeline, ParallelPipeline>) {
      ParallelConfig parallel;
      parallel.workers = workers;
      parallel.batch_size = 7;  // chunks end mid-interval
      parallel.max_pending_intervals = 3;
      return ParallelPipeline(config, parallel);
    } else {
      return core::ChangeDetectionPipeline(config);
    }
  }

  Pipeline pipeline_;
};

std::unique_ptr<Side> make_side(const core::PipelineConfig& config,
                                std::uint64_t target, const Bytes* state,
                                Log& log) {
  if (target == 0) {
    return std::make_unique<SideOf<core::ChangeDetectionPipeline>>(
        config, 0, state, log);
  }
  return std::make_unique<SideOf<ParallelPipeline>>(config, target, state,
                                                    log);
}

// ---------------------------------------------------------------------------
// One run

/// Stream-position fields of the engine state (after the 48-byte config
/// guards): started, start_s, len_s, high_water_s, index.
constexpr std::size_t kClockOffset = 48;

/// `state` with its clock anchored at `time_s` as IntervalCutter::start_at
/// anchors it: started, interval 0 opening at the anchor, which is also the
/// high-water mark.
Bytes anchored(Bytes state, double time_s) {
  const std::uint64_t one = 1;
  std::memcpy(&state.at(kClockOffset), &one, 8);
  std::memcpy(&state.at(kClockOffset + 8), &time_s, 8);
  std::memcpy(&state.at(kClockOffset + 24), &time_s, 8);
  return state;
}

class Run {
 public:
  Run(Mode mode, bool wide_keys, std::uint64_t workers)
      : config_(config_for(mode, wide_keys)) {
    oracle_ = make_side(config_, 0, nullptr, oracle_log_);
    subject_ = make_side(config_, workers, nullptr, subject_log_);
    boundary_ = {oracle_->stats(), oracle_->position()};
  }

  /// Applies `op` to both sides; returns the first disagreement, if any.
  std::optional<std::string> apply(const Op& op) {
    common::Rng rng(op.seed);
    switch (op.kind) {
      case Op::kAdd:
        for (std::uint64_t i = 0; i < op.arg; ++i) {
          now_ += rng.uniform(0.0, 0.3 * kIntervalS);
          add(make_record(rng, now_));
        }
        break;
      case Op::kLate:
        add(make_record(rng, now_ - rng.uniform(0.0, 1.5 * kIntervalS)));
        break;
      case Op::kJump:
        now_ += static_cast<double>(op.arg) * kIntervalS +
                rng.uniform(0.0, kIntervalS);
        add(make_record(rng, now_));
        break;
      case Op::kStartAt:
        if (auto failed = start_at(now_ + rng.uniform(-5.0, 5.0))) {
          return failed;
        }
        break;
      case Op::kFlush:
        if (anchor_.has_value() && oracle_->stats().intervals_closed == 0 &&
            oracle_->stats().records == 0) {
          ingest_empty_interval_zero();
        }
        oracle_->flush();
        subject_->flush();
        break;
      case Op::kDrain:
        subject_->drain();
        break;
      case Op::kSaveRestore:
        if (auto failed = save_restore(op.arg)) return failed;
        break;
    }
    if (oracle_->stats().intervals_closed > 0) anchor_.reset();
    return compare();
  }

 private:
  /// Where the engines stood at the last close or restore, and how many
  /// closes the oracle had logged then.
  struct Boundary {
    core::PipelineStats stats;
    core::StreamPosition position;
    std::size_t closes = 0;
  };

  void add(const traffic::FlowRecord& record) {
    oracle_->add_record(record);
    subject_->add_record(record);
  }

  /// start_at on a sharded subject; the oracle restores an anchored copy
  /// of its fresh state. A started stream must refuse on both sides.
  std::optional<std::string> start_at(double time_s) {
    ParallelPipeline* sharded = subject_->sharded();
    if (sharded == nullptr) return std::nullopt;  // the serial API has none
    const bool started = oracle_->position().started ||
                         oracle_->stats().records != 0;
    try {
      sharded->start_at(time_s);
    } catch (const std::logic_error&) {
      if (started) return std::nullopt;
      return "start_at refused on a stream that has not started";
    }
    if (started) return "start_at accepted on a started stream";
    const Bytes state = anchored(oracle_->save_state(), time_s);
    oracle_ = make_side(config_, 0, &state, oracle_log_);
    anchor_ = time_s;
    return std::nullopt;
  }

  /// flush() on a start_at-anchored, empty interval 0 closes it on the
  /// sharded front end; the oracle closes it by ingesting an empty batch.
  void ingest_empty_interval_zero() {
    if (subject_->sharded() == nullptr) return;
    core::ChangeDetectionPipeline* serial = oracle_->serial();
    core::IntervalBatch batch;
    batch.start_s = *anchor_;
    batch.len_s = kIntervalS;
    batch.high_water_s = *anchor_;
    batch.registers.assign(kCells, 0.0);
    if (config_.recovery == core::RecoveryMode::kInvertible) {
      batch.mv_candidates.assign(kCells, 0);
      batch.mv_votes.assign(kCells, 0.0);
    }
    serial->ingest_interval(std::move(batch));
  }

  /// save_state on both sides: both refuse, or both return the same bytes
  /// (timings masked). A snapshot taken before an anchored interval 0
  /// closes carries no anchor, so the oracle's anchor is dropped from its
  /// copy.
  std::optional<std::string> saved(std::optional<Bytes>& oracle_state,
                                   std::optional<Bytes>& subject_state) {
    try {
      oracle_state = oracle_->save_state();
    } catch (const std::logic_error&) {
      oracle_state.reset();
    }
    try {
      subject_state = subject_->save_state();
    } catch (const std::logic_error&) {
      subject_state.reset();
    }
    if (oracle_state.has_value() != subject_state.has_value()) {
      return std::string("save_state ") +
             (oracle_state ? "refused by the subject only"
                           : "refused by the oracle only");
    }
    if (!oracle_state.has_value()) return std::nullopt;
    if (anchor_.has_value() && subject_->sharded() != nullptr) {
      const Bytes fresh = core::ChangeDetectionPipeline(config_).save_state();
      std::memcpy(&oracle_state->at(kClockOffset), &fresh.at(kClockOffset),
                  32);
    }
    const bool pending =
        oracle_->stats().intervals_closed > oracle_log_.reports.size();
    Bytes a = *oracle_state;
    Bytes b = *subject_state;
    mask_state(a, pending);
    mask_state(b, pending);
    if (a != b) {
      return "save_state bytes differ (" + std::to_string(a.size()) + " vs " +
             std::to_string(b.size()) + " bytes)";
    }
    return std::nullopt;
  }

  std::optional<std::string> save_restore(std::uint64_t target) {
    std::optional<Bytes> oracle_state;
    std::optional<Bytes> subject_state;
    if (auto failed = saved(oracle_state, subject_state)) return failed;
    if (!oracle_state.has_value()) return std::nullopt;
    // The logs carry over: the new pipelines continue the same streams.
    oracle_.reset();
    subject_.reset();
    oracle_ = make_side(config_, 0, &*oracle_state, oracle_log_);
    subject_ = make_side(config_, target, &*subject_state, subject_log_);
    anchor_.reset();
    boundary_ = {oracle_->stats(), oracle_->position(),
                 oracle_log_.closes.size()};
    return std::nullopt;
  }

  std::optional<std::string> compare() {
    subject_->drain();  // the merger is idle: the accessors are ordered
    const Log& o = oracle_log_;
    const Log& s = subject_log_;
    if (o.reports.size() != s.reports.size()) {
      return "report count " + std::to_string(o.reports.size()) + " != " +
             std::to_string(s.reports.size());
    }
    for (std::size_t i = 0; i < o.reports.size(); ++i) {
      std::string d = diff_report(o.reports[i].report, s.reports[i].report) +
                      diff_stats(o.reports[i].stats, s.reports[i].stats);
      if (!d.empty()) return "report " + std::to_string(i) + ": " + d;
    }
    if (o.closes.size() != s.closes.size()) {
      return "close count " + std::to_string(o.closes.size()) + " != " +
             std::to_string(s.closes.size());
    }
    for (std::size_t i = 0; i < o.closes.size(); ++i) {
      const CloseEntry& x = o.closes[i];
      const CloseEntry& y = s.closes[i];
      std::string d = diff_stats(x.stats, y.stats) +
                      diff_position(x.position, y.position);
      if (x.closed != y.closed) d += "closed count differs; ";
      if (x.state != y.state) d += "close-time save_state bytes differ; ";
      if (!d.empty()) return "close " + std::to_string(i) + ": " + d;
    }
    if (o.closes.size() > boundary_.closes) {
      boundary_ = {o.closes.back().stats, o.closes.back().position,
                   o.closes.size()};
    }
    core::PipelineStats oracle_now = oracle_->stats();
    mask_stats(oracle_now);
    core::PipelineStats subject_now = subject_->stats();
    mask_stats(subject_now);
    if (ParallelPipeline* sharded = subject_->sharded()) {
      // The engine stands at the last close; the front end has counted
      // every record since.
      const ParallelStats front = sharded->parallel_stats();
      if (front.records != oracle_now.records ||
          front.out_of_order_records != oracle_now.out_of_order_records) {
        return "front-end counters differ";
      }
      // The engine's counters move at a close or a flush; its record and
      // late counts stand where the last close (or restore) left them.
      core::PipelineStats expected = oracle_now;
      expected.records = boundary_.stats.records;
      expected.out_of_order_records = boundary_.stats.out_of_order_records;
      std::string d = diff_stats(expected, subject_now) +
                      diff_position(boundary_.position, sharded->position());
      if (!d.empty()) return "at the boundary: " + d;
    } else {
      std::string d = diff_stats(oracle_now, subject_now) +
                      diff_position(oracle_->position(), subject_->position());
      if (!d.empty()) return d;
    }
    std::optional<Bytes> oracle_state;
    std::optional<Bytes> subject_state;
    return saved(oracle_state, subject_state);
  }

  core::PipelineConfig config_;
  Log oracle_log_;
  Log subject_log_;
  std::unique_ptr<Side> oracle_;
  std::unique_ptr<Side> subject_;
  Boundary boundary_;
  double now_ = 1000.0;
  std::optional<double> anchor_;  // interval 0's start_at anchor, unclosed
};

struct Scenario {
  Mode mode;
  std::uint64_t seed;
  [[nodiscard]] bool wide_keys() const { return (seed & 1) != 0; }
  [[nodiscard]] std::uint64_t workers() const {
    static constexpr std::uint64_t kWorkers[] = {1, 2, 4, 8};
    return kWorkers[(seed >> 1) % 4];
  }
};

/// Runs `ops`; returns "op i (...): what differed" at the first mismatch.
std::optional<std::string> run(const Scenario& scenario,
                               const std::vector<Op>& ops) {
  Run state(scenario.mode, scenario.wide_keys(), scenario.workers());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    std::optional<std::string> failed;
    try {
      failed = state.apply(ops[i]);
    } catch (const std::exception& e) {
      failed = std::string("threw: ") + e.what();
    }
    if (failed) return "op " + std::to_string(i) + " (" + describe(ops[i]) +
                       "): " + *failed;
  }
  return std::nullopt;
}

/// Greedy shrink: drop runs of operations, then single ones, while the
/// sequence still fails.
std::vector<Op> shrink(const Scenario& scenario, std::vector<Op> ops) {
  for (std::size_t width = ops.size() / 2; width >= 1; width /= 2) {
    for (std::size_t at = 0; at + width <= ops.size();) {
      std::vector<Op> candidate = ops;
      candidate.erase(candidate.begin() + static_cast<std::ptrdiff_t>(at),
                      candidate.begin() +
                          static_cast<std::ptrdiff_t>(at + width));
      if (run(scenario, candidate).has_value()) {
        ops = std::move(candidate);
      } else {
        at += width;
      }
    }
  }
  return ops;
}

void check_seeds(Mode mode, std::uint64_t first, std::uint64_t count) {
  for (std::uint64_t seed = first; seed < first + count; ++seed) {
    const Scenario scenario{mode, seed};
    const std::vector<Op> ops = draw_ops(seed);
    const std::optional<std::string> failed = run(scenario, ops);
    if (!failed) continue;
    const std::vector<Op> shrunk = shrink(scenario, ops);
    std::ostringstream out;
    out << "seed " << seed << " (W=" << scenario.workers()
        << (scenario.wide_keys() ? ", pair keys" : ", dst keys")
        << "): " << *failed << "\nshrunk to " << shrunk.size()
        << " ops, failing with: " << run(scenario, shrunk).value_or("?")
        << "\n";
    for (const Op& op : shrunk) out << "  " << describe(op) << "\n";
    ADD_FAILURE() << out.str();
    return;
  }
}

constexpr std::uint64_t kSeeds = 24;

TEST(FrontEndDifferential, ReplayCurrentIntervalMatchesTheSerialOracle) {
  check_seeds(Mode::kReplayCurrent, 1, kSeeds);
}

TEST(FrontEndDifferential, ReplayNextIntervalMatchesTheSerialOracle) {
  check_seeds(Mode::kReplayNext, 1001, kSeeds);
}

TEST(FrontEndDifferential, InvertibleMatchesTheSerialOracle) {
  check_seeds(Mode::kInvertible, 2001, kSeeds);
}

}  // namespace
}  // namespace scd::ingest
