// IntervalCutter — the stream clock every front end shares.
//
// The sketch module (§2.2) cuts the record stream into intervals and §6
// randomizes their lengths. Every front end (the serial engine, the sharded
// ParallelPipeline and, through the serial engine, the mmap trace feed)
// bins records with this one cutter, so they agree on every boundary:
//   * anchor — the first record, or an explicit start_at, opens interval 0;
//   * late records — a timestamp below the high-water mark is counted
//     (PipelineStats::out_of_order_records and, when wired, the
//     scd_pipeline_out_of_order_total counter) and binned into the open
//     interval, clamped to its start when it predates even that;
//   * gaps — a record past the open interval's end closes every interval up
//     to its own, empty ones included;
//   * length — interval_s, or with randomize_intervals a draw from an
//     exponential with mean interval_s clamped to [0.25, 4] * interval_s;
//   * position — the open interval's index, start, length and record count.
//
// The cutter only decides where records go; the caller owns what an
// interval close does (forecast and detect, or stamp a shard epoch).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "common/random.h"
#include "core/pipeline.h"
#include "obs/metrics.h"

namespace scd::core {

class IntervalCutter {
 public:
  /// Where the clock stands. Plain data, so the engine-state codec can write
  /// each field where its layout puts it.
  struct Position {
    bool started = false;
    double start_s = 0.0;       // open interval's start
    double len_s = 0.0;         // open interval's length
    double high_water_s = 0.0;  // largest timestamp seen
    std::uint64_t index = 0;    // open interval's 0-based index
    std::uint64_t records = 0;  // records binned into the open interval
    std::uint64_t out_of_order = 0;  // late records over the stream's life

    [[nodiscard]] double end_s() const noexcept { return start_s + len_s; }
  };

  /// Reads interval_s, randomize_intervals and seed from `config`. A
  /// non-null `out_of_order_metric` is bumped once per late record.
  explicit IntervalCutter(const PipelineConfig& config,
                          obs::Counter* out_of_order_metric = nullptr)
      : interval_s_(config.interval_s),
        randomize_(config.randomize_intervals),
        length_rng_(config.seed ^ 0x1234abcd5678ef90ULL),
        out_of_order_metric_(out_of_order_metric) {
    pos_.len_s = randomize_ ? draw_length() : interval_s_;
  }

  /// Anchors interval 0 at `time_s` before any record arrives. Throws
  /// std::logic_error once the stream has started and
  /// std::invalid_argument for a non-finite anchor.
  void start_at(double time_s) {
    if (pos_.started) {
      throw std::logic_error(
          "start_at: the stream has already started (call before the first "
          "record, or restore a snapshot instead)");
    }
    if (!std::isfinite(time_s)) {
      throw std::invalid_argument("start_at: anchor time must be finite");
    }
    anchor(time_s);
  }

  /// Bins one record stamped `time_s`: anchors the stream on the first
  /// record, clamps a late one into the open interval, and calls `close()`
  /// once for every interval that ends at or before the record's time.
  /// `close` must finish with next(); the loop waits on it. Returns the
  /// time the record is binned at.
  template <typename Close>
  double place(double time_s, Close&& close) {
    if (!pos_.started) anchor(time_s);
    if (time_s < pos_.high_water_s) {
      // Late record. Keep the feed alive: count it and bin it into the open
      // interval — the nondecreasing-order contract is enforced by
      // correction, not by aborting the stream or silently mis-binning.
      ++pos_.out_of_order;
      if (out_of_order_metric_ != nullptr) out_of_order_metric_->inc();
      time_s = std::max(time_s, pos_.start_s);
    } else {
      pos_.high_water_s = time_s;
    }
    while (time_s >= pos_.end_s()) close();
    ++pos_.records;
    return time_s;
  }

  /// Moves past the open interval: the next one starts where it ended, with
  /// a fresh length and no records.
  void next() noexcept {
    pos_.start_s += pos_.len_s;
    if (randomize_) pos_.len_s = draw_length();
    ++pos_.index;
    pos_.records = 0;
  }

  /// Opens an interval that was cut elsewhere (a sharded front end's merged
  /// batch) so the caller can close it: [start_s, start_s + len_s) holding
  /// `records` records, `late` of them out of order, cut by a clock whose
  /// high-water mark stood at `high_water_s`. The late records were counted
  /// (and the metric bumped) where they were cut, so the metric is left
  /// alone here.
  void open(double start_s, double len_s, std::uint64_t records,
            std::uint64_t late, double high_water_s) noexcept {
    pos_.started = true;
    pos_.start_s = start_s;
    pos_.len_s = len_s;
    pos_.high_water_s = std::max(pos_.high_water_s, high_water_s);
    pos_.records = records;
    pos_.out_of_order += late;
  }

  [[nodiscard]] const Position& position() const noexcept { return pos_; }

  /// Restores a saved position. The length generator is restored on its
  /// own, through length_rng().
  void restore(const Position& position) noexcept { pos_ = position; }

  /// §6's interval-length generator; exposed only so the engine-state codec
  /// can save and restore it.
  [[nodiscard]] common::Rng& length_rng() noexcept { return length_rng_; }
  [[nodiscard]] const common::Rng& length_rng() const noexcept {
    return length_rng_;
  }

 private:
  void anchor(double time_s) noexcept {
    pos_.started = true;
    pos_.start_s = time_s;
    pos_.high_water_s = time_s;
  }

  [[nodiscard]] double draw_length() noexcept {
    const double len = length_rng_.exponential(1.0 / interval_s_);
    return std::clamp(len, 0.25 * interval_s_, 4.0 * interval_s_);
  }

  double interval_s_;
  bool randomize_;
  common::Rng length_rng_;
  obs::Counter* out_of_order_metric_;
  Position pos_;
};

}  // namespace scd::core
