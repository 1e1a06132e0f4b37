#include "core/pipeline.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/random.h"
#include "sketch/kary_sketch.h"
#include "sketch/mv_sketch.h"

namespace scd::core {
namespace {

PipelineConfig base_config() {
  PipelineConfig config;
  config.interval_s = 10.0;
  config.h = 5;
  config.k = 4096;
  config.model.kind = forecast::ModelKind::kEwma;
  config.model.alpha = 0.5;
  config.threshold = 0.2;
  return config;
}

/// Steady background: 50 keys at constant value per interval, plus an
/// optional spike key in given intervals.
void feed_stream(ChangeDetectionPipeline& pipeline, std::size_t intervals,
                 std::uint64_t spike_key = 0, double spike_value = 0.0,
                 std::size_t spike_from = ~0u, std::size_t spike_to = 0) {
  scd::common::Rng rng(1);
  for (std::size_t t = 0; t < intervals; ++t) {
    const double start = static_cast<double>(t) * 10.0;
    for (std::uint64_t key = 1; key <= 50; ++key) {
      pipeline.add(key, 100.0 + rng.uniform(-5, 5), start + 1.0);
    }
    if (t >= spike_from && t <= spike_to) {
      pipeline.add(spike_key, spike_value, start + 2.0);
    }
  }
  pipeline.flush();
}

TEST(PipelineConfig, ValidateAcceptsDefaults) {
  EXPECT_NO_THROW(base_config().validate());
}

TEST(PipelineConfig, ValidateRejectsBadValues) {
  auto c = base_config();
  c.k = 1000;  // not a power of two
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = base_config();
  c.h = 0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = base_config();
  c.interval_s = 0.0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = base_config();
  c.key_sample_rate = 0.0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = base_config();
  c.model.alpha = 5.0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = base_config();
  c.refit_every = 10;
  c.refit_window = 2;
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(Pipeline, ProducesOneReportPerInterval) {
  ChangeDetectionPipeline pipeline(base_config());
  feed_stream(pipeline, 8);
  ASSERT_EQ(pipeline.reports().size(), 8u);
  for (std::size_t t = 0; t < 8; ++t) {
    EXPECT_EQ(pipeline.reports()[t].index, t);
    EXPECT_EQ(pipeline.reports()[t].records, t == 0 ? 50u : 50u);
  }
}

TEST(Pipeline, WarmupIntervalHasNoDetection) {
  ChangeDetectionPipeline pipeline(base_config());
  feed_stream(pipeline, 4);
  EXPECT_FALSE(pipeline.reports()[0].detection_ran);
  EXPECT_TRUE(pipeline.reports()[1].detection_ran);
}

TEST(Pipeline, SteadyTrafficRaisesFewAlarms) {
  // An L2-relative threshold needs enough flows that the norm dwarfs any
  // single flow's noise (the paper's regime); use 500 steady keys.
  ChangeDetectionPipeline pipeline(base_config());
  scd::common::Rng rng(4);
  for (std::size_t t = 0; t < 10; ++t) {
    const double start = static_cast<double>(t) * 10.0;
    for (std::uint64_t key = 1; key <= 500; ++key) {
      pipeline.add(key, 100.0 + rng.uniform(-5, 5), start + 1.0);
    }
  }
  pipeline.flush();
  std::size_t alarms = 0;
  for (const auto& r : pipeline.reports()) alarms += r.alarms.size();
  // Per-key noise errors ~ +-7 vs threshold 0.2 * L2 ~ 0.2*sqrt(500*9) ~ 13.
  EXPECT_LT(alarms, 5u);
}

TEST(Pipeline, DetectsInjectedSpike) {
  ChangeDetectionPipeline pipeline(base_config());
  // Key 999 suddenly moves 5000 bytes in interval 6.
  feed_stream(pipeline, 10, 999, 5000.0, 6, 6);
  const auto& report = pipeline.reports()[6];
  ASSERT_TRUE(report.detection_ran);
  ASSERT_FALSE(report.alarms.empty());
  EXPECT_EQ(report.alarms[0].key, 999u);
  EXPECT_GT(report.alarms[0].error, 4000.0);
  EXPECT_GT(report.alarm_threshold, 0.0);
}

TEST(Pipeline, SpikeDisappearanceAlsoAlarms) {
  // The turnstile model detects negative changes: a key that was steady and
  // vanishes must produce a large negative forecast error.
  auto config = base_config();
  ChangeDetectionPipeline pipeline(config);
  scd::common::Rng rng(2);
  for (std::size_t t = 0; t < 10; ++t) {
    const double start = static_cast<double>(t) * 10.0;
    for (std::uint64_t key = 1; key <= 30; ++key) {
      pipeline.add(key, 100.0, start + 1.0);
    }
    if (t < 6) pipeline.add(777, 8000.0, start + 2.0);
    // Key 777 must still appear (tiny) so current-interval replay sees it.
    if (t >= 6) pipeline.add(777, 1.0, start + 2.0);
  }
  pipeline.flush();
  const auto& report = pipeline.reports()[6];
  ASSERT_TRUE(report.detection_ran);
  ASSERT_FALSE(report.alarms.empty());
  EXPECT_EQ(report.alarms[0].key, 777u);
  EXPECT_LT(report.alarms[0].error, -4000.0);
}

TEST(Pipeline, NextIntervalModeDetectsWithLag) {
  auto config = base_config();
  config.replay = KeyReplayMode::kNextInterval;
  ChangeDetectionPipeline pipeline(config);
  // Spike persists for two intervals so its key appears after the error
  // sketch is built.
  feed_stream(pipeline, 10, 999, 5000.0, 6, 7);
  ASSERT_EQ(pipeline.reports().size(), 10u);
  const auto& report = pipeline.reports()[6];
  ASSERT_TRUE(report.detection_ran);
  ASSERT_FALSE(report.alarms.empty());
  EXPECT_EQ(report.alarms[0].key, 999u);
}

TEST(Pipeline, EmptyGapIntervalsAreReported) {
  ChangeDetectionPipeline pipeline(base_config());
  pipeline.add(1, 100.0, 5.0);
  pipeline.add(1, 100.0, 45.0);  // jumps over intervals 1..3
  pipeline.flush();
  ASSERT_EQ(pipeline.reports().size(), 5u);
  EXPECT_EQ(pipeline.reports()[1].records, 0u);
  EXPECT_EQ(pipeline.reports()[2].records, 0u);
}

TEST(Pipeline, OutOfOrderRecordsAreClampedAndCounted) {
  // A regressing timestamp must not abort a live feed (one late NetFlow
  // export would kill the stream) nor mis-bin into a past interval: the
  // record is clamped into the open interval and counted.
  ChangeDetectionPipeline pipeline(base_config());
  pipeline.add(1, 1.0, 100.0);
  EXPECT_NO_THROW(pipeline.add(2, 1.0, 50.0));  // predates the interval start
  EXPECT_NO_THROW(pipeline.add(3, 1.0, 102.0));
  EXPECT_NO_THROW(pipeline.add(4, 1.0, 101.0));  // within the open interval
  pipeline.flush();
  EXPECT_EQ(pipeline.stats().out_of_order_records, 2u);
  ASSERT_EQ(pipeline.reports().size(), 1u);  // nothing opened a past interval
  EXPECT_EQ(pipeline.reports()[0].records, 4u);
  EXPECT_DOUBLE_EQ(pipeline.reports()[0].start_s, 100.0);
}

TEST(Pipeline, OutOfOrderClampUsesHighWaterMarkNotIntervalStart) {
  // The high-water mark spans interval closes: after time 25 advances the
  // stream into interval [20, 30), a record at time 12 is late even though
  // a fresh interval just opened.
  ChangeDetectionPipeline pipeline(base_config());
  pipeline.add(1, 1.0, 5.0);
  pipeline.add(1, 1.0, 25.0);
  pipeline.add(1, 1.0, 12.0);  // late: clamped into [20, 30), not [10, 20)
  pipeline.flush();
  EXPECT_EQ(pipeline.stats().out_of_order_records, 1u);
  ASSERT_EQ(pipeline.reports().size(), 3u);
  EXPECT_EQ(pipeline.reports()[2].records, 2u);
}

TEST(Pipeline, IngestIntervalMatchesAddPath) {
  // Feeding pre-aggregated intervals (registers + keys + count) must drive
  // the forecast/detect stages exactly as the record-by-record path: hash
  // families are deterministic in (seed, h), so an external sketch built
  // with the pipeline's parameters is register-compatible.
  const auto config = base_config();
  ChangeDetectionPipeline by_records(config);
  ChangeDetectionPipeline by_batches(config);
  const auto family = sketch::make_tabulation_family(config.seed, config.h);
  for (std::size_t t = 0; t < 8; ++t) {
    const double start = static_cast<double>(t) * config.interval_s;
    sketch::KarySketch external(family, config.k);
    IntervalBatch batch;
    for (std::uint64_t key = 1; key <= 50; ++key) {
      const double value =
          100.0 + static_cast<double>(common::mix64(key * 100 + t) % 11);
      by_records.add(key, value, start + 1.0);
      external.update(key, value);
      batch.keys.push_back(key);
      ++batch.records;
    }
    if (t == 5) {
      by_records.add(999, 5000.0, start + 2.0);
      external.update(999, 5000.0);
      batch.keys.push_back(999);
      ++batch.records;
    }
    batch.start_s = start;
    batch.len_s = config.interval_s;
    batch.registers.assign(external.registers().begin(),
                           external.registers().end());
    by_batches.ingest_interval(std::move(batch));
  }
  by_records.flush();
  by_batches.flush();
  ASSERT_EQ(by_batches.reports().size(), by_records.reports().size());
  for (std::size_t i = 0; i < by_records.reports().size(); ++i) {
    const auto& r = by_records.reports()[i];
    const auto& b = by_batches.reports()[i];
    EXPECT_EQ(b.records, r.records) << i;
    EXPECT_EQ(b.keys_checked, r.keys_checked) << i;
    EXPECT_DOUBLE_EQ(b.estimated_error_f2, r.estimated_error_f2) << i;
    ASSERT_EQ(b.alarms.size(), r.alarms.size()) << i;
    for (std::size_t a = 0; a < r.alarms.size(); ++a) {
      EXPECT_EQ(b.alarms[a].key, r.alarms[a].key);
      EXPECT_DOUBLE_EQ(b.alarms[a].error, r.alarms[a].error);
    }
  }
  EXPECT_EQ(by_batches.stats().records, by_records.stats().records);
}

TEST(Pipeline, IngestIntervalValidatesItsBatch) {
  const auto config = base_config();
  ChangeDetectionPipeline pipeline(config);
  const auto valid = [&config] {
    IntervalBatch batch;
    batch.start_s = 0.0;
    batch.len_s = config.interval_s;
    batch.registers.assign(config.h * config.k, 0.0);
    return batch;
  };

  IntervalBatch wrong_size = valid();
  wrong_size.registers.resize(config.h * config.k - 1);
  EXPECT_THROW(pipeline.ingest_interval(std::move(wrong_size)),
               std::invalid_argument);

  IntervalBatch bad_len = valid();
  bad_len.len_s = 0.0;
  EXPECT_THROW(pipeline.ingest_interval(std::move(bad_len)),
               std::invalid_argument);

  EXPECT_NO_THROW(pipeline.ingest_interval(valid()));
  IntervalBatch regressed = valid();
  regressed.start_s = -20.0;  // before the interval just ingested
  EXPECT_THROW(pipeline.ingest_interval(std::move(regressed)),
               std::invalid_argument);

  // Mixing feeds inside one interval is not supported: an interval opened by
  // add() must be closed before a batch can be ingested.
  ChangeDetectionPipeline mixed(config);
  mixed.add(1, 1.0, 0.0);
  EXPECT_THROW(mixed.ingest_interval(valid()), std::invalid_argument);
}

/// An invertible pipeline's batch: an MvSketch64's tables after `updates`
/// records of key 7.
IntervalBatch invertible_batch(const PipelineConfig& config, double start_s,
                               int updates) {
  sketch::MvSketch64 sketch(sketch::make_cw_family(config.seed, config.h),
                            config.k);
  for (int i = 0; i < updates; ++i) sketch.update(7, 10.0);
  IntervalBatch batch;
  batch.start_s = start_s;
  batch.len_s = config.interval_s;
  batch.records = static_cast<std::uint64_t>(updates);
  batch.registers.assign(sketch.registers().begin(), sketch.registers().end());
  batch.mv_candidates.assign(sketch.candidates().begin(),
                             sketch.candidates().end());
  batch.mv_votes.assign(sketch.votes().begin(), sketch.votes().end());
  return batch;
}

PipelineConfig invertible_config() {
  PipelineConfig config = base_config();
  config.key_kind = traffic::KeyKind::kSrcDstPair;
  config.recovery = RecoveryMode::kInvertible;
  return config;
}

TEST(Pipeline, RejectedBatchLeavesTheEngineReadyForTheNext) {
  // Every shape check runs before the engine changes: a batch whose vote
  // state has the wrong size throws, is left as it was, and the next valid
  // batch is accepted.
  const PipelineConfig config = invertible_config();
  ChangeDetectionPipeline pipeline(config);
  IntervalBatch bad = invertible_batch(config, 0.0, 3);
  bad.mv_votes.pop_back();
  const std::vector<double> registers = bad.registers;
  EXPECT_THROW(pipeline.ingest_interval(std::move(bad)),
               std::invalid_argument);
  EXPECT_EQ(bad.registers, registers);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(pipeline.position().interval_index, 0u);

  IntervalBatch short_candidates = invertible_batch(config, 0.0, 3);
  short_candidates.mv_candidates.clear();
  EXPECT_THROW(pipeline.ingest_interval(std::move(short_candidates)),
               std::invalid_argument);

  EXPECT_NO_THROW(pipeline.ingest_interval(invertible_batch(config, 0.0, 3)));
  EXPECT_NO_THROW(pipeline.ingest_interval(invertible_batch(config, 10.0, 4)));
  ASSERT_EQ(pipeline.reports().size(), 2u);
  EXPECT_EQ(pipeline.reports()[0].records, 3u);
  EXPECT_EQ(pipeline.reports()[1].records, 4u);
}

TEST(Pipeline, IngestIntervalReturnsItsPreviousTablesOfTheSameShape) {
  // The engine adopts the batch's tables by swap and leaves an earlier
  // interval's tables behind, not zeroed (the IntervalBatch post-condition):
  // the last ones it adopted in replay mode, and the ones before those in
  // invertible mode, whose close keeps the last interval's votes.
  const std::size_t cells = base_config().h * base_config().k;
  for (const bool invertible : {false, true}) {
    SCOPED_TRACE(invertible ? "invertible" : "replay");
    const PipelineConfig config =
        invertible ? invertible_config() : base_config();
    const std::size_t lag = invertible ? 2 : 1;
    ChangeDetectionPipeline pipeline(config);
    std::vector<const double*> adopted;
    for (std::size_t t = 0; t < 4; ++t) {
      IntervalBatch batch =
          invertible_batch(config, 10.0 * static_cast<double>(t),
                           5 + static_cast<int>(t));
      if (!invertible) {  // only the register table's shape matters here
        batch.mv_candidates.clear();
        batch.mv_votes.clear();
        batch.keys = {7};
      }
      adopted.push_back(batch.registers.data());
      pipeline.ingest_interval(std::move(batch));
      // NOLINTBEGIN(bugprone-use-after-move): ingest_interval swaps.
      ASSERT_EQ(batch.registers.size(), cells);
      if (t >= lag) {
        EXPECT_EQ(batch.registers.data(), adopted[t - lag]);
        EXPECT_TRUE(std::any_of(batch.registers.begin(),
                                batch.registers.end(),
                                [](double v) { return v != 0.0; }));
      } else {
        EXPECT_NE(batch.registers.data(), adopted[t]);
      }
      if (invertible) {
        EXPECT_EQ(batch.mv_candidates.size(), cells);
        EXPECT_EQ(batch.mv_votes.size(), cells);
      } else {
        EXPECT_TRUE(batch.mv_candidates.empty());
      }
      EXPECT_EQ(batch.records, static_cast<std::uint64_t>(5 + t));
      // NOLINTEND(bugprone-use-after-move)
    }
    ASSERT_EQ(pipeline.reports().size(), 4u);
  }
}

/// FNV-1a over `bytes`, continuing from `hash`.
std::uint64_t fnv1a(std::uint64_t hash,
                    const std::vector<std::uint8_t>& bytes) {
  for (const std::uint8_t b : bytes) {
    hash ^= b;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// One interval's records: 40 steady keys, and from interval 7 on a surge
/// on one of them.
std::vector<std::pair<std::uint64_t, double>> interval_records(
    std::size_t t, bool wide_keys) {
  scd::common::Rng rng(100 + t);
  std::vector<std::pair<std::uint64_t, double>> out;
  for (std::uint64_t key = 1; key <= 40; ++key) {
    const std::uint64_t k = wide_keys ? key * 0x9e3779b97f4a7c15ULL : key;
    out.emplace_back(k, 100.0 + rng.uniform(-5.0, 5.0));
  }
  if (t >= 7) out.emplace_back(wide_keys ? 0xfeedULL << 40 : 77, 900.0);
  return out;
}

/// Digest of every save_state() taken right after each close and of every
/// report, for a serial pipeline fed interval by interval through add() or
/// through ingest_interval() with a batch it fills itself, with a gap the
/// add() path closes as an empty interval.
template <class Sketch>
std::uint64_t alternating_feeds_digest(const PipelineConfig& config) {
  constexpr bool kVotes =
      requires(const Sketch& s) { s.recover_heavy_keys(0.0); };
  const bool wide_keys = config.key_kind == traffic::KeyKind::kSrcDstPair;
  ChangeDetectionPipeline pipeline(config);
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  pipeline.set_interval_close_callback([&](std::size_t) {
    std::vector<std::uint8_t> state = pipeline.save_state();
    // The stats block's wall-clock stage totals vary run to run: zeroed at
    // the offsets tests/golden/golden_bytes_test.cpp documents, after a
    // check that stats.records sits where the layout puts it.
    std::uint64_t records = 0;
    for (std::size_t i = 0; i < 8; ++i) {
      records |= static_cast<std::uint64_t>(state.at(304 + i)) << (8 * i);
    }
    EXPECT_EQ(records, pipeline.stats().records);
    for (const std::size_t offset : {376u, 392u, 400u, 408u, 416u, 424u}) {
      std::fill_n(state.begin() + static_cast<std::ptrdiff_t>(offset), 8, 0);
    }
    digest = fnv1a(digest, state);
  });
  const auto family =
      std::make_shared<const typename Sketch::FamilyType>(config.seed,
                                                          config.h);
  // 'a': add(); 'i': ingest_interval(); '-': no records.
  const std::string feeds = "aiaai-aiaaia";
  for (std::size_t t = 0; t < feeds.size(); ++t) {
    const double start = 10.0 * static_cast<double>(t);
    const auto records = interval_records(t, wide_keys);
    if (feeds[t] == 'a') {
      for (const auto& [key, update] : records) {
        pipeline.add(key, update, start);  // anchors interval 0 at 0 s
      }
    } else if (feeds[t] == 'i') {
      pipeline.flush();  // closes an interval add() opened
      Sketch sketch(family, config.k);
      IntervalBatch batch;
      for (const auto& [key, update] : records) {
        sketch.update(key, update);
        batch.keys.push_back(key);
      }
      if constexpr (kVotes) batch.keys.clear();
      batch.start_s = start;
      batch.len_s = config.interval_s;
      batch.records = records.size();
      batch.high_water_s = start;
      batch.registers.assign(sketch.registers().begin(),
                             sketch.registers().end());
      if constexpr (kVotes) {
        batch.mv_candidates.assign(sketch.candidates().begin(),
                                   sketch.candidates().end());
        batch.mv_votes.assign(sketch.votes().begin(), sketch.votes().end());
      }
      pipeline.ingest_interval(std::move(batch));
    }
  }
  pipeline.flush();
  for (const IntervalReport& r : pipeline.reports()) {
    std::vector<std::uint8_t> bytes;
    common::ByteWriter out(bytes);
    out.field(r.index);
    out.field(r.estimated_error_f2);
    out.field(r.alarm_threshold);
    for (const detect::Alarm& alarm : r.alarms) out.field(alarm.key);
    digest = fnv1a(digest, bytes);
  }
  EXPECT_EQ(pipeline.reports().size(), feeds.size());
  return digest;
}

TEST(Pipeline, AlternatingFeedsSaveTheBytesTheyAlwaysSaved) {
  // The engine zeroes its observed table when an interval's first record
  // (or an empty interval's close) needs it, not at every close, and
  // ingest_interval hands back the tables it held. Neither may move a byte
  // of what the pipeline saves or reports: the digests were taken when
  // every close zeroed the table it recycled.
  PipelineConfig replay = base_config();
  replay.k = 1024;
  EXPECT_EQ(alternating_feeds_digest<sketch::KarySketch>(replay),
            0xa37105ee9d082f85ULL);
  PipelineConfig invertible = replay;
  invertible.key_kind = traffic::KeyKind::kSrcDstPair;
  invertible.recovery = RecoveryMode::kInvertible;
  EXPECT_EQ(alternating_feeds_digest<sketch::MvSketch64>(invertible),
            0x2550370727a38282ULL);
}

TEST(Pipeline, CallbackSeesEveryReport) {
  ChangeDetectionPipeline pipeline(base_config());
  std::size_t seen = 0;
  pipeline.set_report_callback(
      [&seen](const IntervalReport& r) { seen = std::max(seen, r.index + 1); });
  feed_stream(pipeline, 5);
  EXPECT_EQ(seen, 5u);
}

TEST(Pipeline, MaxAlarmsCapRespected) {
  auto config = base_config();
  config.max_alarms_per_interval = 3;
  config.threshold = 0.0;  // flag everything
  ChangeDetectionPipeline pipeline(config);
  feed_stream(pipeline, 4);
  for (const auto& r : pipeline.reports()) {
    EXPECT_LE(r.alarms.size(), 3u);
  }
}

TEST(Pipeline, SampledReplayChecksFewerKeys) {
  auto full = base_config();
  auto sampled = base_config();
  sampled.key_sample_rate = 0.2;
  ChangeDetectionPipeline p_full(full), p_sampled(sampled);
  feed_stream(p_full, 6);
  feed_stream(p_sampled, 6);
  const auto& rf = p_full.reports()[3];
  const auto& rs = p_sampled.reports()[3];
  EXPECT_EQ(rf.keys_checked, 50u);
  EXPECT_LT(rs.keys_checked, 30u);
  EXPECT_GT(rs.keys_checked, 1u);
}

TEST(Pipeline, AddRecordUsesConfiguredExtraction) {
  auto config = base_config();
  config.key_kind = traffic::KeyKind::kDstIp;
  config.update_kind = traffic::UpdateKind::kBytes;
  ChangeDetectionPipeline pipeline(config);
  traffic::FlowRecord r;
  r.timestamp_us = 1000000;
  r.dst_ip = 42;
  r.bytes = 500;
  pipeline.add_record(r);
  pipeline.flush();
  ASSERT_EQ(pipeline.reports().size(), 1u);
  EXPECT_EQ(pipeline.reports()[0].records, 1u);
}

TEST(Pipeline, SrcDstPairKeysUseWideFamily) {
  auto config = base_config();
  config.key_kind = traffic::KeyKind::kSrcDstPair;
  ChangeDetectionPipeline pipeline(config);
  traffic::FlowRecord r;
  r.timestamp_us = 0;
  r.src_ip = 0xffffffff;
  r.dst_ip = 0xeeeeeeee;
  r.bytes = 100;
  EXPECT_NO_THROW(pipeline.add_record(r));
  pipeline.flush();
  EXPECT_EQ(pipeline.reports().size(), 1u);
}

TEST(Pipeline, OnlineRefitUpdatesModelParameters) {
  auto config = base_config();
  config.refit_every = 8;
  config.refit_window = 8;
  config.model.alpha = 0.05;  // poor fit for the jumpy series below
  ChangeDetectionPipeline pipeline(config);
  scd::common::Rng rng(3);
  // A strongly level-shifting series: best EWMA alpha is near 1.
  double level = 100.0;
  for (std::size_t t = 0; t < 20; ++t) {
    if (t % 3 == 0) level = rng.uniform(50, 5000);
    for (std::uint64_t key = 1; key <= 20; ++key) {
      pipeline.add(key, level, static_cast<double>(t) * 10.0 + 1.0);
    }
  }
  pipeline.flush();
  EXPECT_NE(pipeline.active_model().alpha, 0.05);
}

TEST(Pipeline, SeasonalRefitKeepsThePeriodAndKeepsDetecting) {
  // The refit searches seasonal Holt-Winters at the configured period, and
  // a candidate that forecasts no interval of the refit window cannot win:
  // it would score 0 and switch detection off for good. With an 8-interval
  // window no m=4 candidate warms up in time, so the model stays; with 16
  // the refit moves the smoothing weights but keeps m=4.
  for (const std::size_t window : {8u, 16u}) {
    SCOPED_TRACE("refit_window " + std::to_string(window));
    auto config = base_config();
    config.model.kind = forecast::ModelKind::kSeasonalHoltWinters;
    config.model.alpha = 0.5;
    config.model.beta = 0.2;
    config.model.gamma = 0.3;
    config.model.period = 4;
    config.h = 3;
    config.k = 64;  // a small sketch keeps the 2000-candidate searches fast
    config.refit_every = 5;
    config.refit_window = window;
    ChangeDetectionPipeline pipeline(config);
    for (std::size_t t = 0; t < 32; ++t) {
      const double season = 100.0 * static_cast<double>(1 + t % 4);
      for (std::uint64_t key = 1; key <= 20; ++key) {
        pipeline.add(key, season + static_cast<double>(key),
                     static_cast<double>(t) * 10.0 + 1.0);
      }
    }
    pipeline.flush();
    EXPECT_GE(pipeline.stats().refits, 1u);
    EXPECT_EQ(pipeline.active_model().period, 4u);
    const std::vector<IntervalReport>& reports = pipeline.reports();
    ASSERT_EQ(reports.size(), 32u);
    EXPECT_TRUE(reports.back().detection_ran);
    std::size_t first_detection = reports.size();
    for (std::size_t i = 0; i < reports.size(); ++i) {
      if (reports[i].detection_ran) {
        first_detection = std::min(first_detection, i);
      } else {
        EXPECT_EQ(first_detection, reports.size())
            << "detection stopped at interval " << i;
      }
    }
    EXPECT_LT(first_detection, 12u);
  }
}

TEST(Pipeline, FlushIsIdempotent) {
  // A second flush must be a no-op: the first one already closed the open
  // interval, and no record has opened a new one since.
  ChangeDetectionPipeline pipeline(base_config());
  feed_stream(pipeline, 3);  // feed_stream already flushes
  const std::size_t n = pipeline.reports().size();
  pipeline.flush();
  EXPECT_EQ(pipeline.reports().size(), n);
}

TEST(Pipeline, RandomizedIntervalsVaryLengths) {
  auto config = base_config();
  config.randomize_intervals = true;
  ChangeDetectionPipeline pipeline(config);
  for (int i = 0; i < 400; ++i) {
    pipeline.add(1, 100.0, static_cast<double>(i));
  }
  pipeline.flush();
  const auto& reports = pipeline.reports();
  ASSERT_GE(reports.size(), 5u);
  // Lengths differ across intervals and stay within the clamp band.
  bool some_differ = false;
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const double len = reports[i].end_s - reports[i].start_s;
    EXPECT_GE(len, 0.25 * config.interval_s - 1e-9);
    EXPECT_LE(len, 4.0 * config.interval_s + 1e-9);
    if (i > 0 && std::abs(len - (reports[0].end_s - reports[0].start_s)) >
                     1e-9) {
      some_differ = true;
    }
  }
  EXPECT_TRUE(some_differ);
  // Intervals tile the timeline with no gaps.
  for (std::size_t i = 1; i < reports.size(); ++i) {
    EXPECT_DOUBLE_EQ(reports[i].start_s, reports[i - 1].end_s);
  }
}

TEST(Pipeline, RandomizedIntervalsStillDetectSpikes) {
  auto config = base_config();
  config.randomize_intervals = true;
  config.threshold = 0.3;
  ChangeDetectionPipeline pipeline(config);
  // Per-second steady stream so every random-length interval sees volume
  // proportional to its length (normalization makes them comparable).
  for (int s = 0; s < 300; ++s) {
    for (std::uint64_t key = 1; key <= 30; ++key) {
      pipeline.add(key, 10.0, static_cast<double>(s));
    }
    if (s >= 200 && s < 230) pipeline.add(999, 3000.0, s + 0.5);
  }
  pipeline.flush();
  bool flagged = false;
  for (const auto& report : pipeline.reports()) {
    for (const auto& alarm : report.alarms) {
      if (alarm.key == 999) flagged = true;
    }
  }
  EXPECT_TRUE(flagged);
}

TEST(Pipeline, RandomizedIntervalsAreDeterministicPerSeed) {
  auto config = base_config();
  config.randomize_intervals = true;
  ChangeDetectionPipeline p1(config), p2(config);
  for (int i = 0; i < 200; ++i) {
    p1.add(1, 50.0, static_cast<double>(i));
    p2.add(1, 50.0, static_cast<double>(i));
  }
  p1.flush();
  p2.flush();
  ASSERT_EQ(p1.reports().size(), p2.reports().size());
  for (std::size_t i = 0; i < p1.reports().size(); ++i) {
    EXPECT_DOUBLE_EQ(p1.reports()[i].end_s, p2.reports()[i].end_s);
  }
}

TEST(Pipeline, TopNCriterionAlwaysReportsNKeys) {
  auto config = base_config();
  config.criterion = DetectionCriterion::kTopN;
  config.max_alarms_per_interval = 3;
  ChangeDetectionPipeline pipeline(config);
  feed_stream(pipeline, 6);
  for (const auto& report : pipeline.reports()) {
    if (!report.detection_ran) continue;
    EXPECT_EQ(report.alarms.size(), 3u) << report.index;
    // Alarms come ranked by |error| descending.
    for (std::size_t i = 1; i < report.alarms.size(); ++i) {
      EXPECT_GE(std::abs(report.alarms[i - 1].error),
                std::abs(report.alarms[i].error));
    }
  }
}

TEST(Pipeline, SmoothedBaselinePreventsSelfMasking) {
  // A single enormous change inflates the current interval's error L2 so
  // much that, at a high threshold T, it can fail its own T * L2 cut.
  // Anchoring the threshold to the smoothed history must flag it.
  auto current = base_config();
  current.threshold = 0.95;
  auto smoothed = current;
  smoothed.baseline = ThresholdBaseline::kSmoothedF2;

  // Two keys change at once so neither carries ~100% of the interval's L2:
  // each holds ~1/sqrt(2) ~ 0.71 of it, below the 0.95 cut.
  const auto feed = [](ChangeDetectionPipeline& pipeline) {
    scd::common::Rng rng(5);
    for (std::size_t t = 0; t < 8; ++t) {
      const double start = static_cast<double>(t) * 10.0;
      for (std::uint64_t key = 1; key <= 100; ++key) {
        pipeline.add(key, 100.0 + rng.uniform(-5, 5), start + 1.0);
      }
      if (t == 6) {
        pipeline.add(991, 60000.0, start + 2.0);
        pipeline.add(992, 60000.0, start + 2.0);
      }
    }
    pipeline.flush();
  };
  ChangeDetectionPipeline p_current(current), p_smoothed(smoothed);
  feed(p_current);
  feed(p_smoothed);
  const auto alarms_at = [](const ChangeDetectionPipeline& p, std::size_t t) {
    return p.reports()[t].alarms.size();
  };
  EXPECT_EQ(alarms_at(p_current, 6), 0u);   // self-masked
  EXPECT_GE(alarms_at(p_smoothed, 6), 2u);  // history-anchored: both flagged
}

TEST(Pipeline, BaselineAlphaValidated) {
  auto config = base_config();
  config.baseline_alpha = 0.0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.baseline_alpha = 1.5;
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

TEST(Pipeline, RejectsNonFiniteUpdates) {
  ChangeDetectionPipeline pipeline(base_config());
  EXPECT_THROW(pipeline.add(1, std::nan(""), 0.0), std::invalid_argument);
  EXPECT_THROW(pipeline.add(1, std::numeric_limits<double>::infinity(), 0.0),
               std::invalid_argument);
  EXPECT_NO_THROW(pipeline.add(1, -5.0, 0.0));  // negative is fine (turnstile)
}

TEST(Pipeline, HysteresisSuppressesOneShotSpikes) {
  auto config = base_config();
  config.min_consecutive = 2;
  ChangeDetectionPipeline pipeline(config);
  // Key 999 spikes once (its decaying EWMA tail then falls below the
  // threshold set by 888's larger concurrent change); key 888 spikes in two
  // consecutive intervals.
  scd::common::Rng rng(9);
  for (std::size_t t = 0; t < 10; ++t) {
    const double start = static_cast<double>(t) * 10.0;
    for (std::uint64_t key = 1; key <= 50; ++key) {
      pipeline.add(key, 100.0 + rng.uniform(-5, 5), start + 1.0);
    }
    if (t == 5) pipeline.add(999, 1500.0, start + 2.0);
    if (t == 6 || t == 7) pipeline.add(888, 5000.0, start + 2.0);
  }
  pipeline.flush();
  bool saw_999 = false, saw_888 = false;
  std::size_t interval_888 = 0;
  for (const auto& report : pipeline.reports()) {
    for (const auto& alarm : report.alarms) {
      if (alarm.key == 999) saw_999 = true;
      if (alarm.key == 888) {
        saw_888 = true;
        interval_888 = report.index;
      }
    }
  }
  EXPECT_FALSE(saw_999);  // single-interval spike suppressed
  EXPECT_TRUE(saw_888);   // two consecutive trips reported
  EXPECT_EQ(interval_888, 7u);
}

TEST(Pipeline, HysteresisValidation) {
  auto config = base_config();
  config.min_consecutive = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

TEST(Pipeline, StatsTrackLifetimeCounters) {
  auto config = base_config();
  config.refit_every = 4;
  config.refit_window = 4;
  ChangeDetectionPipeline pipeline(config);
  feed_stream(pipeline, 10, 999, 5000.0, 6, 6);
  const auto stats = pipeline.stats();
  EXPECT_EQ(stats.records, 10u * 50u + 1u);
  EXPECT_EQ(stats.intervals_closed, 10u);
  EXPECT_GE(stats.alarms, 1u);
  EXPECT_GE(stats.refits, 1u);  // fired at intervals 4 and 8
  EXPECT_EQ(stats.sketch_bytes, config.h * config.k * sizeof(double));
}

TEST(Pipeline, StatsStartAtZero) {
  ChangeDetectionPipeline pipeline(base_config());
  const auto stats = pipeline.stats();
  EXPECT_EQ(stats.records, 0u);
  EXPECT_EQ(stats.intervals_closed, 0u);
  EXPECT_EQ(stats.alarms, 0u);
  EXPECT_EQ(stats.refits, 0u);
}

TEST(Pipeline, NextIntervalModeComposesWithTopNCriterion) {
  auto config = base_config();
  config.replay = KeyReplayMode::kNextInterval;
  config.criterion = DetectionCriterion::kTopN;
  config.max_alarms_per_interval = 2;
  ChangeDetectionPipeline pipeline(config);
  feed_stream(pipeline, 8, 999, 5000.0, 5, 7);
  bool saw_spike = false;
  for (const auto& report : pipeline.reports()) {
    if (report.detection_ran && report.keys_checked > 0) {
      EXPECT_LE(report.alarms.size(), 2u);
      EXPECT_GE(report.alarms.size(), 1u);  // top-N always reports
    }
    for (const auto& alarm : report.alarms) {
      if (alarm.key == 999) saw_spike = true;
    }
  }
  EXPECT_TRUE(saw_spike);
}

TEST(Pipeline, SmoothedBaselineComposesWithRandomizedIntervals) {
  auto config = base_config();
  config.baseline = ThresholdBaseline::kSmoothedF2;
  config.randomize_intervals = true;
  ChangeDetectionPipeline pipeline(config);
  scd::common::Rng rng(11);
  for (int s = 0; s < 200; ++s) {
    for (std::uint64_t key = 1; key <= 20; ++key) {
      pipeline.add(key, 50.0 + rng.uniform(-2, 2), static_cast<double>(s));
    }
  }
  pipeline.flush();
  EXPECT_GE(pipeline.reports().size(), 5u);  // runs without issue
}

TEST(Pipeline, ReportsCarryStageTimings) {
  ChangeDetectionPipeline pipeline(base_config());
  feed_stream(pipeline, 6);
  for (const auto& report : pipeline.reports()) {
    EXPECT_GT(report.timings.close_s, 0.0) << report.index;
    EXPECT_GE(report.timings.forecast_s, 0.0);
    EXPECT_LE(report.timings.forecast_s, report.timings.close_s);
    if (report.detection_ran) {
      EXPECT_GT(report.timings.estimate_f2_s, 0.0) << report.index;
      EXPECT_GT(report.timings.key_replay_s, 0.0) << report.index;
    } else {
      EXPECT_EQ(report.timings.key_replay_s, 0.0) << report.index;
    }
  }
}

TEST(Pipeline, StatsCarryStageBudget) {
  ChangeDetectionPipeline pipeline(base_config());
  feed_stream(pipeline, 6);
  const auto stats = pipeline.stats();
  EXPECT_GT(stats.close_seconds, 0.0);
  EXPECT_GT(stats.forecast_seconds, 0.0);
  EXPECT_GT(stats.estimate_f2_seconds, 0.0);
  EXPECT_GT(stats.key_replay_seconds, 0.0);
  EXPECT_DOUBLE_EQ(stats.refit_seconds, 0.0);  // no re-fitting configured
  // One add() in 64 is stopwatch-timed; 301 records => at least 4 samples.
  EXPECT_GE(stats.update_samples, 4u);
  EXPECT_LE(stats.update_samples, stats.records);
  EXPECT_GT(stats.update_seconds, 0.0);
  // Detection ran on every post-warm-up interval over 50 keys each.
  EXPECT_EQ(stats.keys_replayed, 5u * 50u);
}

TEST(Pipeline, MetricsDisabledSkipsTimingButKeepsCounters) {
  auto config = base_config();
  config.metrics = false;
  ChangeDetectionPipeline pipeline(config);
  feed_stream(pipeline, 4);
  const auto stats = pipeline.stats();
  EXPECT_EQ(stats.records, 4u * 50u);
  EXPECT_EQ(stats.intervals_closed, 4u);
  EXPECT_EQ(stats.update_samples, 0u);  // sampling is metrics-gated
  EXPECT_DOUBLE_EQ(stats.update_seconds, 0.0);
  EXPECT_GT(stats.close_seconds, 0.0);  // per-pipeline budget always on
}

TEST(Pipeline, StatsCountHysteresisSuppressions) {
  auto config = base_config();
  config.min_consecutive = 2;
  ChangeDetectionPipeline pipeline(config);
  // One-shot spike: flagged once, then suppressed by hysteresis.
  feed_stream(pipeline, 10, 999, 5000.0, 6, 6);
  EXPECT_GE(pipeline.stats().hysteresis_suppressed, 1u);
}

TEST(Pipeline, IntervalsClosedMatchesReportsAfterFlush) {
  // The flush() invariant: one report per closed interval, in both replay
  // modes and with a trailing double flush.
  for (const KeyReplayMode mode :
       {KeyReplayMode::kCurrentInterval, KeyReplayMode::kNextInterval}) {
    auto config = base_config();
    config.replay = mode;
    ChangeDetectionPipeline pipeline(config);
    feed_stream(pipeline, 7);
    EXPECT_EQ(pipeline.stats().intervals_closed, pipeline.reports().size());
    pipeline.flush();
    EXPECT_EQ(pipeline.stats().intervals_closed, pipeline.reports().size());
  }
}

TEST(Pipeline, RefitTimeIsAccounted) {
  auto config = base_config();
  config.refit_every = 4;
  config.refit_window = 8;
  ChangeDetectionPipeline pipeline(config);
  feed_stream(pipeline, 10);
  const auto stats = pipeline.stats();
  ASSERT_GE(stats.refits, 1u);
  EXPECT_GT(stats.refit_seconds, 0.0);
}

TEST(Pipeline, MoveSemantics) {
  ChangeDetectionPipeline a(base_config());
  a.add(1, 1.0, 0.0);
  ChangeDetectionPipeline b = std::move(a);
  b.add(1, 2.0, 1.0);
  b.flush();
  EXPECT_EQ(b.reports().size(), 1u);
}

}  // namespace
}  // namespace scd::core
