// RecoveryMode: sketch-only changed-key recovery through the full
// ChangeDetectionPipeline (docs/KEY_RECOVERY.md) — validation of the mode
// combinations, replay-equivalence of the invertible engine's alarms and
// error F2, the vanished-key guarantee, the no-replay-pass guarantee,
// checkpoint round-trips of the vote state, and the config-fingerprint
// binding.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "common/random.h"
#include "core/pipeline.h"
#include "sketch/serialize.h"
#include "traffic/key_extract.h"

namespace scd::core {
namespace {

PipelineConfig recovery_config(RecoveryMode mode) {
  PipelineConfig config;
  config.interval_s = 10.0;
  config.h = 5;
  config.k = 4096;
  config.model.kind = forecast::ModelKind::kEwma;
  config.model.alpha = 0.5;
  config.threshold = 0.2;
  config.recovery = mode;
  return config;
}

/// Steady background plus a large spike in given intervals (mirrors
/// pipeline_test.cpp's feed_stream, with a spike big enough that every
/// recovery mode must find it).
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

TEST(RecoveryConfig, RejectsNextIntervalReplay) {
  auto c = recovery_config(RecoveryMode::kInvertible);
  c.replay = KeyReplayMode::kNextInterval;
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(RecoveryConfig, RejectsKeySampling) {
  auto c = recovery_config(RecoveryMode::kInvertible);
  c.key_sample_rate = 0.5;
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(RecoveryConfig, InvertibleAccepts64BitKeys) {
  // The invertible family covers 64-bit keys via the Carter-Wegman sketch.
  auto c = recovery_config(RecoveryMode::kInvertible);
  c.key_kind = traffic::KeyKind::kSrcDstPair;
  EXPECT_NO_THROW(c.validate());
}

TEST(RecoveryConfig, RejectsUnknownMode) {
  auto c = recovery_config(RecoveryMode::kReplay);
  c.recovery = static_cast<RecoveryMode>(1);
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(RecoveryConfig, FingerprintDistinguishesModes) {
  const auto replay = recovery_config(RecoveryMode::kReplay);
  const auto invertible = recovery_config(RecoveryMode::kInvertible);
  EXPECT_NE(config_fingerprint(replay), config_fingerprint(invertible));
}

TEST(RecoveryPipeline, InvertibleDetectsInjectedSpike) {
  ChangeDetectionPipeline pipeline(recovery_config(RecoveryMode::kInvertible));
  feed_stream(pipeline, 10, 999, 20000.0, 6, 6);
  bool found = false;
  for (const auto& report : pipeline.reports()) {
    for (const auto& alarm : report.alarms) {
      if (alarm.key == 999) found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(RecoveryPipeline, InvertibleMatchesReplayAlarms) {
  // Same stream, same sketch shape/seed: the invertible engine forecasts
  // the same k-ary counters as the replay engine, so both must flag the
  // same spike keys. The spike rides on background key 25 so
  // current-interval replay can also see the post-spike drop alarms. A key
  // absent from the interval is invisible to replay, while sketch recovery
  // sees it in its first absent interval only (through the previous
  // interval's votes); keeping the spike key in every interval makes the
  // two modes' alarm sets comparable.
  ChangeDetectionPipeline replay(recovery_config(RecoveryMode::kReplay));
  ChangeDetectionPipeline invertible(
      recovery_config(RecoveryMode::kInvertible));
  feed_stream(replay, 12, 25, 30000.0, 5, 7);
  feed_stream(invertible, 12, 25, 30000.0, 5, 7);
  ASSERT_EQ(replay.reports().size(), invertible.reports().size());
  for (std::size_t t = 0; t < replay.reports().size(); ++t) {
    std::vector<std::uint64_t> a, b;
    for (const auto& alarm : replay.reports()[t].alarms) a.push_back(alarm.key);
    for (const auto& alarm : invertible.reports()[t].alarms) {
      b.push_back(alarm.key);
    }
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b) << "interval " << t;
  }
}

TEST(RecoveryPipeline, VanishedKeyIsAlarmedOnceThroughPreviousVotes) {
  // Key 999 is heavy in intervals 4..7 and absent from interval 8 on. Its
  // negative error clears T_A in every remaining interval, but candidates
  // come only from the current and the previous interval's observed votes:
  // the key is alarmed in interval 8 (interval 7's votes name it) and never
  // after.
  ChangeDetectionPipeline pipeline(recovery_config(RecoveryMode::kInvertible));
  feed_stream(pipeline, 14, 999, 20000.0, 4, 7);
  std::vector<std::size_t> alarmed;
  for (const auto& report : pipeline.reports()) {
    for (const auto& alarm : report.alarms) {
      if (alarm.key == 999) {
        alarmed.push_back(report.index);
        if (report.index == 8) {
          EXPECT_LT(alarm.error, 0.0);
        }
      }
    }
  }
  EXPECT_EQ(alarmed, (std::vector<std::size_t>{4, 5, 6, 7, 8}));
}

TEST(RecoveryPipeline, ErrorF2IsBitEqualAcrossRecoveryModes) {
  // Detection reads only S_e's counters, and those must not depend on the
  // recovery mode: ESTIMATEF2(S_e) agrees to the bit in every interval.
  ChangeDetectionPipeline replay(recovery_config(RecoveryMode::kReplay));
  ChangeDetectionPipeline invertible(
      recovery_config(RecoveryMode::kInvertible));
  feed_stream(replay, 14, 999, 20000.0, 4, 7);
  feed_stream(invertible, 14, 999, 20000.0, 4, 7);
  ASSERT_EQ(replay.reports().size(), 14u);
  ASSERT_EQ(invertible.reports().size(), 14u);
  for (std::size_t t = 0; t < 14; ++t) {
    const IntervalReport& a = replay.reports()[t];
    const IntervalReport& b = invertible.reports()[t];
    EXPECT_EQ(a.detection_ran, b.detection_ran) << "interval " << t;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.estimated_error_f2),
              std::bit_cast<std::uint64_t>(b.estimated_error_f2))
        << "interval " << t;
  }
}

TEST(RecoveryPipeline, InvertibleNeverReplays) {
  ChangeDetectionPipeline pipeline(recovery_config(RecoveryMode::kInvertible));
  feed_stream(pipeline, 10, 999, 20000.0, 6, 6);
  const PipelineStats stats = pipeline.stats();
  EXPECT_EQ(stats.keys_replayed, 0u);  // single pass — no replay ever
  EXPECT_GT(stats.recovery_candidates, 0u);
  EXPECT_GT(stats.keys_recovered, 0u);
}

TEST(RecoveryPipeline, ReplayModeKeepsRecoveryCountersZero) {
  ChangeDetectionPipeline pipeline(recovery_config(RecoveryMode::kReplay));
  feed_stream(pipeline, 10, 999, 20000.0, 6, 6);
  const PipelineStats stats = pipeline.stats();
  EXPECT_GT(stats.keys_replayed, 0u);
  EXPECT_EQ(stats.recovery_candidates, 0u);
  EXPECT_EQ(stats.keys_recovered, 0u);
}

TEST(RecoveryPipeline, TopNCriterionRecoversNKeys) {
  auto config = recovery_config(RecoveryMode::kInvertible);
  config.criterion = DetectionCriterion::kTopN;
  config.max_alarms_per_interval = 3;
  ChangeDetectionPipeline pipeline(config);
  feed_stream(pipeline, 10, 999, 20000.0, 6, 6);
  for (const auto& report : pipeline.reports()) {
    if (!report.detection_ran) continue;
    EXPECT_LE(report.alarms.size(), 3u);
  }
}

TEST(RecoveryPipeline, CheckpointRoundTripPreservesVoteState) {
  // Save mid-stream, restore into a fresh pipeline, continue both with the
  // same records: reports (and recovered alarm keys) must match exactly.
  auto config = recovery_config(RecoveryMode::kInvertible);
  ChangeDetectionPipeline a(config);
  // Snapshot at the close of interval 6 (save_state is boundary-only).
  std::vector<std::uint8_t> snapshot;
  a.set_interval_close_callback([&a, &snapshot](std::size_t intervals) {
    if (intervals == 6) snapshot = a.save_state();
  });
  scd::common::Rng rng(2);
  for (std::size_t t = 0; t < 6; ++t) {
    const double start = static_cast<double>(t) * 10.0;
    for (std::uint64_t key = 1; key <= 50; ++key) {
      a.add(key, 100.0 + rng.uniform(-5, 5), start + 1.0);
    }
  }
  // Continue a through intervals 6..11 (the first t=6 record closes
  // interval 6 and captures the snapshot first), then replay the identical
  // tail into a restored pipeline.
  struct Add {
    std::uint64_t key;
    double value;
    double time_s;
  };
  std::vector<Add> tail;
  for (std::size_t t = 6; t < 12; ++t) {
    const double start = static_cast<double>(t) * 10.0;
    for (std::uint64_t key = 1; key <= 50; ++key) {
      tail.push_back({key, 100.0 + rng.uniform(-5, 5), start + 1.0});
    }
    if (t == 8) tail.push_back({4242, 25000.0, start + 2.0});
  }
  for (const Add& r : tail) a.add(r.key, r.value, r.time_s);
  a.flush();
  ASSERT_FALSE(snapshot.empty());
  ChangeDetectionPipeline b(config);
  b.restore_state(snapshot);
  for (const Add& r : tail) b.add(r.key, r.value, r.time_s);
  b.flush();
  // The restored pipeline discards pre-snapshot reports, so b's reports
  // cover intervals 6..11 only; they must reproduce a's bit-identically.
  const auto& ra = a.reports();
  const auto& rb = b.reports();
  ASSERT_EQ(ra.size(), 12u);
  ASSERT_EQ(rb.size(), 6u);
  bool saw_spike = false;
  for (std::size_t t = 6; t < ra.size(); ++t) {
    const auto& ta = ra[t];
    const auto& tb = rb[t - 6];
    EXPECT_EQ(ta.index, tb.index);
    ASSERT_EQ(ta.alarms.size(), tb.alarms.size()) << "interval " << t;
    for (std::size_t i = 0; i < ta.alarms.size(); ++i) {
      EXPECT_EQ(ta.alarms[i].key, tb.alarms[i].key);
      EXPECT_EQ(ta.alarms[i].error, tb.alarms[i].error);
      if (ta.alarms[i].key == 4242) saw_spike = true;
    }
    EXPECT_EQ(ta.estimated_error_f2, tb.estimated_error_f2);
  }
  EXPECT_TRUE(saw_spike);
  // The recovery counters survive the round trip.
  EXPECT_EQ(a.stats().keys_replayed, 0u);
  EXPECT_EQ(b.stats().keys_replayed, 0u);
}

TEST(RecoveryPipeline, RestoreAtSpikeCloseKeepsPreviousVotes) {
  // Snapshot at the close of interval 7, the last interval key 999 sends
  // in. Interval 8 finds the vanished key only through interval 7's votes,
  // so the restored pipeline must carry them to raise the same alarm.
  struct Add {
    std::uint64_t key;
    double value;
    double time_s;
  };
  std::vector<Add> stream;
  scd::common::Rng rng(3);
  for (std::size_t t = 0; t < 12; ++t) {
    const double start = static_cast<double>(t) * 10.0;
    for (std::uint64_t key = 1; key <= 50; ++key) {
      stream.push_back({key, 100.0 + rng.uniform(-5, 5), start + 1.0});
    }
    if (t >= 4 && t <= 7) stream.push_back({999, 20000.0, start + 2.0});
  }
  const auto config = recovery_config(RecoveryMode::kInvertible);
  ChangeDetectionPipeline a(config);
  std::vector<std::uint8_t> snapshot;
  a.set_interval_close_callback([&a, &snapshot](std::size_t intervals) {
    if (intervals == 8) snapshot = a.save_state();
  });
  for (const Add& r : stream) a.add(r.key, r.value, r.time_s);
  a.flush();
  ASSERT_FALSE(snapshot.empty());

  ChangeDetectionPipeline b(config);
  b.restore_state(snapshot);
  const double resume_s = b.position().next_interval_start_s;
  for (const Add& r : stream) {
    if (r.time_s >= resume_s) b.add(r.key, r.value, r.time_s);
  }
  b.flush();
  ASSERT_EQ(a.reports().size(), 12u);
  ASSERT_EQ(b.reports().size(), 4u);
  const IntervalReport& ta = a.reports()[8];
  const IntervalReport& tb = b.reports()[0];
  ASSERT_EQ(tb.index, 8u);
  ASSERT_EQ(ta.alarms.size(), 1u);
  EXPECT_EQ(ta.alarms[0].key, 999u);
  EXPECT_LT(ta.alarms[0].error, 0.0);
  ASSERT_EQ(tb.alarms.size(), 1u);
  EXPECT_EQ(tb.alarms[0].key, 999u);
  EXPECT_EQ(tb.alarms[0].error, ta.alarms[0].error);
  for (std::size_t t = 8; t < 12; ++t) {
    EXPECT_EQ(a.reports()[t].keys_checked, b.reports()[t - 8].keys_checked)
        << "interval " << t;
  }
}

TEST(RecoveryPipeline, RestoreRejectsV3InvertibleSnapshot) {
  // Engine-state v3 carried vote tables inside every signal; v4 keeps them
  // only for the previous interval. A stream stamped v3 is refused by its
  // version word before any field is read.
  ChangeDetectionPipeline a(recovery_config(RecoveryMode::kInvertible));
  feed_stream(a, 6, 999, 20000.0, 4, 4);
  std::vector<std::uint8_t> snapshot = a.save_state();
  ASSERT_GE(snapshot.size(), 8u);
  ASSERT_EQ(snapshot[0], 4u);
  snapshot[0] = 3;
  ChangeDetectionPipeline b(recovery_config(RecoveryMode::kInvertible));
  try {
    b.restore_state(snapshot);
    FAIL() << "a v3 snapshot was accepted";
  } catch (const sketch::SerializeError& e) {
    EXPECT_EQ(e.kind(), sketch::SerializeErrorKind::kBadVersion);
  }
}

TEST(RecoveryPipeline, RestoreRejectsCrossModeSnapshots) {
  // A snapshot carries the config fingerprint; feeding a replay-mode
  // snapshot to an invertible pipeline is a typed error, not a mis-parse.
  ChangeDetectionPipeline replay(recovery_config(RecoveryMode::kReplay));
  feed_stream(replay, 4);
  const auto snapshot = replay.save_state();
  ChangeDetectionPipeline invertible(
      recovery_config(RecoveryMode::kInvertible));
  EXPECT_ANY_THROW(invertible.restore_state(snapshot));
}

}  // namespace
}  // namespace scd::core
