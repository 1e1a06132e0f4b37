// The checkpoint subsystem's central promise, exercised as a property:
//
//   For every checkpoint cadence k and every crash point, killing the run
//   and restoring from the newest checkpoint yields an alarm/report stream
//   bit-identical to the uninterrupted run from the restore point onward.
//
// Verified for the serial pipeline and the W=4 sharded front-end, over a
// deterministic synthetic stream with spikes (so real alarms, thresholds
// and forecast state are part of the comparison, not just counters), and
// for snapshots moved between the serial and the sharded pipelines. The
// whole suite is rerun with SCD_SIMD=scalar by the ctest harness, so both
// dispatch decisions must reproduce their own runs exactly.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <iterator>
#include <map>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include <unistd.h>

#include "checkpoint/checkpoint.h"
#include "common/random.h"
#include "core/pipeline.h"
#include "ingest/parallel_pipeline.h"

namespace scd::checkpoint {
namespace {

struct Item {
  std::uint64_t key;
  double update;
  double time_s;
};

/// 12 intervals of 10 s, 60 keys with per-key deterministic noise, spikes
/// on keys 7 and 21 in intervals 5 and 9.
std::vector<Item> make_stream() {
  std::vector<Item> items;
  common::Rng rng(0xfeedface);
  for (int interval = 0; interval < 12; ++interval) {
    const double base = interval * 10.0;
    for (int rep = 0; rep < 3; ++rep) {
      for (std::uint64_t key = 0; key < 60; ++key) {
        items.push_back({key, 200.0 + rng.uniform(-50.0, 50.0),
                         base + 1.0 + rep * 3.0});
      }
    }
    if (interval == 5) items.push_back({7, 90000.0, base + 8.0});
    if (interval == 9) items.push_back({21, 90000.0, base + 8.5});
  }
  return items;
}

core::PipelineConfig property_config() {
  core::PipelineConfig config;
  config.interval_s = 10.0;
  config.h = 4;
  config.k = 256;
  config.seed = 0x5eed;
  config.threshold = 0.2;
  config.model.kind = forecast::ModelKind::kEwma;
  config.model.alpha = 0.6;
  config.metrics = false;
  return config;
}

/// A scratch directory owned by this process. ctest runs each case on its
/// own and again inside the scalar-dispatch leg, possibly at the same time,
/// so a name shared between processes would let one delete the other's
/// checkpoints mid-run.
std::filesystem::path fresh_dir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) /
      (name + "_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  return dir;
}

void expect_reports_bit_identical(
    const std::vector<core::IntervalReport>& resumed,
    const std::vector<core::IntervalReport>& reference,
    const std::string& label) {
  ASSERT_FALSE(resumed.empty()) << label;
  for (const core::IntervalReport& report : resumed) {
    ASSERT_LT(report.index, reference.size()) << label;
    const core::IntervalReport& expected = reference[report.index];
    SCOPED_TRACE(label + " interval " + std::to_string(report.index));
    ASSERT_EQ(report.index, expected.index);
    EXPECT_EQ(report.start_s, expected.start_s);
    EXPECT_EQ(report.end_s, expected.end_s);
    EXPECT_EQ(report.records, expected.records);
    EXPECT_EQ(report.detection_ran, expected.detection_ran);
    EXPECT_EQ(report.keys_checked, expected.keys_checked);
    // Bit-identical, not approximately equal: the doubles must match.
    EXPECT_EQ(report.estimated_error_f2, expected.estimated_error_f2);
    EXPECT_EQ(report.alarm_threshold, expected.alarm_threshold);
    ASSERT_EQ(report.alarms.size(), expected.alarms.size());
    for (std::size_t i = 0; i < report.alarms.size(); ++i) {
      EXPECT_EQ(report.alarms[i].key, expected.alarms[i].key);
      EXPECT_EQ(report.alarms[i].error, expected.alarms[i].error);
      EXPECT_EQ(report.alarms[i].threshold_abs,
                expected.alarms[i].threshold_abs);
    }
  }
}

/// The reference stream has spikes; make sure the property is not vacuous.
void expect_some_alarms(const std::vector<core::IntervalReport>& reports) {
  std::size_t alarms = 0;
  for (const auto& r : reports) alarms += r.alarms.size();
  ASSERT_GT(alarms, 0u) << "stream produced no alarms; property is vacuous";
}

TEST(CheckpointProperty, SerialKillRestoreBitIdentical) {
  const std::vector<Item> stream = make_stream();
  const core::PipelineConfig config = property_config();

  core::ChangeDetectionPipeline reference(config);
  for (const Item& item : stream) {
    reference.add(item.key, item.update, item.time_s);
  }
  reference.flush();
  expect_some_alarms(reference.reports());

  for (const std::size_t every : {1u, 2u, 3u}) {
    for (const double crash_s : {34.0, 67.0, 95.0, 118.0}) {
      const auto dir =
          fresh_dir("prop_serial_" + std::to_string(every) + "_" +
                    std::to_string(static_cast<int>(crash_s)));
      {
        core::ChangeDetectionPipeline pipeline(config);
        CheckpointWriterOptions options;
        options.directory = dir;
        options.every = every;
        options.metrics = false;
        CheckpointWriter writer(options, config);
        writer.attach(pipeline);
        for (const Item& item : stream) {
          if (item.time_s >= crash_s) break;
          pipeline.add(item.key, item.update, item.time_s);
        }
        // Killed here: no flush, no final checkpoint.
      }
      ASSERT_FALSE(list_checkpoints(dir).empty());

      core::ChangeDetectionPipeline resumed(config);
      const RecoverResult result = recover(dir, resumed);
      ASSERT_TRUE(result.restored);
      const double resume_s = resumed.position().next_interval_start_s;
      for (const Item& item : stream) {
        if (item.time_s < resume_s) continue;
        resumed.add(item.key, item.update, item.time_s);
      }
      resumed.flush();
      expect_reports_bit_identical(
          resumed.reports(), reference.reports(),
          "serial every=" + std::to_string(every) +
              " crash=" + std::to_string(crash_s));
    }
  }
}

TEST(CheckpointProperty, ShardedKillRestoreBitIdentical) {
  const std::vector<Item> stream = make_stream();
  const core::PipelineConfig config = property_config();
  ingest::ParallelConfig parallel;
  parallel.workers = 4;
  parallel.batch_size = 64;

  // Reference: an uninterrupted run of the SAME front-end. Sharded merges
  // sum shard-partial registers, so sharded-vs-serial holds to a few ULP
  // (see tests/ingest/parallel_pipeline_test.cpp), while sharded runs with
  // the same worker count are bit-exact among themselves — and that is the
  // bar a restore must clear.
  ingest::ParallelPipeline reference(config, parallel);
  for (const Item& item : stream) {
    reference.add(item.key, item.update, item.time_s);
  }
  reference.flush();
  expect_some_alarms(reference.reports());

  for (const std::size_t every : {1u, 2u}) {
    for (const double crash_s : {47.0, 98.0}) {
      const auto dir =
          fresh_dir("prop_shard_" + std::to_string(every) + "_" +
                    std::to_string(static_cast<int>(crash_s)));
      {
        ingest::ParallelPipeline pipeline(config, parallel);
        CheckpointWriterOptions options;
        options.directory = dir;
        options.every = every;
        options.metrics = false;
        CheckpointWriter writer(options, config);
        writer.attach(pipeline);
        for (const Item& item : stream) {
          if (item.time_s >= crash_s) break;
          pipeline.add(item.key, item.update, item.time_s);
        }
        // Killed here (worker threads wound down by the destructor; the
        // un-checkpointed tail is lost, as after SIGKILL).
      }
      ASSERT_FALSE(list_checkpoints(dir).empty());

      ingest::ParallelPipeline resumed(config, parallel);
      const RecoverResult result = recover(dir, resumed);
      ASSERT_TRUE(result.restored);
      const double resume_s = resumed.position().next_interval_start_s;
      for (const Item& item : stream) {
        if (item.time_s < resume_s) continue;
        resumed.add(item.key, item.update, item.time_s);
      }
      resumed.flush();
      expect_reports_bit_identical(
          resumed.reports(), reference.reports(),
          "sharded every=" + std::to_string(every) +
              " crash=" + std::to_string(crash_s));
    }
  }
}

/// 14 intervals of 10 s over 40 keys, integer updates. After interval 0
/// every interval's first record lands 2.5 s past its start, so each close
/// is triggered by a record past the boundary and the high-water mark at
/// the close is not the interval's end. Every other interval takes two late
/// records, one behind the high-water mark and one before the interval's
/// start. Interval 8 is empty, so interval 9's first record closes two
/// intervals at once. Keys 5 and 17 spike in intervals 5 and 11.
std::vector<Item> make_late_stream() {
  std::vector<Item> items;
  for (int interval = 0; interval < 14; ++interval) {
    if (interval == 8) continue;
    const double base = interval * 10.0;
    const double first = interval == 0 ? 0.0 : base + 2.5;
    for (int rep = 0; rep < 3; ++rep) {
      for (std::uint64_t key = 0; key < 40; ++key) {
        const auto shift = static_cast<std::uint64_t>(interval + rep);
        const auto update = static_cast<double>(100 + (key * 7 + shift) % 13);
        items.push_back({key, update, first + rep * 2.5});
      }
      if (rep == 1 && interval % 2 == 1) {
        items.push_back({41, 50.0, base + 1.0});
        items.push_back({42, 60.0, base - 3.0});
      }
    }
    if (interval == 5) items.push_back({5, 40000.0, base + 9.0});
    if (interval == 11) items.push_back({17, 40000.0, base + 9.0});
  }
  return items;
}

/// A pipeline of either kind: 0 workers is the serial pipeline, more is the
/// sharded front end with that many workers.
class AnyPipeline {
 public:
  AnyPipeline(const core::PipelineConfig& config, std::size_t workers) {
    if (workers == 0) {
      pipeline_.emplace<core::ChangeDetectionPipeline>(config);
    } else {
      ingest::ParallelConfig parallel;
      parallel.workers = workers;
      parallel.batch_size = 16;
      pipeline_.emplace<ingest::ParallelPipeline>(config, parallel);
    }
  }

  template <typename F>
  decltype(auto) visit(F&& f) {
    return std::visit(std::forward<F>(f), pipeline_);
  }

 private:
  std::variant<std::monostate, core::ChangeDetectionPipeline,
               ingest::ParallelPipeline>
      pipeline_;
};

/// Runs a visitor on the live alternative; monostate is never live.
template <typename F>
decltype(auto) with(AnyPipeline& any, F&& f) {
  return any.visit([&](auto& p) -> decltype(auto) {
    if constexpr (std::is_same_v<std::decay_t<decltype(p)>, std::monostate>) {
      std::abort();
    } else {
      return f(p);
    }
  });
}

std::string side_name(std::size_t workers) {
  return workers == 0 ? "serial" : "W=" + std::to_string(workers);
}

void expect_same_position(const core::StreamPosition& got,
                          const core::StreamPosition& want) {
  EXPECT_EQ(got.started, want.started);
  EXPECT_EQ(got.interval_index, want.interval_index);
  EXPECT_EQ(got.next_interval_start_s, want.next_interval_start_s);
  EXPECT_EQ(got.high_water_s, want.high_water_s);
}

TEST(CheckpointProperty, SnapshotsMoveBetweenSerialAndShardedPipelines) {
  // Both pipelines save the serial engine's stream, so a snapshot taken by
  // either restores into either at any worker count: serial->serial,
  // serial->sharded, sharded->serial and sharded->sharded. The feed has
  // late records and closes triggered past the boundary, so the late
  // count and the high-water mark must both travel in the snapshot.
  const std::vector<Item> stream = make_late_stream();
  const std::size_t sides[] = {0, 1, 2, 4};
  const std::size_t snapshot_at[] = {3, 8, 11};  // 8: mid double close
  struct Leg {
    const char* name;
    core::RecoveryMode recovery;
    core::KeyReplayMode replay;
  };
  const Leg legs[] = {
      {"replay-current", core::RecoveryMode::kReplay,
       core::KeyReplayMode::kCurrentInterval},
      {"replay-next", core::RecoveryMode::kReplay,
       core::KeyReplayMode::kNextInterval},
      {"invertible", core::RecoveryMode::kInvertible,
       core::KeyReplayMode::kCurrentInterval},
  };
  std::size_t continued = 0;
  for (const Leg& leg : legs) {
    SCOPED_TRACE(leg.name);
    core::PipelineConfig config = property_config();
    config.recovery = leg.recovery;
    config.replay = leg.replay;
    const bool invertible = leg.recovery == core::RecoveryMode::kInvertible;

    // The uninterrupted serial run, and where it stood at each snapshot
    // close: the index of the record that triggered it (the resumed feed
    // starts there), the position and the late count.
    struct Cut {
      std::size_t next_item = 0;
      core::StreamPosition position;
      std::uint64_t out_of_order = 0;
    };
    std::map<std::size_t, Cut> cuts;
    core::ChangeDetectionPipeline reference(config);
    std::size_t item_index = 0;
    reference.set_interval_close_callback([&](std::size_t closed) {
      cuts[closed] = {item_index, reference.position(),
                      reference.stats().out_of_order_records};
    });
    for (; item_index < stream.size(); ++item_index) {
      const Item& item = stream[item_index];
      reference.add(item.key, item.update, item.time_s);
    }
    reference.flush();
    if (!invertible) expect_some_alarms(reference.reports());
    ASSERT_GT(reference.stats().out_of_order_records, 0u);
    ASSERT_EQ(cuts[8].next_item, cuts[9].next_item);  // the double close

    for (const std::size_t source : sides) {
      std::map<std::size_t, std::vector<std::uint8_t>> snapshots;
      {
        AnyPipeline writer(config, source);
        with(writer, [&](auto& p) {
          p.set_interval_close_callback([&](std::size_t closed) {
            for (const std::size_t at : snapshot_at) {
              if (closed == at) snapshots[at] = p.save_state();
            }
          });
          for (const Item& item : stream) {
            p.add(item.key, item.update, item.time_s);
          }
          p.flush();
        });
      }
      ASSERT_EQ(snapshots.size(), std::size(snapshot_at));
      for (const auto& [at, snapshot] : snapshots) {
        const Cut& cut = cuts.at(at);
        for (const std::size_t target : sides) {
          SCOPED_TRACE(side_name(source) + " -> " + side_name(target) +
                       " at close " + std::to_string(at));
          AnyPipeline resumed(config, target);
          with(resumed, [&](auto& p) {
            p.restore_state(snapshot);
            expect_same_position(p.position(), cut.position);
            EXPECT_EQ(p.stats().out_of_order_records, cut.out_of_order);
            if (invertible) {
              // Votes depend on the shard layout; the stream must still be
              // accepted and re-save byte for byte.
              EXPECT_EQ(p.save_state(), snapshot);
              return;
            }
            for (std::size_t i = cut.next_item; i < stream.size(); ++i) {
              p.add(stream[i].key, stream[i].update, stream[i].time_s);
            }
            p.flush();
            expect_reports_bit_identical(p.reports(), reference.reports(),
                                         "continued");
            EXPECT_EQ(p.stats().out_of_order_records,
                      reference.stats().out_of_order_records);
            EXPECT_EQ(p.stats().records, reference.stats().records);
            expect_same_position(p.position(), reference.position());
            ++continued;
          });
        }
      }
    }
  }
  EXPECT_EQ(continued, 2u * 4u * 3u * 4u);
}

/// 32 intervals of 10 s over 48 noisy keys, with three keys ramping up for
/// (doubling) for five intervals each, so the same key trips in consecutive intervals and
/// the hysteresis streaks are live at every snapshot point.
std::vector<Item> make_ramp_stream() {
  std::vector<Item> items;
  common::Rng rng(0xca11ab1e);
  for (int interval = 0; interval < 32; ++interval) {
    const double base = interval * 10.0;
    for (int rep = 0; rep < 2; ++rep) {
      for (std::uint64_t key = 1; key <= 48; ++key) {
        items.push_back({key, 200.0 + rng.uniform(-40.0, 40.0),
                         base + 1.0 + rep * 4.0});
      }
    }
    for (const auto& [key, from] : {std::pair<std::uint64_t, int>{7, 6},
                                    {21, 14},
                                    {33, 23}}) {
      if (interval >= from && interval < from + 5) {
        items.push_back(
            {key, 4000.0 * static_cast<double>(1 << (interval - from)),
             base + 8.0});
      }
    }
  }
  return items;
}

/// A valid configuration of each of the seven model kinds.
std::vector<forecast::ModelConfig> every_model_kind() {
  std::vector<forecast::ModelConfig> models(7);
  models[0].kind = forecast::ModelKind::kMovingAverage;
  models[0].window = 3;
  models[1].kind = forecast::ModelKind::kSShapedMA;
  models[1].window = 4;
  models[2].kind = forecast::ModelKind::kEwma;
  models[2].alpha = 0.6;
  models[3].kind = forecast::ModelKind::kHoltWinters;
  models[3].alpha = 0.5;
  models[3].beta = 0.3;
  models[4].kind = forecast::ModelKind::kArima0;
  models[4].arima = {1, 0, 1, {0.5, 0.0}, {0.3, 0.0}};
  models[5].kind = forecast::ModelKind::kArima1;
  models[5].arima = {1, 1, 1, {0.4, 0.0}, {0.2, 0.0}};
  models[6].kind = forecast::ModelKind::kSeasonalHoltWinters;
  models[6].alpha = 0.5;
  models[6].beta = 0.2;
  models[6].gamma = 0.3;
  models[6].period = 4;
  for (const forecast::ModelConfig& m : models) EXPECT_TRUE(m.valid());
  return models;
}

TEST(CheckpointProperty, EveryModelKindAndKnobRoundTripsBitIdentical) {
  // Every model kind's state, a refit history and a refit-changed model
  // config, and the hysteresis streak block, under each recovery path:
  // snapshots at intervals 9, 17 and 26 restore into pipelines that
  // re-save the snapshot byte for byte and continue bit-identically.
  const std::vector<Item> stream = make_ramp_stream();
  struct Path {
    const char* name;
    core::RecoveryMode recovery;
    core::KeyReplayMode replay;
  };
  const Path paths[] = {
      {"replay-current", core::RecoveryMode::kReplay,
       core::KeyReplayMode::kCurrentInterval},
      {"replay-next", core::RecoveryMode::kReplay,
       core::KeyReplayMode::kNextInterval},
      {"invertible", core::RecoveryMode::kInvertible,
       core::KeyReplayMode::kCurrentInterval},
  };
  std::size_t round_trips = 0;
  std::size_t alarms = 0;
  std::size_t refit_changed_model = 0;
  std::size_t suppressed_streaks = 0;
  for (const forecast::ModelConfig& model : every_model_kind()) {
    for (const std::size_t refit_every : {0u, 5u}) {
      for (const std::size_t min_consecutive : {1u, 2u}) {
        for (const Path& path : paths) {
          core::PipelineConfig config = property_config();
          config.h = 3;
          config.k = 64;
          config.model = model;
          config.refit_every = refit_every;
          config.refit_window = 8;
          config.min_consecutive = min_consecutive;
          config.recovery = path.recovery;
          config.replay = path.replay;
          const std::string label =
              model.to_string() + " refit_every=" +
              std::to_string(refit_every) +
              " min_consecutive=" + std::to_string(min_consecutive) + " " +
              path.name;
          SCOPED_TRACE(label);

          core::ChangeDetectionPipeline reference(config);
          std::vector<std::vector<std::uint8_t>> snapshots;
          reference.set_interval_close_callback(
              [&reference, &snapshots](std::size_t closed) {
                if (closed == 9 || closed == 17 || closed == 26) {
                  snapshots.push_back(reference.save_state());
                }
              });
          for (const Item& item : stream) {
            reference.add(item.key, item.update, item.time_s);
          }
          reference.flush();
          ASSERT_EQ(snapshots.size(), 3u);
          for (const core::IntervalReport& r : reference.reports()) {
            alarms += r.alarms.size();
          }
          if (!(reference.active_model().to_string() == model.to_string())) {
            ++refit_changed_model;
          }
          suppressed_streaks += reference.stats().hysteresis_suppressed;

          for (const std::vector<std::uint8_t>& snapshot : snapshots) {
            core::ChangeDetectionPipeline resumed(config);
            resumed.restore_state(snapshot);
            ASSERT_EQ(resumed.save_state(), snapshot);
            const double resume_s = resumed.position().next_interval_start_s;
            for (const Item& item : stream) {
              if (item.time_s >= resume_s) {
                resumed.add(item.key, item.update, item.time_s);
              }
            }
            resumed.flush();
            expect_reports_bit_identical(resumed.reports(),
                                         reference.reports(), label);
            EXPECT_EQ(resumed.active_model().to_string(),
                      reference.active_model().to_string());
            ++round_trips;
          }
        }
      }
    }
  }
  EXPECT_EQ(round_trips, 252u);
  // The grid is not vacuous: the ramps raised alarms, refits moved some
  // model's parameters, and hysteresis held some alarms back.
  EXPECT_GT(alarms, 0u);
  EXPECT_GT(refit_changed_model, 0u);
  EXPECT_GT(suppressed_streaks, 0u);
}

/// Checkpoint-every-k writes exactly floor(intervals / k) files (retention
/// aside), i.e. cadence is honored.
TEST(CheckpointProperty, CadenceWritesExpectedCheckpoints) {
  const std::vector<Item> stream = make_stream();
  const core::PipelineConfig config = property_config();
  for (const std::size_t every : {1u, 3u, 5u}) {
    const auto dir = fresh_dir("prop_cadence_" + std::to_string(every));
    std::size_t closes = 0;
    core::ChangeDetectionPipeline pipeline(config);
    CheckpointWriterOptions options;
    options.directory = dir;
    options.every = every;
    options.keep = 1000;  // retention off for this count
    options.metrics = false;
    CheckpointWriter writer(options, config);
    writer.attach(pipeline);
    pipeline.set_report_callback(
        [&closes](const core::IntervalReport&) { ++closes; });
    for (const Item& item : stream) {
      pipeline.add(item.key, item.update, item.time_s);
    }
    pipeline.flush();
    EXPECT_EQ(list_checkpoints(dir).size(), closes / every)
        << "every=" << every;
  }
}

}  // namespace
}  // namespace scd::checkpoint
