// Stage-record agreement: each pipeline stage is timed once, and every view
// of that timing reads the same number. For close, forecast, ESTIMATEF2 and
// key replay, after flush():
//   * the PipelineStats total equals the sum of report.timings (exactly);
//   * the scd_pipeline_stage_seconds histogram's sum moved by that sum;
//   * each interval's forecast_step span lasts exactly that report's
//     forecast_s, to the nanosecond.
// Every run's report callback sleeps 2 ms: the consumer's time belongs to
// the consumer, so none of the views may charge it to interval_close.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "core/pipeline.h"
#include "ingest/parallel_pipeline.h"
#include "obs/metrics.h"
#include "obs/pipeline_metrics.h"
#include "obs/trace.h"

namespace scd {
namespace {

// gtest names each case after this struct's raw bytes; `name` comes last so
// the leading bytes are fixed fields, not a pointer that moves with every
// load of the test binary.
struct Case {
  core::RecoveryMode recovery;
  core::KeyReplayMode replay;
  std::size_t workers;  // 0 = serial ChangeDetectionPipeline
  const char* name;
};

core::PipelineConfig config_for(const Case& c) {
  core::PipelineConfig config;
  config.interval_s = 10.0;
  config.h = 5;
  config.k = 1024;
  config.model.kind = forecast::ModelKind::kEwma;
  config.model.alpha = 0.5;
  config.threshold = 0.2;
  config.recovery = c.recovery;
  config.replay = c.replay;
  config.metrics = true;
  return config;
}

/// Eight intervals of 60 keys with a surge on one key in intervals 4-5.
template <typename Pipeline>
void feed(Pipeline& pipeline) {
  common::Rng rng(3);
  for (int t = 0; t < 8; ++t) {
    const double start = 10.0 * t;
    for (std::uint64_t key = 1; key <= 60; ++key) {
      pipeline.add(key, 100.0 + rng.uniform(-5, 5), start + 1.0);
    }
    if (t == 4 || t == 5) pipeline.add(7, 40000.0, start + 2.0);
  }
  pipeline.flush();
}

struct Stage {
  const char* name;
  double core::StageTimings::*report;
  double core::PipelineStats::*total;
  obs::Histogram& (*histogram)(obs::PipelineInstruments&);
};

const Stage kStages[] = {
    {"interval_close", &core::StageTimings::close_s,
     &core::PipelineStats::close_seconds,
     [](obs::PipelineInstruments& m) -> obs::Histogram& {
       return m.stage_interval_close;
     }},
    {"forecast", &core::StageTimings::forecast_s,
     &core::PipelineStats::forecast_seconds,
     [](obs::PipelineInstruments& m) -> obs::Histogram& {
       return m.stage_forecast;
     }},
    {"estimate_f2", &core::StageTimings::estimate_f2_s,
     &core::PipelineStats::estimate_f2_seconds,
     [](obs::PipelineInstruments& m) -> obs::Histogram& {
       return m.stage_estimate_f2;
     }},
    {"key_replay", &core::StageTimings::key_replay_s,
     &core::PipelineStats::key_replay_seconds,
     [](obs::PipelineInstruments& m) -> obs::Histogram& {
       return m.stage_key_replay;
     }},
};

/// Turns global tracing on for one run and off again, however it ends.
class TracingOn {
 public:
  TracingOn() { obs::TraceController::global().set_enabled(true); }
  ~TracingOn() { obs::TraceController::global().set_enabled(false); }
  TracingOn(const TracingOn&) = delete;
  TracingOn& operator=(const TracingOn&) = delete;
};

class StageRecordAgreement : public ::testing::TestWithParam<Case> {};

TEST_P(StageRecordAgreement, EveryViewReadsTheSameTiming) {
  const Case& c = GetParam();
  obs::PipelineInstruments& instruments = obs::PipelineInstruments::global();
  std::vector<double> histogram_before;
  for (const Stage& stage : kStages) {
    histogram_before.push_back(stage.histogram(instruments).sum());
  }

  std::vector<core::IntervalReport> reports;
  core::PipelineStats stats;
  std::atomic<std::uint64_t> consumer_ns{0};
  const std::uint64_t t0 = obs::trace_now_ns();
  {
    const TracingOn tracing;
    const auto slow_consumer = [&consumer_ns](const core::IntervalReport&) {
      const std::uint64_t start = obs::trace_now_ns();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      consumer_ns += obs::trace_now_ns() - start;
    };
    if (c.workers == 0) {
      core::ChangeDetectionPipeline pipeline(config_for(c));
      pipeline.set_report_callback(slow_consumer);
      feed(pipeline);
      reports = pipeline.reports();
      stats = pipeline.stats();
    } else {
      ingest::ParallelConfig parallel;
      parallel.workers = c.workers;
      ingest::ParallelPipeline pipeline(config_for(c), parallel);
      pipeline.set_report_callback(slow_consumer);
      feed(pipeline);
      reports = pipeline.reports();
      stats = pipeline.stats();
    }
  }
  const double wall_s = static_cast<double>(obs::trace_now_ns() - t0) * 1e-9;
  ASSERT_EQ(reports.size(), 8u);
  ASSERT_EQ(stats.intervals_closed, 8u);
  EXPECT_GE(stats.alarms, 1u);

  for (std::size_t i = 0; i < std::size(kStages); ++i) {
    const Stage& stage = kStages[i];
    double sum = 0.0;
    for (const core::IntervalReport& r : reports) {
      sum += r.timings.*stage.report;
    }
    EXPECT_GT(sum, 0.0) << stage.name;
    EXPECT_EQ(stats.*stage.total, sum) << stage.name;
    const double moved =
        stage.histogram(instruments).sum() - histogram_before[i];
    EXPECT_NEAR(moved, sum, 1e-9) << stage.name;
  }
  // The closes and the consumer's callbacks are disjoint slices of the run;
  // a close that charged a callback to itself would count it twice.
  EXPECT_LE(stats.close_seconds +
                static_cast<double>(consumer_ns.load()) * 1e-9,
            wall_s);

  std::vector<obs::TraceEvent> spans;
  for (const obs::TraceEvent& e :
       obs::TraceController::global().snapshot().events) {
    if (e.start_ns >= t0 && std::string(e.name) == "forecast_step") {
      spans.push_back(e);
    }
  }
  std::sort(spans.begin(), spans.end(),
            [](const obs::TraceEvent& a, const obs::TraceEvent& b) {
              return a.start_ns < b.start_ns;
            });
  ASSERT_EQ(spans.size(), reports.size());
  for (std::size_t i = 0; i < reports.size(); ++i) {
    EXPECT_EQ(spans[i].dur_ns, static_cast<std::uint64_t>(std::llround(
                                   reports[i].timings.forecast_s * 1e9)))
        << "interval " << reports[i].index;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, StageRecordAgreement,
    ::testing::Values(
        Case{core::RecoveryMode::kReplay,
             core::KeyReplayMode::kCurrentInterval, 0, "serial_replay"},
        Case{core::RecoveryMode::kInvertible,
             core::KeyReplayMode::kCurrentInterval, 0, "serial_invertible"},
        Case{core::RecoveryMode::kReplay, core::KeyReplayMode::kNextInterval,
             0, "serial_next_interval"},
        Case{core::RecoveryMode::kReplay,
             core::KeyReplayMode::kCurrentInterval, 2, "parallel_w2"}),
    [](const ::testing::TestParamInfo<Case>& param_info) {
      return std::string(param_info.param.name);
    });

}  // namespace
}  // namespace scd
