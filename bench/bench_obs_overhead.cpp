// Observability overhead: add_record throughput with the metrics layer
// enabled vs disabled at runtime (PipelineConfig::metrics), and with span
// tracing enabled on top (TraceController::global().set_enabled(true)).
//
// The instrumented hot path adds a sampled (1 in 64) stage timer around the
// sketch UPDATE; the records counter and every other counter are published
// once per interval, not per record. The acceptance bar is <5% throughput
// regression. Tracing adds one relaxed load per span site when disabled and
// one ring store per *interval-level* span when enabled (the stage timer's
// own clock reading is reused) — nothing per record — so the traced
// configuration carries a tighter <1% bar relative to metrics-enabled.
//
// Method: kReps reps. A rep builds one pipeline per configuration and feeds
// the three in lock-step, kChunk records at a time in rotating order, timing
// each chunk, so all three see the same background load to within
// milliseconds: a neighbour's burst or a frequency step lands on every
// configuration alike instead of on whichever ran during it. Each rep yields
// two paired ratios (on/off, traced/on) of the configurations' summed add()
// time; the gates compare the median ratio over all reps, which one noisy
// rep cannot move. (Running the configurations back to back, even in
// rotating order, left ±3% between the medians of whole bench runs.)
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/timer.h"
#include "core/pipeline.h"
#include "obs/trace.h"
#include "sketch/median.h"
#include "support/bench_util.h"

namespace {

using namespace scd;

core::PipelineConfig bench_config(bool metrics) {
  core::PipelineConfig config;
  // Long intervals keep the loop add-dominated: the per-record cost under
  // test is UPDATE + instrumentation, not interval-close work.
  config.interval_s = 1000.0;
  config.h = 5;
  config.k = 4096;
  config.threshold = 0.1;
  config.metrics = metrics;
  return config;
}

double median(std::vector<double> values) {
  return sketch::median_inplace(values);
}

/// "q1..q3" of `values` as signed percentages off 1.
std::string quartiles_pct(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return common::str_format("%+.2f..%+.2f%%", (values[n / 4] - 1.0) * 100.0,
                            (values[(3 * n) / 4] - 1.0) * 100.0);
}

// Configurations, indexing every per-configuration array below.
constexpr std::size_t kOff = 0;
constexpr std::size_t kOn = 1;
constexpr std::size_t kTraced = 2;
constexpr std::size_t kConfigs = 3;
constexpr std::size_t kChunk = 16384;

/// One rep: the three configurations' pipelines fed the same keys in
/// lock-step chunks. Returns each configuration's add() seconds (flush()
/// untimed).
std::vector<double> run_rep(std::size_t rep,
                            const std::vector<std::uint32_t>& keys) {
  std::vector<core::ChangeDetectionPipeline> pipelines;
  for (std::size_t c = 0; c < kConfigs; ++c) {
    pipelines.emplace_back(bench_config(c != kOff));
  }
  std::vector<double> seconds(kConfigs, 0.0);
  // Four intervals over the run: enough closes to exercise the whole path
  // without letting close costs dominate.
  const double step_s = 4000.0 / static_cast<double>(keys.size());
  for (std::size_t begin = 0; begin < keys.size(); begin += kChunk) {
    const std::size_t end = std::min(begin + kChunk, keys.size());
    const std::size_t chunk = begin / kChunk;
    for (std::size_t slot = 0; slot < kConfigs; ++slot) {
      const std::size_t c = (slot + chunk + rep) % kConfigs;
      obs::TraceController::global().set_enabled(c == kTraced);
      core::ChangeDetectionPipeline& pipeline = pipelines[c];
      const common::Stopwatch sw;
      for (std::size_t i = begin; i < end; ++i) {
        pipeline.add(keys[i], 100.0, static_cast<double>(i + 1) * step_s);
      }
      seconds[c] += sw.seconds();
    }
  }
  obs::TraceController::global().set_enabled(false);
  for (core::ChangeDetectionPipeline& pipeline : pipelines) pipeline.flush();
  return seconds;
}

}  // namespace

int main() {
  using namespace scd;
  bench::print_header(
      "obs overhead", "add_record throughput, metrics on vs off",
      "runtime-enabled instrumentation costs <5% of add throughput");

  constexpr std::size_t kRecords = 2'000'000;
  std::vector<std::uint32_t> keys(kRecords);
  common::Rng rng(7);
  for (auto& k : keys) k = static_cast<std::uint32_t>(rng.next_u64() >> 40);

  constexpr std::size_t kReps = 15;
  std::vector<double> seconds[kConfigs];
  std::vector<double> on_over_off;
  std::vector<double> traced_over_on;
  (void)run_rep(0, keys);  // warm-up, not measured
  for (std::size_t rep = 0; rep < kReps; ++rep) {
    const std::vector<double> t = run_rep(rep, keys);
    for (std::size_t c = 0; c < kConfigs; ++c) seconds[c].push_back(t[c]);
    on_over_off.push_back(t[kOn] / t[kOff]);
    traced_over_on.push_back(t[kTraced] / t[kOn]);
  }

  const double overhead = median(on_over_off) - 1.0;
  const double trace_overhead = median(traced_over_on) - 1.0;

  std::printf("\n%-28s %14s %14s\n", "configuration (median)",
              "records/s", "ns/record");
  const char* names[kConfigs] = {"metrics disabled (runtime)",
                                 "metrics enabled",
                                 "metrics + tracing enabled"};
  for (std::size_t c = 0; c < kConfigs; ++c) {
    const double median_s = median(seconds[c]);
    std::printf("%-28s %14.3e %14.1f\n", names[c],
                static_cast<double>(kRecords) / median_s,
                median_s / kRecords * 1e9);
  }
  std::printf("median of %zu paired ratios - metrics overhead: %+.2f%% "
              "(quartiles %s)   tracing overhead: %+.2f%% (quartiles %s)\n",
              kReps, overhead * 100.0, quartiles_pct(on_over_off).c_str(),
              trace_overhead * 100.0, quartiles_pct(traced_over_on).c_str());

  bench::check(overhead < 0.05,
               "metrics-enabled add throughput within 5% of disabled",
               common::str_format("overhead %+.2f%%", overhead * 100.0));
  bench::check(trace_overhead < 0.01,
               "tracing-enabled add throughput within 1% of metrics-only",
               common::str_format("overhead %+.2f%%", trace_overhead * 100.0));
  return bench::finish();
}
