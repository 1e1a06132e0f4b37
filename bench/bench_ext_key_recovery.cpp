// Extension (§3.3, option 4 + docs/KEY_RECOVERY.md): recovering changed
// keys directly from the sketch instead of replaying a key stream. Compares
// the two --recovery modes on the small router at 300 s / EWMA, each arm
// doing what the pipeline does per interval:
//   * replay     — the paper's two-pass baseline: plain k-ary sketch,
//                  collect the interval's distinct keys, forecast, then
//                  ESTIMATE each key against the error sketch (pass 2),
//   * invertible — majority-vote sketch (3x the k-ary table; the current
//                  and the previous interval's are kept), single pass,
//                  forecast on its k-ary counters only, then sweep the
//                  error sketch with both intervals' candidates.
// Reports recall/precision of the single-pass mode against the replay
// baseline's flagged set (same seed, same (H, K), same threshold rule — the
// counters are identical, so the baseline is exactly what the recovery
// sweep is trying to reproduce without the second pass), recall against the
// exact per-flow truth as context, memory, and wall time (update + forecast
// step + ESTIMATEF2 + key identification). Each arm's wall time is the
// median of kRepetitions interleaved runs.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/timer.h"
#include "core/sketch_binding.h"
#include "detect/detection.h"
#include "eval/trace_cache.h"
#include "forecast/runner.h"
#include "sketch/kary_sketch.h"
#include "sketch/mv_sketch.h"
#include "support/bench_util.h"
#include "support/experiments.h"
#include "traffic/key_extract.h"
#include "traffic/router_profiles.h"

namespace {

// Both modes key on kDstIp; the hand-picked sketch types must cover
// that key domain (core/sketch_binding.h).
static_assert(scd::core::kSketchCoversKeyKind<scd::sketch::KarySketch,
                                              scd::traffic::KeyKind::kDstIp>);
static_assert(scd::core::kSketchCoversKeyKind<scd::sketch::MvSketch,
                                              scd::traffic::KeyKind::kDstIp>);

constexpr std::size_t kH = 5;
constexpr std::size_t kK = 4096;
constexpr std::uint64_t kSeed = 0x6007e57;
constexpr double kThresholdFrac = 0.10;
constexpr std::size_t kRepetitions = 5;

/// One mode's run: wall time split into the streaming pass, the forecast
/// step (with ESTIMATEF2) and the key identification, plus per-interval
/// recovered/flagged sets.
struct ModeRun {
  double update_s = 0.0;
  double forecast_s = 0.0;
  double recover_s = 0.0;
  std::size_t table_bytes = 0;
  // Keys identified per interval (empty set when detection did not run).
  std::vector<std::unordered_set<std::uint64_t>> keys;
  [[nodiscard]] double wall_s() const {
    return update_s + forecast_s + recover_s;
  }
};

/// Per-interval input shared by both arms.
struct Workload {
  const std::vector<std::vector<scd::sketch::Record>>& raw;
  const scd::forecast::ModelConfig& model;
  std::size_t warmup;
};

[[nodiscard]] double threshold_of(const scd::sketch::KarySketch& error) {
  return kThresholdFrac * std::sqrt(std::max(error.estimate_f2(), 0.0));
}

ModeRun run_replay(const Workload& w) {
  using namespace scd;
  ModeRun run;
  run.keys.resize(w.raw.size());
  const auto family =
      std::make_shared<const hash::TabulationHashFamily>(kSeed, kH);
  sketch::KarySketch observed(family, kK);
  run.table_bytes = observed.table_bytes();
  forecast::ForecastRunner<sketch::KarySketch> runner(w.model, observed);
  for (std::size_t t = 0; t < w.raw.size(); ++t) {
    observed.set_zero();
    std::unordered_set<std::uint64_t> interval_keys;
    common::Stopwatch sw;
    for (const auto& u : w.raw[t]) {
      observed.update(u.key, u.update);
      interval_keys.insert(u.key);  // pass-1 distinct-key collection
    }
    run.update_s += sw.seconds();
    sw.reset();
    const auto step = runner.step(observed);
    if (!step.has_value() || t < w.warmup) {
      run.forecast_s += sw.seconds();
      continue;
    }
    const double threshold = threshold_of(step->error);
    run.forecast_s += sw.seconds();
    sw.reset();
    for (const auto key : interval_keys) {  // pass 2: replay ESTIMATE
      if (std::abs(step->error.estimate(key)) >= threshold) {
        run.keys[t].insert(key);
      }
    }
    run.recover_s += sw.seconds();
  }
  return run;
}

ModeRun run_invertible(const Workload& w) {
  using namespace scd;
  ModeRun run;
  run.keys.resize(w.raw.size());
  const auto family =
      std::make_shared<const hash::TabulationHashFamily>(kSeed, kH);
  sketch::MvSketch observed(family, kK);
  sketch::MvSketch previous(family, kK);
  run.table_bytes = observed.table_bytes() + previous.table_bytes();
  forecast::ForecastRunner<sketch::KarySketch> runner(w.model,
                                                      observed.counters());
  for (std::size_t t = 0; t < w.raw.size(); ++t) {
    common::Stopwatch sw;
    for (const auto& u : w.raw[t]) observed.update(u.key, u.update);
    run.update_s += sw.seconds();
    sw.reset();
    const auto step = runner.step(observed.counters());
    if (step.has_value() && t >= w.warmup) {
      const double threshold = threshold_of(step->error);
      run.forecast_s += sw.seconds();
      sw.reset();
      const sketch::MvSketch* const sources[] = {&observed, &previous};
      const auto recovered =
          sketch::recover_heavy_keys<hash::TabulationHashFamily>(
              step->error, threshold, sources);
      for (const auto& r : recovered) run.keys[t].insert(r.key);
      run.recover_s += sw.seconds();
    } else {
      run.forecast_s += sw.seconds();
    }
    std::swap(observed, previous);
    observed.set_zero();
  }
  return run;
}

/// The run whose wall time is the median of `runs` (odd count).
const ModeRun& median_run(std::vector<ModeRun>& runs) {
  std::sort(runs.begin(), runs.end(), [](const ModeRun& a, const ModeRun& b) {
    return a.wall_s() < b.wall_s();
  });
  return runs[runs.size() / 2];
}

struct PrecisionRecall {
  double recall = 1.0;
  double precision = 1.0;
};

/// Mean per-interval recall/precision of `got` against `want` over
/// intervals where `want` is nonempty.
PrecisionRecall score(const std::vector<std::unordered_set<std::uint64_t>>& got,
                      const std::vector<std::unordered_set<std::uint64_t>>& want) {
  double recall_sum = 0.0, precision_sum = 0.0;
  std::size_t evaluated = 0;
  for (std::size_t t = 0; t < want.size(); ++t) {
    if (want[t].empty()) continue;
    std::size_t hit = 0;
    for (const auto key : got[t]) {
      if (want[t].contains(key)) ++hit;
    }
    recall_sum +=
        static_cast<double>(hit) / static_cast<double>(want[t].size());
    precision_sum += got[t].empty() ? 1.0
                                    : static_cast<double>(hit) /
                                          static_cast<double>(got[t].size());
    ++evaluated;
  }
  if (evaluated == 0) return {};
  return {recall_sum / static_cast<double>(evaluated),
          precision_sum / static_cast<double>(evaluated)};
}

}  // namespace

int main() {
  using namespace scd;
  bench::print_header(
      "Extension: single-pass changed-key recovery",
      "replay vs invertible (small router, 300s, EWMA)",
      "an invertible sketch recovers the replayed changer set in one pass, "
      "cheaper in wall time than two-pass replay");

  const double interval = 300.0;
  const auto& stream = bench::stream_for("small", interval);
  const auto model =
      bench::cached_grid_model("small", interval, forecast::ModelKind::kEwma);
  const std::size_t warmup = bench::warmup_intervals(interval);
  const auto& truth = bench::truth_for(stream, model);
  const std::size_t intervals = stream.num_intervals();

  // Raw per-interval record stream, bucketed exactly like IntervalizedStream
  // (absolute interval alignment). The wall-time comparison must see the
  // real update volume — many records per key — because two-pass replay's
  // key-collection cost and the invertible sketch's vote cost both scale
  // with records, and the aggregated view would hide the former.
  std::vector<std::vector<sketch::Record>> raw(intervals);
  {
    const auto& trace = eval::cached_trace(traffic::router_by_name("small"));
    const double start =
        std::floor(traffic::record_time_s(trace.front()) / interval) *
        interval;
    for (const auto& r : trace) {
      const auto t = static_cast<std::size_t>(
          (traffic::record_time_s(r) - start) / interval);
      if (t >= intervals) break;
      raw[t].push_back(
          {traffic::extract_key(r, traffic::KeyKind::kDstIp),
           traffic::extract_update(r, traffic::UpdateKind::kBytes)});
    }
  }

  // ---- both arms, interleaved so drift in the host hits both alike ----
  const Workload workload{raw, model, warmup};
  std::vector<ModeRun> replay_runs;
  std::vector<ModeRun> mv_runs;
  for (std::size_t rep = 0; rep < kRepetitions; ++rep) {
    replay_runs.push_back(run_replay(workload));
    mv_runs.push_back(run_invertible(workload));
  }
  const ModeRun& replay = median_run(replay_runs);
  const ModeRun& mv = median_run(mv_runs);

  // ---- exact per-flow truth (context, not the gating baseline) ----
  std::vector<std::unordered_set<std::uint64_t>> pf_flagged(intervals);
  for (std::size_t t = warmup; t < intervals; ++t) {
    if (!truth.intervals[t].ready) continue;
    const double pf_l2 = std::sqrt(std::max(truth.intervals[t].f2, 0.0));
    for (const auto& e : detect::above_threshold(truth.intervals[t].ranked,
                                                 kThresholdFrac, pf_l2)) {
      pf_flagged[t].insert(e.key);
    }
  }

  const PrecisionRecall mv_vs_replay = score(mv.keys, replay.keys);
  const PrecisionRecall replay_vs_truth = score(replay.keys, pf_flagged);
  const PrecisionRecall mv_vs_truth = score(mv.keys, pf_flagged);

  std::printf("median of %zu interleaved runs per mode\n", kRepetitions);
  std::printf(
      "mode        wall(ms)  update(ms)  forecast(ms)  recover(ms)  "
      "memory(KiB)\n");
  const auto row = [](const char* name, const ModeRun& run) {
    std::printf("%-11s %8.1f  %10.1f  %12.1f  %11.1f  %11.1f\n", name,
                run.wall_s() * 1e3, run.update_s * 1e3, run.forecast_s * 1e3,
                run.recover_s * 1e3,
                static_cast<double>(run.table_bytes) / 1024.0);
  };
  row("replay", replay);
  row("invertible", mv);
  std::printf("vs replay baseline:  invertible recall=%.3f precision=%.3f\n",
              mv_vs_replay.recall, mv_vs_replay.precision);
  std::printf("vs per-flow truth:   replay recall=%.3f | invertible "
              "recall=%.3f\n",
              replay_vs_truth.recall, mv_vs_truth.recall);

  bench::check(mv_vs_replay.recall >= 0.95 && mv_vs_replay.precision >= 0.9,
               "invertible recovery reproduces the two-pass changer set "
               "(recall >= 0.95 at precision >= 0.9)",
               common::str_format("recall=%.3f precision=%.3f",
                                  mv_vs_replay.recall,
                                  mv_vs_replay.precision));
  bench::check(mv.wall_s() < replay.wall_s(),
               "single-pass invertible recovery is cheaper in wall time than "
               "two-pass replay",
               common::str_format("%.1f ms vs %.1f ms", mv.wall_s() * 1e3,
                                  replay.wall_s() * 1e3));
  return bench::finish();
}
