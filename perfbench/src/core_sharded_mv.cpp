// core_sharded_mv: a core router on the sharded front end. One producer
// hands records to ingest::ParallelPipeline with W=2 shard workers and its
// merger thread (4 threads in all); src-dst pair keys (64-bit, Carter-Wegman
// hash, MvSketch64), bytes, H=5, K=32768, EWMA fitted on a 24-interval
// training prefix, invertible (majority-vote) recovery, 30 s intervals.
//
// The anomalies are single-source floods, so the heavy changer is one
// (src, dst) pair: they come from a second generator over the same host
// space whose records get one attacker address per target.
#include <algorithm>
#include <memory>

#include "eval/ground_truth.h"
#include "ingest/parallel_pipeline.h"
#include "layers.h"
#include "traffic/router_profiles.h"
#include "traffic/synthetic.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr double kIntervalS = 30.0;
constexpr std::size_t kWorkers = 2;

/// One closed-loop pass: the producer hands the next record over as soon
/// as add_record returns.
Pass feed(scd::ingest::ParallelPipeline& p,
          const std::vector<traffic::FlowRecord>& records,
          std::size_t max_intervals) {
  LagClock lag(max_intervals);
  p.set_report_callback([&](const core::IntervalReport& r) {
    if (r.index < max_intervals) lag.reported[r.index] = Clock::now();
  });
  Pass out;
  const double cpu0 = process_cpu_s();
  const auto t0 = Clock::now();
  std::size_t closes = 0;
  double end = traffic::record_time_s(records.front()) + kIntervalS;
  for (const auto& r : records) {
    const double t = traffic::record_time_s(r);
    if (t >= end) {
      const auto now = Clock::now();
      for (; t >= end; end += kIntervalS, ++closes) {
        if (closes < max_intervals) lag.handover[closes] = now;
      }
    }
    p.add_record(r);
  }
  if (closes < max_intervals) lag.handover[closes] = Clock::now();
  p.flush();
  out.records = records.size();
  out.seconds = seconds_since(t0);
  out.cpu_s = process_cpu_s() - cpu0;
  out.lags_ms = lag.lags_ms();
  return out;
}

/// The traced pass: an "ingest.add" span per block of add_record calls, a
/// "ingest.add_closing" child for each call that closes an interval (it
/// blocks while the merger is max_pending_intervals behind), and the flush.
double feed_traced(scd::ingest::ParallelPipeline& p,
                   const std::vector<traffic::FlowRecord>& records,
                   SpanRecorder& spans) {
  const auto t0 = Clock::now();
  const std::uint32_t root = spans.begin("bench.timed");
  double end = traffic::record_time_s(records.front()) + kIntervalS;
  for (std::size_t first = 0; first < records.size(); first += kSpanBlock) {
    const std::size_t last = std::min(records.size(), first + kSpanBlock);
    const std::uint32_t add = spans.begin("ingest.add", root);
    for (std::size_t i = first; i < last; ++i) {
      const double t = traffic::record_time_s(records[i]);
      if (t < end) {
        p.add_record(records[i]);
        continue;
      }
      while (t >= end) end += kIntervalS;
      const std::uint32_t close = spans.begin("ingest.add_closing", add);
      p.add_record(records[i]);
      spans.end(close);
    }
    spans.end(add);
  }
  const std::uint32_t flush = spans.begin("ingest.flush", root);
  p.flush();
  spans.end(flush);
  spans.end(root);
  return seconds_since(t0);
}

/// Baseline traffic plus single-source floods, and the flood labels.
std::vector<traffic::FlowRecord> make_input(
    const RunArgs& args, double duration_s,
    std::vector<eval::LabeledAnomaly>& labels) {
  traffic::SyntheticConfig base = traffic::router_by_name("large").config;
  base.seed = derive_seed(args.seed, 11);
  base.host_space_seed = derive_seed(args.seed, 12);
  base.duration_s = duration_s;
  base.base_rate *= args.smoke ? 0.1 : 1.6;
  base.anomalies.clear();

  traffic::SyntheticConfig floods = base;
  floods.seed = derive_seed(args.seed, 13);
  floods.base_rate = 1e-9;  // anomaly records only
  auto dos = [](double start, double len, double rate, std::size_t rank) {
    traffic::AnomalySpec a;
    a.kind = traffic::AnomalyKind::kDosAttack;
    a.start_s = start;
    a.duration_s = len;
    a.magnitude = rate;
    a.target_rank = rank;
    return a;
  };
  floods.anomalies = {dos(0.35 * duration_s, 240.0, 150.0, 40),
                      dos(0.60 * duration_s, 300.0, 100.0, 700),
                      dos(0.85 * duration_s, 150.0, 200.0, 5)};

  traffic::SyntheticTraceGenerator base_gen(base);
  traffic::SyntheticTraceGenerator flood_gen(floods);
  labels = eval::labeled_anomalies(flood_gen);
  auto baseline = base_gen.generate();
  auto attack = flood_gen.generate();
  for (auto& r : attack) {
    for (std::size_t a = 0; a < labels.size(); ++a) {
      if (r.dst_ip == labels[a].target_key) {
        r.src_ip = static_cast<std::uint32_t>(derive_seed(args.seed, 20 + a));
      }
    }
  }
  std::vector<traffic::FlowRecord> merged;
  merged.reserve(baseline.size() + attack.size());
  std::merge(baseline.begin(), baseline.end(), attack.begin(), attack.end(),
             std::back_inserter(merged),
             [](const traffic::FlowRecord& a, const traffic::FlowRecord& b) {
               return a.timestamp_us < b.timestamp_us;
             });
  return merged;
}

}  // namespace

RunResult run_core_sharded_mv(const RunArgs& args) {
  // ---- inputs (untimed) ----
  constexpr double kDurationS = 120 * kIntervalS;
  std::vector<eval::LabeledAnomaly> labels;
  const auto records = make_input(args, kDurationS, labels);
  const auto training = training_prefix(
      records, kIntervalS, traffic::KeyKind::kSrcDstPair, kTrainingIntervals);
  const std::size_t max_intervals =
      static_cast<std::size_t>(kDurationS / kIntervalS) + 4;
  info("core_sharded_mv: seed=%llu records=%zu interval_s=%.0f threads=%zu "
       "model=EWMA(fit) H=5 K=32768 keys=src_dst_pair hash=carter_wegman "
       "recovery=invertible",
       static_cast<unsigned long long>(args.seed), records.size(), kIntervalS,
       kWorkers + 2);

  // ---- reference feed (untimed): the serial pipeline, same records ----
  core::PipelineConfig config;
  config.interval_s = kIntervalS;
  config.h = 5;
  config.k = 32768;
  config.seed = derive_seed(args.seed, 14);
  config.key_kind = traffic::KeyKind::kSrcDstPair;
  config.recovery = core::RecoveryMode::kInvertible;
  config.model = fit_model(forecast::ModelKind::kEwma, training, false,
                           config.h, config.k, config.seed)
                     .model;
  std::vector<core::IntervalReport> reference;
  {
    core::ChangeDetectionPipeline p(config);
    for (const auto& r : records) p.add_record(r);
    p.flush();
    reference = p.reports();
  }
  reset_peak_rss();

  // ---- setup: grid-search fit + construction, repeated ----
  scd::ingest::ParallelConfig parallel;
  parallel.workers = kWorkers;
  EndToEnd e2e;
  std::vector<double> fit_s;
  Fit fit;
  std::unique_ptr<scd::ingest::ParallelPipeline> pipeline;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    pipeline.reset();
    const auto t0 = Clock::now();
    fit = fit_model(forecast::ModelKind::kEwma, training, false, config.h,
                    config.k, config.seed);
    config.model = fit.model;
    pipeline =
        std::make_unique<scd::ingest::ParallelPipeline>(config, parallel);
    e2e.setup_reps_s.push_back(seconds_since(t0));
    fit_s.push_back(fit.fit_s);
  }
  info("model %s (%zu evaluations)", fit.model.to_string().c_str(),
       fit.evaluations);

  // ---- timed phase: passes on fresh pipelines, each checked ----
  RunResult result;
  std::vector<core::IntervalReport> first_reports;
  e2e.passes = timed_passes(args.seconds, [&](std::size_t i) {
    if (i > 0) {
      pipeline =
          std::make_unique<scd::ingest::ParallelPipeline>(config, parallel);
    }
    Pass pass = feed(*pipeline, records, max_intervals);
    result.attempted += reference.size();
    result.failed += compare_reports("core_sharded_mv vs serial",
                                     pipeline->reports(), reference, 1e-9);
    if (i == 0) first_reports = pipeline->reports();
    pipeline.reset();
    return pass;
  });
  e2e.peak_rss_mb = peak_rss_mb();

  // ---- accuracy (untimed) ----
  e2e.anomaly_recall = anomaly_recall(first_reports, labels, kIntervalS);
  e2e.topn_similarity =
      topn_similarity(records, kIntervalS, config.key_kind, config.model,
                      config.h, config.k, config.seed, kTrainingIntervals, 50);
  result.correct = result.failed == 0 && reference.size() >= 100;

  if (!args.trace) {
    fill_end_to_end(e2e, result);
    return result;
  }
  // Traced pass on a fresh pipeline; the overhead compares it with the
  // median untraced pass.
  SpanRecorder spans;
  double traced_s = 0.0;
  {
    scd::ingest::ParallelPipeline p(config, parallel);
    traced_s = feed_traced(p, records, spans);
    result.attempted += reference.size();
    result.failed += compare_reports("core_sharded_mv traced", p.reports(),
                                     reference, 1e-9);
  }
  result.correct = result.correct && result.failed == 0;
  report_traced(args, spans, traced_s, e2e.passes, fit_s, fit,
                result.metrics);
  ProbeInput probe;
  probe.records = records;
  probe.config = config;
  probe.fanin = kWorkers;
  probe.work_dir = args.work_dir;
  probe_layers(probe, result.metrics);
  // Three stages run side by side: the producer keys each record, the
  // workers sketch their share, and the merger COMBINEs the shards, steps
  // the forecast and recovers the heavy keys of every interval.
  const auto n = static_cast<double>(records.size());
  const auto intervals = static_cast<double>(reference.size());
  report_ledger({{"producer", {{"traffic.extract_ns_per_rec", n}}},
                 {"workers",
                  {{"sketch.mv_update_ns_per_rec",
                    n / static_cast<double>(kWorkers)}}},
                 {"merger",
                  {{"sketch.combine_ms", intervals},
                   {"forecast.step_ms", intervals},
                   {"sketch.estimate_f2_us", intervals},
                   {"sketch.mv_recover_ms", intervals}}}},
                e2e.passes, result.metrics);
  return result;
}

}  // namespace perfbench
