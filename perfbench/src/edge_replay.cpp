// edge_replay: one large router, the paper's configuration and the
// single-threaded baseline. Records are decoded by traffic::TraceReader and
// fed one at a time into a serial ChangeDetectionPipeline (detect_cli's
// path): dst-IP keys, tabulation hash, bytes, H=5, K=32768, EWMA fitted on
// a 24-interval training prefix, key replay, 120 s intervals.
#include <filesystem>
#include <memory>

#include "eval/ground_truth.h"
#include "eval/trace_mmap.h"
#include "layers.h"
#include "traffic/router_profiles.h"
#include "traffic/synthetic.h"
#include "traffic/trace_io.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr double kIntervalS = 120.0;

/// One closed-loop pass over the trace file: the producer hands the next
/// record over as soon as add_record returns.
Pass feed(core::ChangeDetectionPipeline& p, const std::string& path,
          std::size_t max_intervals) {
  LagClock lag(max_intervals);
  p.set_report_callback([&](const core::IntervalReport& r) {
    if (r.index < max_intervals) lag.reported[r.index] = Clock::now();
  });
  Pass out;
  const double cpu0 = process_cpu_s();
  const auto t0 = Clock::now();
  traffic::TraceReader reader(path);
  traffic::FlowRecord r;
  std::size_t closes = 0;
  double end = -1.0;
  while (reader.next(r)) {
    const double t = traffic::record_time_s(r);
    if (end < 0.0) end = t + kIntervalS;
    if (t >= end) {
      const auto now = Clock::now();
      for (; t >= end; end += kIntervalS, ++closes) {
        if (closes < max_intervals) lag.handover[closes] = now;
      }
    }
    p.add_record(r);
    ++out.records;
  }
  if (closes < max_intervals) lag.handover[closes] = Clock::now();
  p.flush();
  out.seconds = seconds_since(t0);
  out.cpu_s = process_cpu_s() - cpu0;
  out.lags_ms = lag.lags_ms();
  return out;
}

/// The traced pass: the same calls, with the reads done a block at a time
/// so that each layer gets whole spans: "traffic.read" per block of
/// TraceReader::next calls, "core.add" per block of add_record calls, and a
/// "core.close" child for each add_record that closes an interval.
double feed_traced(core::ChangeDetectionPipeline& p, const std::string& path,
                   SpanRecorder& spans) {
  const auto t0 = Clock::now();
  const std::uint32_t root = spans.begin("bench.timed");
  traffic::TraceReader reader(path);
  std::vector<traffic::FlowRecord> block(kSpanBlock);
  double end = -1.0;
  for (;;) {
    const std::uint32_t read = spans.begin("traffic.read", root);
    std::size_t n = 0;
    while (n < block.size() && reader.next(block[n])) ++n;
    spans.end(read);
    if (n == 0) break;
    const std::uint32_t add = spans.begin("core.add", root);
    for (std::size_t i = 0; i < n; ++i) {
      const double t = traffic::record_time_s(block[i]);
      if (end < 0.0) end = t + kIntervalS;
      if (t < end) {
        p.add_record(block[i]);
        continue;
      }
      while (t >= end) end += kIntervalS;
      const std::uint32_t close = spans.begin("core.close", add);
      p.add_record(block[i]);
      spans.end(close);
    }
    spans.end(add);
  }
  const std::uint32_t flush = spans.begin("core.flush", root);
  p.flush();
  spans.end(flush);
  spans.end(root);
  return seconds_since(t0);
}

}  // namespace

RunResult run_edge_replay(const RunArgs& args) {
  // ---- inputs (untimed) ----
  traffic::SyntheticConfig gen_cfg = traffic::router_by_name("large").config;
  gen_cfg.seed = derive_seed(args.seed, 1);
  gen_cfg.base_rate *= args.smoke ? 0.05 : 2.0;
  traffic::SyntheticTraceGenerator generator(gen_cfg);
  const auto labels = eval::labeled_anomalies(generator);
  const std::string path = (args.work_dir / "edge_replay.scdt").string();
  std::vector<std::vector<scd::sketch::Record>> training;
  std::uint64_t input_records = 0;
  {
    const auto records = generator.generate();
    input_records = records.size();
    traffic::write_trace(path, records);
    training = training_prefix(records, kIntervalS, traffic::KeyKind::kDstIp,
                               kTrainingIntervals);
  }
  const std::size_t max_intervals =
      static_cast<std::size_t>(gen_cfg.duration_s / kIntervalS) + 4;
  info("edge_replay: seed=%llu records=%llu interval_s=%.0f threads=1 "
       "model=EWMA(fit) H=5 K=32768 keys=dst_ip hash=tabulation",
       static_cast<unsigned long long>(args.seed),
       static_cast<unsigned long long>(input_records), kIntervalS);

  // ---- reference feed (untimed): the mmap batch feed of the same build ----
  core::PipelineConfig config;
  config.interval_s = kIntervalS;
  config.h = 5;
  config.k = 32768;
  config.seed = derive_seed(args.seed, 2);
  config.model = fit_model(forecast::ModelKind::kEwma, training, true, config.h,
                           config.k, config.seed)
                     .model;
  std::vector<core::IntervalReport> reference;
  {
    core::ChangeDetectionPipeline p(config);
    const eval::MappedTrace mapped(path);
    (void)eval::feed_trace(mapped, p);
    reference = p.reports();
  }
  reset_peak_rss();

  // ---- setup: grid-search fit + construction, repeated ----
  EndToEnd e2e;
  std::vector<double> fit_s;
  Fit fit;
  std::unique_ptr<core::ChangeDetectionPipeline> pipeline;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    pipeline.reset();
    const auto t0 = Clock::now();
    fit = fit_model(forecast::ModelKind::kEwma, training, true, config.h,
                    config.k, config.seed);
    config.model = fit.model;
    pipeline = std::make_unique<core::ChangeDetectionPipeline>(config);
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
      pipeline = std::make_unique<core::ChangeDetectionPipeline>(config);
    }
    Pass pass = feed(*pipeline, path, max_intervals);
    result.attempted += reference.size();
    result.failed += compare_reports("edge_replay vs feed_trace",
                                     pipeline->reports(), reference, 0.0);
    if (i == 0) first_reports = pipeline->reports();
    pipeline.reset();
    return pass;
  });
  e2e.peak_rss_mb = peak_rss_mb();

  // ---- accuracy (untimed) ----
  e2e.anomaly_recall = anomaly_recall(first_reports, labels, kIntervalS);
  const auto records = traffic::read_trace(path);
  e2e.topn_similarity =
      topn_similarity(records, kIntervalS, config.key_kind, config.model,
                      config.h, config.k, config.seed, kTrainingIntervals, 50);
  result.correct = result.failed == 0 && reference.size() >= 100;

  if (!args.trace) {
    fill_end_to_end(e2e, result);
  } else {
    // Traced pass on a fresh pipeline; the overhead compares it with the
    // median untraced pass.
    SpanRecorder spans;
    core::ChangeDetectionPipeline p(config);
    const double traced_s = feed_traced(p, path, spans);
    result.attempted += reference.size();
    result.failed += compare_reports("edge_replay traced", p.reports(),
                                     reference, 0.0);
    result.correct = result.correct && result.failed == 0;
    report_traced(args, spans, traced_s, e2e.passes, fit_s, fit,
                  result.metrics);
    ProbeInput probe;
    probe.records = records;
    probe.config = config;
    probe.work_dir = args.work_dir;
    probe_layers(probe, result.metrics);
    // One thread: every record is read, keyed and sketched; every interval
    // is forecast, sized and replayed.
    const auto n = static_cast<double>(input_records);
    const auto intervals = static_cast<double>(reference.size());
    report_ledger({{"serial",
                    {{"traffic.read_ns_per_rec", n},
                     {"traffic.extract_ns_per_rec", n},
                     {"sketch.update_ns_per_rec", n},
                     {"forecast.step_ms", intervals},
                     {"sketch.estimate_f2_us", intervals},
                     {"detect.replay_ms", intervals}}}},
                  e2e.passes, result.metrics);
  }
  std::filesystem::remove(path);
  return result;
}

}  // namespace perfbench
