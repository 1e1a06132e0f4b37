// fleet_ckpt: eight vantage points over one host space, run in one thread
// with no sockets. For each node and interval: build the sketch
// (KarySketch::update_batch), serialize it (sketch_to_bytes), frame it
// (net::encode_interval_payload + encode_frame), decode it again
// (decode_frame + decode_interval_payload), submit it to agg::Aggregator
// (NSHW detection on the COMBINEd view), and feed the node's own pipeline
// through ingest_interval, checkpointing through checkpoint::CheckpointWriter
// with a real fsync on a fixed cadence staggered across nodes (one node
// writes per interval). The nodes start warm: set-up recovers each from
// the checkpoint it wrote after a 24-interval warm-up prefix.
#include <algorithm>
#include <filesystem>
#include <memory>

#include "agg/aggregator.h"
#include "checkpoint/checkpoint.h"
#include "eval/ground_truth.h"
#include "layers.h"
#include "net/wire.h"
#include "sketch/serialize.h"
#include "traffic/key_extract.h"
#include "traffic/router_profiles.h"
#include "traffic/synthetic.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace ckpt = scd::checkpoint;
namespace net = scd::net;
namespace sketch = scd::sketch;

constexpr double kIntervalS = 60.0;
constexpr std::size_t kNodes = 8;
constexpr std::size_t kWarmIntervals = kTrainingIntervals;
constexpr std::size_t kTimedIntervals = 110;
/// Each node checkpoints every kNodes intervals, node n at offset n.
constexpr std::size_t kCheckpointEvery = kNodes;

/// One node's records, cut on the shared interval grid anchored at 0.
struct NodeInput {
  std::vector<std::vector<traffic::FlowRecord>> intervals;
};

struct Fleet {
  std::vector<std::unique_ptr<core::ChangeDetectionPipeline>> nodes;
  std::vector<std::unique_ptr<ckpt::CheckpointWriter>> writers;
  std::unique_ptr<scd::agg::Aggregator> aggregator;
};

/// Where node `n` keeps its checkpoints: "warm" holds the one written after
/// the warm-up prefix, "live" the ones the timed phase writes.
std::filesystem::path node_dir(const RunArgs& args, std::size_t n,
                               const char* which) {
  return args.work_dir / "fleet_ckpt" / ("node" + std::to_string(n)) / which;
}

core::PipelineConfig node_config(std::uint64_t hash_seed,
                                 const forecast::ModelConfig& model) {
  core::PipelineConfig c;
  c.interval_s = kIntervalS;
  c.h = 5;
  c.k = 2048;
  c.seed = hash_seed;
  c.model = model;
  return c;
}

/// Times `f` as span `name` under `parent` when tracing.
template <typename F>
void maybe_span(SpanRecorder* spans, const char* name, std::uint32_t parent,
                F&& f) {
  if (spans == nullptr) return f();
  const auto t0 = Clock::now();
  f();
  spans->add(name, t0, Clock::now(), parent);
}

/// A node's observed sketch of one interval and the batch its own pipeline
/// ingests: the same registers, the interval's distinct keys.
struct NodeInterval {
  sketch::KarySketch sketch;
  core::IntervalBatch batch;
};

NodeInterval sketch_interval(std::size_t interval,
                             const core::PipelineConfig& c,
                             const sketch::KarySketch::FamilyPtr& family,
                             const std::vector<traffic::FlowRecord>& records,
                             SpanRecorder* spans, std::uint32_t parent) {
  NodeInterval out{sketch::KarySketch(family, c.k), {}};
  std::vector<sketch::Record> updates;
  std::vector<std::uint64_t>& keys = out.batch.keys;
  maybe_span(spans, "traffic.extract", parent, [&] {
    updates.reserve(records.size());
    keys.reserve(records.size());
    for (const auto& r : records) {
      updates.push_back({traffic::extract_key(r, c.key_kind),
                         traffic::extract_update(r, c.update_kind)});
      keys.push_back(updates.back().key);
    }
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  });
  maybe_span(spans, "sketch.update_batch", parent,
             [&] { out.sketch.update_batch(updates); });
  out.batch.start_s = static_cast<double>(interval) * kIntervalS;
  out.batch.len_s = kIntervalS;
  out.batch.records = records.size();
  out.batch.registers.assign(out.sketch.registers().begin(),
                             out.sketch.registers().end());
  return out;
}

/// Ships node `n`'s interval through the codec and the wire to the
/// aggregator.
void ship(std::size_t n, std::uint64_t agg_index, const NodeInterval& node,
          Fleet& fleet, SpanRecorder* spans, std::uint32_t parent) {
  net::IntervalPayload payload;
  payload.start_s = node.batch.start_s;
  payload.len_s = node.batch.len_s;
  payload.records = node.batch.records;
  maybe_span(spans, "sketch.to_bytes", parent,
             [&] {
               payload.sketch_packet = sketch::sketch_to_bytes(node.sketch);
             });
  payload.keys = node.batch.keys;
  std::vector<std::uint8_t> frame;
  maybe_span(spans, "net.encode", parent, [&] {
    net::FrameHeader header;
    header.type = net::MessageType::kIntervalData;
    header.node_id = n + 1;
    header.interval_index = agg_index;
    header.config_fingerprint = fleet.aggregator->config_fingerprint();
    frame = net::encode_frame(header, net::encode_interval_payload(payload));
  });
  net::IntervalPayload received;
  maybe_span(spans, "net.decode", parent, [&] {
    received = net::decode_interval_payload(net::decode_frame(frame).payload);
  });
  maybe_span(spans, "agg.submit", parent,
             [&] {
               (void)fleet.aggregator->submit(n + 1, agg_index, received);
             });
}

/// The node's own pipeline takes the batch; on its cadence it checkpoints.
void node_ingest(std::size_t n, std::size_t interval, core::IntervalBatch batch,
                 Fleet& fleet, SpanRecorder* spans, std::uint32_t parent) {
  auto& p = *fleet.nodes[n];
  maybe_span(spans, "core.ingest_interval", parent,
             [&] { p.ingest_interval(std::move(batch)); });
  if ((interval + 1 + n) % kCheckpointEvery == 0) {
    maybe_span(spans, "checkpoint.write", parent, [&] {
      (void)fleet.writers[n]->write(ckpt::PayloadKind::kSerial, interval + 1,
                                    p.save_state());
    });
  }
}

Pass run_timed(const std::vector<NodeInput>& nodes,
                const core::PipelineConfig& c, Fleet& fleet,
                SpanRecorder* spans) {
  LagClock lag(kTimedIntervals);
  fleet.aggregator->set_report_callback([&](const core::IntervalReport& r) {
    if (r.index < kTimedIntervals) lag.reported[r.index] = Clock::now();
  });
  const auto family = sketch::make_tabulation_family(c.seed, c.h);
  Pass out;
  const double cpu0 = process_cpu_s();
  const auto t0 = Clock::now();
  const std::uint32_t root = spans != nullptr ? spans->begin("bench.timed") : 0;
  for (std::size_t g = 0; g < kTimedIntervals; ++g) {
    const std::size_t interval = kWarmIntervals + g;
    lag.handover[g] = Clock::now();
    const std::uint32_t parent =
        spans != nullptr ? spans->begin("bench.interval", root) : 0;
    for (std::size_t n = 0; n < kNodes; ++n) {
      const auto& records = nodes[n].intervals[interval];
      out.records += records.size();
      NodeInterval node =
          sketch_interval(interval, c, family, records, spans, parent);
      ship(n, g, node, fleet, spans, parent);
      node_ingest(n, interval, std::move(node.batch), fleet, spans, parent);
    }
    if (spans != nullptr) spans->end(parent);
  }
  fleet.aggregator->flush();
  if (spans != nullptr) spans->end(root);
  out.seconds = seconds_since(t0);
  out.cpu_s = process_cpu_s() - cpu0;
  out.lags_ms = lag.lags_ms();
  return out;
}

/// The paper's fit of the global model on the fleet's training prefix.
Fit fit_fleet(const std::vector<std::vector<sketch::Record>>& training,
              std::uint64_t hash_seed) {
  return fit_model(forecast::ModelKind::kHoltWinters, training, true, 1, 8192,
                   hash_seed);
}

/// Construction of the aggregator and the nodes, and recovery of each node
/// from its warm checkpoint.
Fleet build_fleet(const RunArgs& args, const core::PipelineConfig& c) {
  Fleet fleet;
  scd::agg::AggregatorConfig ac;
  ac.pipeline = c;
  for (std::size_t n = 0; n < kNodes; ++n) ac.nodes.push_back(n + 1);
  fleet.aggregator = std::make_unique<scd::agg::Aggregator>(ac);
  for (std::size_t n = 0; n < kNodes; ++n) {
    fleet.nodes.push_back(std::make_unique<core::ChangeDetectionPipeline>(c));
    const auto r =
        ckpt::recover(node_dir(args, n, "warm"), *fleet.nodes.back());
    if (!r.restored || r.interval_index != kWarmIntervals) {
      throw std::runtime_error("fleet_ckpt: warm node " + std::to_string(n) +
                               " did not recover");
    }
    ckpt::CheckpointWriterOptions options;
    options.directory = node_dir(args, n, "live");
    std::filesystem::remove_all(options.directory);
    fleet.writers.push_back(
        std::make_unique<ckpt::CheckpointWriter>(options, c));
  }
  return fleet;
}

}  // namespace

RunResult run_fleet_ckpt(const RunArgs& args) {
  // ---- inputs (untimed) ----
  const double duration_s =
      static_cast<double>(kWarmIntervals + kTimedIntervals) * kIntervalS;
  const double rate_scale = args.smoke ? 0.05 : 0.5;
  std::vector<NodeInput> nodes(kNodes);
  std::vector<traffic::FlowRecord> merged;  // the fleet stream, timed part
  std::vector<traffic::FlowRecord> warm;    // the fleet stream, warm-up part
  std::vector<eval::LabeledAnomaly> labels;
  auto anomaly = [](traffic::AnomalyKind kind, double start, double len,
                    double rate, std::size_t rank) {
    traffic::AnomalySpec a;
    a.kind = kind;
    a.start_s = start;
    a.duration_s = len;
    a.magnitude = rate;
    a.target_rank = rank;
    return a;
  };
  const double timed_start = static_cast<double>(kWarmIntervals) * kIntervalS;
  std::uint64_t input_records = 0;
  for (std::size_t n = 0; n < kNodes; ++n) {
    traffic::SyntheticConfig cfg = traffic::router_by_name("medium").config;
    cfg.seed = derive_seed(args.seed, 100 + n);
    cfg.host_space_seed = derive_seed(args.seed, 99);
    cfg.duration_s = duration_s;
    cfg.base_rate *= rate_scale;
    const double timed_len = duration_s - timed_start;
    cfg.anomalies = {anomaly(traffic::AnomalyKind::kDosAttack,
                             timed_start + 0.3 * timed_len, 300.0, 60.0, 150),
                     anomaly(traffic::AnomalyKind::kFlashCrowd,
                             timed_start + 0.6 * timed_len, 600.0, 20.0, 1200)};
    traffic::SyntheticTraceGenerator gen(cfg);
    if (n == 0) labels = eval::labeled_anomalies(gen);
    const auto records = gen.generate();
    input_records += records.size();
    auto& cut = nodes[n].intervals;
    cut.resize(kWarmIntervals + kTimedIntervals);
    for (const auto& r : records) {
      const auto i =
          static_cast<std::size_t>(traffic::record_time_s(r) / kIntervalS);
      if (i >= cut.size()) break;
      cut[i].push_back(r);
      (i < kWarmIntervals ? warm : merged).push_back(r);
    }
  }
  auto by_time = [](const traffic::FlowRecord& a,
                    const traffic::FlowRecord& b) {
    return a.timestamp_us < b.timestamp_us;
  };
  std::stable_sort(merged.begin(), merged.end(), by_time);
  std::stable_sort(warm.begin(), warm.end(), by_time);
  const auto training = training_prefix(warm, kIntervalS,
                                        traffic::KeyKind::kDstIp,
                                        kWarmIntervals);
  warm = {};

  const std::uint64_t hash_seed = derive_seed(args.seed, 98);
  const core::PipelineConfig config =
      node_config(hash_seed, fit_fleet(training, hash_seed).model);
  // Warm-up (untimed): each node runs the prefix and checkpoints at its end.
  const auto family = sketch::make_tabulation_family(config.seed, config.h);
  for (std::size_t n = 0; n < kNodes; ++n) {
    std::filesystem::remove_all(node_dir(args, n, "warm"));
    core::ChangeDetectionPipeline p(config);
    for (std::size_t i = 0; i < kWarmIntervals; ++i) {
      p.ingest_interval(
          sketch_interval(i, config, family, nodes[n].intervals[i], nullptr, 0)
              .batch);
    }
    ckpt::CheckpointWriterOptions options;
    options.directory = node_dir(args, n, "warm");
    ckpt::CheckpointWriter writer(options, config);
    (void)writer.write(ckpt::PayloadKind::kSerial, kWarmIntervals,
                       p.save_state());
  }
  info("fleet_ckpt: seed=%llu nodes=%zu records=%llu (timed %zu) "
       "interval_s=%.0f intervals=%zu threads=1 model=NSHW(fit) H=5 K=%zu "
       "keys=dst_ip hash=tabulation checkpoint_every=%zu",
       static_cast<unsigned long long>(args.seed), kNodes,
       static_cast<unsigned long long>(input_records), merged.size(),
       kIntervalS, kTimedIntervals, config.k, kCheckpointEvery);

  // ---- reference feed (untimed): the serial pipeline over the merged
  // fleet stream, its grid anchored at the first timed interval by a zero
  // update ----
  std::vector<core::IntervalReport> reference;
  {
    core::ChangeDetectionPipeline p(config);
    p.add(merged.front().dst_ip, 0.0, timed_start);
    for (const auto& r : merged) p.add_record(r);
    p.flush();
    reference = p.reports();
  }
  reset_peak_rss();

  // ---- setup: fit + construction + recovery of the warm nodes, repeated ----
  EndToEnd e2e;
  std::vector<double> fit_s;
  Fit fit;
  Fleet fleet;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    fleet = {};
    const auto t0 = Clock::now();
    fit = fit_fleet(training, hash_seed);
    fleet = build_fleet(args, node_config(hash_seed, fit.model));
    e2e.setup_reps_s.push_back(seconds_since(t0));
    fit_s.push_back(fit.fit_s);
  }
  info("model %s (%zu evaluations)", fit.model.to_string().c_str(),
       fit.evaluations);

  // ---- timed phase: passes on freshly recovered fleets, each checked ----
  RunResult result;
  std::vector<core::IntervalReport> first_reports;
  e2e.passes = timed_passes(args.seconds, [&](std::size_t i) {
    if (i > 0) fleet = build_fleet(args, config);
    Pass pass = run_timed(nodes, config, fleet, nullptr);
    result.attempted += reference.size();
    result.failed += compare_reports("fleet_ckpt vs serial merged stream",
                                     fleet.aggregator->reports(), reference,
                                     1e-9);
    if (i == 0) first_reports = fleet.aggregator->reports();
    fleet = {};
    return pass;
  });
  e2e.peak_rss_mb = peak_rss_mb();

  // ---- accuracy (untimed) ----
  e2e.anomaly_recall = anomaly_recall(first_reports, labels, kIntervalS);
  e2e.topn_similarity =
      topn_similarity(merged, kIntervalS, config.key_kind, config.model,
                      config.h, config.k, config.seed, 4, 50);
  result.correct = result.failed == 0 && reference.size() >= 100;

  if (!args.trace) {
    fill_end_to_end(e2e, result);
    std::filesystem::remove_all(args.work_dir / "fleet_ckpt");
    return result;
  }
  // Traced pass on a freshly recovered fleet; the overhead compares it with
  // the median untraced pass.
  SpanRecorder spans;
  Pass traced;
  {
    Fleet f = build_fleet(args, config);
    traced = run_timed(nodes, config, f, &spans);
    result.attempted += reference.size();
    result.failed += compare_reports("fleet_ckpt traced",
                                     f.aggregator->reports(), reference, 1e-9);
  }
  result.correct = result.correct && result.failed == 0;
  report_traced(args, spans, traced.seconds, e2e.passes, fit_s, fit,
                result.metrics);
  ProbeInput probe;
  probe.records = merged;
  probe.config = config;
  probe.fanin = kNodes;
  probe.work_dir = args.work_dir;
  probe_layers(probe, result.metrics);
  // One thread: each node interval is keyed, sketched, serialized, framed,
  // parsed and submitted, then replayed by the node's own pipeline over its
  // distinct keys; one node checkpoints per interval.
  double node_keys = 0.0;
  for (const auto& node : nodes) {
    for (std::size_t g = 0; g < kTimedIntervals; ++g) {
      std::vector<std::uint32_t> keys;
      for (const auto& r : node.intervals[kWarmIntervals + g]) {
        keys.push_back(r.dst_ip);
      }
      std::sort(keys.begin(), keys.end());
      node_keys += static_cast<double>(
          std::unique(keys.begin(), keys.end()) - keys.begin());
    }
  }
  const auto records = static_cast<double>(merged.size());
  const auto intervals = static_cast<double>(kTimedIntervals);
  const double node_intervals = intervals * kNodes;
  const double keys_per_replay =
      result.metrics.all().at("detect.keys_checked_per_interval").first;
  report_ledger({{"fleet",
                  {{"traffic.extract_ns_per_rec", records},
                   {"sketch.update_ns_per_rec", records},
                   {"sketch.to_bytes_ms", node_intervals},
                   {"net.encode_us", node_intervals},
                   {"net.decode_us", node_intervals},
                   {"agg.submit_ms", node_intervals - intervals},
                   {"agg.close_ms", intervals},
                   {"forecast.step_ms", node_intervals},
                   {"sketch.estimate_f2_us", node_intervals},
                   {"detect.replay_ms", node_keys / keys_per_replay},
                   {"checkpoint.save_state_ms", intervals},
                   {"checkpoint.write_ms", intervals}}}},
                e2e.passes, result.metrics);
  std::filesystem::remove_all(args.work_dir / "fleet_ckpt");
  return result;
}

}  // namespace perfbench
