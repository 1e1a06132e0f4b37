#include "layers.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <sstream>

#include "agg/aggregator.h"
#include "checkpoint/checkpoint.h"
#include "detect/detection.h"
#include "forecast/runner.h"
#include "hash/cw_hash.h"
#include "hash/tabulation_hash.h"
#include "ingest/parallel_pipeline.h"
#include "net/wire.h"
#include "simd/kernels.h"
#include "sketch/kary_sketch.h"
#include "sketch/mv_sketch.h"
#include "sketch/serialize.h"
#include "traffic/key_extract.h"
#include "traffic/trace_io.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace sketch = scd::sketch;
namespace hash = scd::hash;

/// Width of the sharded front end the ingest probe drives.
constexpr std::size_t kProbeWorkers = 2;

/// Keeps the optimizer from deleting timed work whose result is unused.
volatile std::uint64_t g_sink = 0;

/// Running mean of timed calls.
struct Timer {
  double total_s = 0.0;
  std::size_t calls = 0;
  template <typename F>
  void time(F&& f) {
    const auto t0 = Clock::now();
    f();
    total_s += seconds_since(t0);
    ++calls;
  }
  [[nodiscard]] double mean_s() const {
    return calls == 0 ? 0.0 : total_s / static_cast<double>(calls);
  }
};

/// The records of each interval, on the pipeline's grid (the first record
/// opens interval 0).
std::vector<std::span<const traffic::FlowRecord>> cut_intervals(
    std::span<const traffic::FlowRecord> records, double interval_s,
    std::size_t max_intervals) {
  std::vector<std::span<const traffic::FlowRecord>> out;
  if (records.empty()) return out;
  std::size_t begin = 0;
  double end = traffic::record_time_s(records.front()) + interval_s;
  for (std::size_t i = 0; i < records.size(); ++i) {
    while (traffic::record_time_s(records[i]) >= end) {
      if (out.size() == max_intervals) return out;
      out.push_back(records.subspan(begin, i - begin));
      begin = i;
      end += interval_s;
    }
  }
  if (out.size() < max_intervals) out.push_back(records.subspan(begin));
  return out;
}

std::vector<sketch::Record> to_updates(std::span<const traffic::FlowRecord> rs,
                                       const core::PipelineConfig& c,
                                       bool dst_only = false) {
  std::vector<sketch::Record> out;
  out.reserve(rs.size());
  for (const auto& r : rs) {
    out.push_back({dst_only ? r.dst_ip : traffic::extract_key(r, c.key_kind),
                   traffic::extract_update(r, c.update_kind)});
  }
  return out;
}

std::vector<std::uint64_t> distinct_keys(
    const std::vector<sketch::Record>& updates) {
  std::vector<std::uint64_t> keys;
  keys.reserve(updates.size());
  for (const auto& u : updates) keys.push_back(u.key);
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

std::vector<std::uint8_t> to_bytes(const sketch::KarySketch& s) {
  return sketch::sketch_to_bytes(s);
}
std::vector<std::uint8_t> to_bytes(const sketch::MvSketch& s) {
  return sketch::mv_sketch_to_bytes(s);
}
template <typename S>
std::vector<std::uint8_t> to_bytes(const S& s) {
  std::ostringstream out;
  sketch::write_sketch(out, s);
  const std::string bytes = out.str();
  return {bytes.begin(), bytes.end()};
}

template <typename S>
S from_bytes(const std::vector<std::uint8_t>& bytes,
             sketch::FamilyRegistry& registry) {
  if constexpr (std::is_same_v<S, sketch::KarySketch>) {
    return sketch::sketch_from_bytes(bytes, registry);
  } else if constexpr (std::is_same_v<S, sketch::MvSketch>) {
    return sketch::mv_sketch_from_bytes(bytes, registry);
  } else {
    std::istringstream in(std::string(bytes.begin(), bytes.end()));
    if constexpr (std::is_same_v<S, sketch::KarySketch64>) {
      return sketch::read_sketch64(in, registry);
    } else {
      return sketch::read_mv_sketch64(in, registry);
    }
  }
}

/// Sketch-layer, forecast and detection metrics for one hash family.
template <typename Family>
void probe_sketch_layers(
    const std::vector<std::span<const traffic::FlowRecord>>& intervals,
    const ProbeInput& in, Metrics& out) {
  using Kary = sketch::BasicKarySketch<Family>;
  using Mv = sketch::BasicMvSketch<Family>;
  const core::PipelineConfig& c = in.config;
  const bool invertible = c.recovery == core::RecoveryMode::kInvertible;
  const auto family = std::make_shared<const Family>(c.seed, c.h);
  const Kary kary_proto(family, c.k);
  const Mv mv_proto(family, c.k);
  forecast::ForecastRunner<Kary> kary_runner(c.model, kary_proto);
  forecast::ForecastRunner<Mv> mv_runner(c.model, mv_proto);
  sketch::FamilyRegistry registry;

  Timer update, mv_update, combine, to_b, from_b, step, f2, replay, recover;
  double keys_checked = 0.0, alarms = 0.0, swept = 0.0, verified = 0.0;
  std::size_t detections = 0, records = 0;
  for (const auto& rs : intervals) {
    const auto updates = to_updates(rs, c);
    records += updates.size();
    Kary observed = kary_proto;
    Mv mv_observed = mv_proto;
    const auto t0 = Clock::now();
    observed.update_batch(updates);
    const auto t1 = Clock::now();
    mv_observed.update_batch(updates);
    const auto t2 = Clock::now();
    update.total_s += std::chrono::duration<double>(t1 - t0).count();
    mv_update.total_s += std::chrono::duration<double>(t2 - t1).count();

    // COMBINE of `fanin` shard sketches of this interval, the workload's
    // sketch type.
    std::vector<Kary> kary_parts(in.fanin, kary_proto);
    std::vector<Mv> mv_parts(in.fanin, mv_proto);
    for (std::size_t i = 0; i < updates.size(); ++i) {
      if (invertible) {
        mv_parts[i % in.fanin].update(updates[i].key, updates[i].update);
      } else {
        kary_parts[i % in.fanin].update(updates[i].key, updates[i].update);
      }
    }
    const std::vector<double> ones(in.fanin, 1.0);
    if (invertible) {
      std::vector<const Mv*> ptrs;
      for (const auto& p : mv_parts) ptrs.push_back(&p);
      combine.time([&] { g_sink = g_sink + Mv::combine(ones, ptrs).width(); });
      std::vector<std::uint8_t> bytes;
      to_b.time([&] { bytes = to_bytes(mv_observed); });
      from_b.time([&] {
        g_sink = g_sink + from_bytes<Mv>(bytes, registry).width();
      });
    } else {
      std::vector<const Kary*> ptrs;
      for (const auto& p : kary_parts) ptrs.push_back(&p);
      combine.time(
          [&] { g_sink = g_sink + Kary::combine(ones, ptrs).width(); });
      std::vector<std::uint8_t> bytes;
      to_b.time([&] { bytes = to_bytes(observed); });
      from_b.time([&] {
        g_sink = g_sink + from_bytes<Kary>(bytes, registry).width();
      });
    }

    // Forecast step on both sketch kinds; the workload's kind is reported.
    std::optional<typename forecast::ForecastRunner<Kary>::Step> ks;
    std::optional<typename forecast::ForecastRunner<Mv>::Step> ms;
    const auto s0 = Clock::now();
    ks = kary_runner.step(observed);
    const auto s1 = Clock::now();
    ms = mv_runner.step(mv_observed);
    const auto s2 = Clock::now();
    const auto step_time = invertible ? s2 - s1 : s1 - s0;
    step.total_s += std::chrono::duration<double>(step_time).count();
    ++step.calls;
    if (!ks.has_value() || !ms.has_value()) continue;
    ++detections;

    double est_f2 = 0.0;
    f2.time([&] { est_f2 = ks->error.estimate_f2(); });
    const double l2 = std::sqrt(std::max(est_f2, 0.0));
    const auto keys = distinct_keys(updates);
    std::vector<scd::detect::KeyError> ranked;
    replay.time([&] {
      ranked = scd::detect::rank_by_abs_error(
          keys, [&](std::uint64_t key) { return ks->error.estimate(key); });
    });
    keys_checked += static_cast<double>(keys.size());
    alarms += static_cast<double>(
        scd::detect::above_threshold(ranked, c.threshold, l2).size());

    const double mv_l2 = std::sqrt(std::max(ms->error.estimate_f2(), 0.0));
    std::size_t cands = 0;
    std::size_t found = 0;
    recover.time([&] {
      found = ms->error.recover_heavy_keys(c.threshold * mv_l2, &cands).size();
    });
    swept += static_cast<double>(cands);
    verified += static_cast<double>(found);
  }
  update.calls = mv_update.calls = records;
  const double per = detections == 0 ? 1.0 : static_cast<double>(detections);
  out.set("sketch.update_ns_per_rec", update.mean_s() * 1e9, "ns");
  out.set("sketch.mv_update_ns_per_rec", mv_update.mean_s() * 1e9, "ns");
  out.set("sketch.combine_ms", combine.mean_s() * 1e3, "ms");
  out.set("sketch.to_bytes_ms", to_b.mean_s() * 1e3, "ms");
  out.set("sketch.from_bytes_ms", from_b.mean_s() * 1e3, "ms");
  out.set("sketch.estimate_f2_us", f2.mean_s() * 1e6, "us");
  out.set("sketch.mv_recover_ms", recover.mean_s() * 1e3, "ms");
  out.set("sketch.mv_verified_ratio", swept == 0.0 ? 1.0 : verified / swept,
          "ratio");
  out.set("forecast.step_ms", step.mean_s() * 1e3, "ms");
  out.set("detect.replay_ms", replay.mean_s() * 1e3, "ms");
  out.set("detect.keys_checked_per_interval", keys_checked / per, "count");
  out.set("detect.alarms_per_interval", alarms / per, "count");
}

void probe_traffic_and_hash(std::span<const traffic::FlowRecord> records,
                            const ProbeInput& in, Metrics& out) {
  const core::PipelineConfig& c = in.config;
  const auto path = in.work_dir / "probe.scdt";
  traffic::write_trace(path.string(),
                       std::vector<traffic::FlowRecord>(records.begin(),
                                                        records.end()));
  {
    traffic::TraceReader reader(path.string());
    traffic::FlowRecord r;
    std::uint64_t n = 0;
    const auto t0 = Clock::now();
    while (reader.next(r)) n += r.bytes;
    out.set("traffic.read_ns_per_rec",
            seconds_since(t0) * 1e9 / static_cast<double>(records.size()),
            "ns");
    g_sink = g_sink + n;
  }
  std::filesystem::remove(path);

  std::vector<std::uint64_t> keys(records.size());
  const auto t0 = Clock::now();
  double acc = 0.0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    keys[i] = traffic::extract_key(records[i], c.key_kind);
    acc += traffic::extract_update(records[i], c.update_kind);
  }
  out.set("traffic.extract_ns_per_rec",
          seconds_since(t0) * 1e9 / static_cast<double>(records.size()), "ns");
  g_sink = g_sink + static_cast<std::uint64_t>(acc);

  const hash::TabulationHashFamily tab(c.seed, c.h);
  const hash::CwHashFamily cw(c.seed, c.h);
  std::array<std::uint16_t, 16> hv{};
  std::uint64_t x = 0;
  auto t1 = Clock::now();
  for (const std::uint64_t key : keys) {
    tab.hash_all(static_cast<std::uint32_t>(key), hv.data());
    x += hv[0];
  }
  out.set("hash.tab_ns_per_key",
          seconds_since(t1) * 1e9 / static_cast<double>(keys.size()), "ns");
  t1 = Clock::now();
  for (const std::uint64_t key : keys) {
    for (std::size_t row = 0; row < c.h; ++row) x += cw.hash16(row, key);
  }
  out.set("hash.cw_ns_per_key",
          seconds_since(t1) * 1e9 / static_cast<double>(keys.size()), "ns");
  g_sink = g_sink + x;
}

void probe_simd(const core::PipelineConfig& c, Metrics& out) {
  const std::size_t n = c.h * c.k;
  std::vector<double> x(n, 1.25), y(n, 0.5);
  constexpr int kReps = 200;
  auto t0 = Clock::now();
  for (int i = 0; i < kReps; ++i) scd::simd::axpy(y.data(), x.data(), n, 1e-9);
  const double axpy_s = seconds_since(t0);
  double acc = 0.0;
  t0 = Clock::now();
  for (int i = 0; i < kReps; ++i) acc += scd::simd::sum_squares(x.data(), n);
  const double ss_s = seconds_since(t0);
  g_sink = g_sink + static_cast<std::uint64_t>(acc + y[0]);
  const double bytes = static_cast<double>(n * sizeof(double)) * kReps;
  // axpy reads x and y and writes y; sum_squares reads x once.
  out.set("simd.axpy_gbps", 3.0 * bytes / axpy_s * 1e-9, "GB/s");
  out.set("simd.sum_squares_gbps", bytes / ss_s * 1e-9, "GB/s");
}

/// Serial engine (add vs close calls) and the checkpoint round trip.
void probe_core_and_checkpoint(std::span<const traffic::FlowRecord> records,
                               const ProbeInput& in, Metrics& out) {
  const core::PipelineConfig& c = in.config;
  core::ChangeDetectionPipeline p(c);
  // Non-closing calls are timed as whole runs between two closes, so the
  // clock read stays out of their per-record cost.
  Timer close;
  double add_s = 0.0;
  std::size_t adds = 0;
  auto run_start = Clock::now();
  std::size_t run_len = 0;
  double end = traffic::record_time_s(records.front()) + c.interval_s;
  for (const auto& r : records) {
    const double t = traffic::record_time_s(r);
    if (t < end) {
      p.add_record(r);
      ++run_len;
      continue;
    }
    add_s += seconds_since(run_start);
    adds += run_len;
    while (t >= end) end += c.interval_s;
    close.time([&] { p.add_record(r); });
    run_start = Clock::now();
    run_len = 0;
  }
  add_s += seconds_since(run_start);
  adds += run_len;
  p.flush();
  out.set("core.add_ns_per_rec", add_s * 1e9 / static_cast<double>(adds),
          "ns");
  out.set("core.close_ms", close.mean_s() * 1e3, "ms");

  const auto dir = in.work_dir / "probe_ckpt";
  std::filesystem::remove_all(dir);
  scd::checkpoint::CheckpointWriterOptions options;
  options.directory = dir;
  scd::checkpoint::CheckpointWriter writer(options, c);
  std::vector<double> save_ms, write_ms, recover_ms;
  std::vector<std::uint8_t> state;
  for (int rep = 0; rep < 5; ++rep) {
    auto t0 = Clock::now();
    state = p.save_state();
    save_ms.push_back(seconds_since(t0) * 1e3);
    t0 = Clock::now();
    (void)writer.write(scd::checkpoint::PayloadKind::kSerial,
                       static_cast<std::uint64_t>(rep), state);
    write_ms.push_back(seconds_since(t0) * 1e3);
    core::ChangeDetectionPipeline fresh(c);
    t0 = Clock::now();
    const auto result = scd::checkpoint::recover(dir, fresh);
    recover_ms.push_back(seconds_since(t0) * 1e3);
    if (!result.restored) throw std::runtime_error("probe: recover failed");
  }
  std::filesystem::remove_all(dir);
  out.set("checkpoint.save_state_ms", median(save_ms), "ms");
  out.set("checkpoint.write_ms", median(write_ms), "ms");
  out.set("checkpoint.bytes_per_write",
          static_cast<double>(state.size() +
                              scd::checkpoint::kCheckpointHeaderBytes),
          "B");
  out.set("checkpoint.recover_ms", median(recover_ms), "ms");
}

void probe_ingest(std::span<const traffic::FlowRecord> records,
                  const ProbeInput& in, Metrics& out) {
  const core::PipelineConfig& c = in.config;
  scd::ingest::ParallelConfig pc;
  pc.workers = kProbeWorkers;
  scd::ingest::ParallelPipeline p(c, pc);
  std::atomic<std::size_t> reported{0};
  p.set_report_callback([&](const core::IntervalReport&) {
    reported.fetch_add(1, std::memory_order_relaxed);
  });
  std::vector<double> pending;
  std::size_t closes = 0;
  double end = traffic::record_time_s(records.front()) + c.interval_s;
  const auto t0 = Clock::now();
  for (const auto& r : records) {
    const double t = traffic::record_time_s(r);
    while (t >= end) {
      end += c.interval_s;
      ++closes;
      pending.push_back(static_cast<double>(
          closes - reported.load(std::memory_order_relaxed)));
    }
    p.add_record(r);
  }
  const double add_s = seconds_since(t0);
  const auto t1 = Clock::now();
  p.flush();
  const double flush_s = seconds_since(t1);
  const auto stats = p.parallel_stats();
  const double n = static_cast<double>(records.size());
  out.set("ingest.add_ns_per_rec", add_s * 1e9 / n, "ns");
  out.set("ingest.backpressure_waits_per_mrec",
          static_cast<double>(stats.backpressure_waits) / (n * 1e-6), "count");
  out.set("ingest.pending_epochs_p90", quantile(pending, 0.9), "count");
  out.set("ingest.flush_ms", flush_s * 1e3, "ms");
}

/// Wire codec and aggregator over `fanin` nodes that split each interval's
/// records. The wire carries 32-bit tabulation sketches, so 64-bit key
/// kinds ship their destination half.
void probe_net_and_agg(
    const std::vector<std::span<const traffic::FlowRecord>>& intervals,
    const ProbeInput& in, Metrics& out) {
  core::PipelineConfig gc = in.config;
  gc.recovery = core::RecoveryMode::kReplay;
  if (!traffic::key_fits_32bit(gc.key_kind)) {
    gc.key_kind = traffic::KeyKind::kDstIp;
  }
  scd::agg::AggregatorConfig ac;
  ac.pipeline = gc;
  for (std::size_t n = 0; n < in.fanin; ++n) ac.nodes.push_back(n + 1);
  scd::agg::Aggregator agg(ac);
  const auto family = sketch::make_tabulation_family(gc.seed, gc.h);
  const bool dst_only = gc.key_kind != in.config.key_kind;

  Timer encode, decode, submit, close;
  double frame_bytes = 0.0;
  double start = traffic::record_time_s(intervals.front().front());
  for (std::size_t t = 0; t < intervals.size(); ++t, start += gc.interval_s) {
    const auto updates = to_updates(intervals[t], gc, dst_only);
    std::vector<std::vector<sketch::Record>> parts(in.fanin);
    for (std::size_t i = 0; i < updates.size(); ++i) {
      parts[i % in.fanin].push_back(updates[i]);
    }
    for (std::size_t n = 0; n < in.fanin; ++n) {
      sketch::KarySketch s(family, gc.k);
      s.update_batch(parts[n]);
      scd::net::IntervalPayload payload;
      payload.start_s = start;
      payload.len_s = gc.interval_s;
      payload.records = parts[n].size();
      payload.sketch_packet = sketch::sketch_to_bytes(s);
      payload.keys = distinct_keys(parts[n]);
      scd::net::FrameHeader header;
      header.type = scd::net::MessageType::kIntervalData;
      header.node_id = n + 1;
      header.interval_index = t;
      header.config_fingerprint = agg.config_fingerprint();
      std::vector<std::uint8_t> frame;
      encode.time([&] {
        frame = scd::net::encode_frame(
            header, scd::net::encode_interval_payload(payload));
      });
      frame_bytes += static_cast<double>(frame.size());
      scd::net::IntervalPayload decoded;
      decode.time([&] {
        decoded = scd::net::decode_interval_payload(
            scd::net::decode_frame(frame).payload);
      });
      (n + 1 == in.fanin ? close : submit).time([&] {
        (void)agg.submit(n + 1, t, decoded);
      });
    }
  }
  agg.flush();
  const auto& st = agg.stats();
  out.set("net.encode_us", encode.mean_s() * 1e6, "us");
  out.set("net.decode_us", decode.mean_s() * 1e6, "us");
  out.set("net.bytes_per_contribution",
          frame_bytes / static_cast<double>(encode.calls), "B");
  out.set("agg.submit_ms", submit.mean_s() * 1e3, "ms");
  out.set("agg.close_ms", close.mean_s() * 1e3, "ms");
  out.set("agg.rejects",
          static_cast<double>(st.duplicates + st.stale_drops +
                              st.unknown_node_drops),
          "count");
}

}  // namespace

void probe_layers(const ProbeInput& in, Metrics& out) {
  const auto intervals =
      cut_intervals(in.records, in.config.interval_s, kTrainingIntervals);
  const std::span<const traffic::FlowRecord> slice(
      in.records.data(),
      static_cast<std::size_t>(intervals.back().data() +
                               intervals.back().size() - in.records.data()));
  probe_traffic_and_hash(slice, in, out);
  if (traffic::key_fits_32bit(in.config.key_kind)) {
    probe_sketch_layers<hash::TabulationHashFamily>(intervals, in, out);
  } else {
    probe_sketch_layers<hash::CwHashFamily>(intervals, in, out);
  }
  probe_simd(in.config, out);
  probe_core_and_checkpoint(slice, in, out);
  probe_ingest(slice, in, out);
  probe_net_and_agg(intervals, in, out);
}

}  // namespace perfbench
