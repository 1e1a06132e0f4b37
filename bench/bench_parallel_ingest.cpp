// Parallel-ingestion scaling curve: add() throughput of the sharded
// front-end (src/ingest) at W = 1..8 workers against the single-threaded
// ChangeDetectionPipeline baseline, same stream and configuration.
//
// The claim to reproduce is architectural, not from the paper: sketch
// UPDATE dominates per-record cost (Table 1), and the H hash rows are
// independent (§3.1), so W row workers that each sweep their own rows of
// one shared table split UPDATE without any merge — the table is the
// serial one bit for bit. Add-throughput should scale with workers until
// the producer thread (chunk handoff), the merger thread (the serial
// interval close) or the core count saturates, and flattens above W = H
// (here 5), where only H workers run. Every worker still hashes every
// record for its rows: with tabulation at H = 5, W = 2 splits the rows
// 3/2 and the second worker's rows straddle both 4-row groups, so the
// workers make 3 group lookups per key where the serial sweep makes 2. On
// a single-core host every W collapses to time-sliced serial execution
// and the speedup column reads ~1x or below; the curve is only meaningful
// when hardware_concurrency comfortably exceeds W.
#include <cstdio>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/strutil.h"
#include "common/timer.h"
#include "core/pipeline.h"
#include "ingest/parallel_pipeline.h"
#include "support/bench_util.h"

namespace {

scd::core::PipelineConfig pipeline_config() {
  scd::core::PipelineConfig config;
  config.interval_s = 10.0;
  config.h = 5;
  config.k = 32768;
  config.threshold = 0.2;
  config.metrics = false;  // measure the data path, not the instrumentation
  return config;
}

struct Stream {
  std::vector<std::uint64_t> keys;
  std::vector<double> updates;
};

/// Pre-drawn stream so RNG cost is excluded (the Table 1 methodology). A
/// burst on one key past the halfway mark guarantees real alarms, so the
/// serial-vs-parallel parity check compares non-empty alarm sets.
Stream make_stream(std::size_t records) {
  Stream s;
  s.keys.reserve(records);
  s.updates.reserve(records);
  scd::common::Rng rng(42);
  const std::size_t burst_begin = records / 2;
  const std::size_t burst_end = burst_begin + 2000;
  for (std::size_t i = 0; i < records; ++i) {
    if (i >= burst_begin && i < burst_end) {
      s.keys.push_back(123456);
      s.updates.push_back(50000.0);
      continue;
    }
    s.keys.push_back(rng.next_below(1u << 20));
    s.updates.push_back(static_cast<double>(rng.next_in(1, 1500)));
  }
  return s;
}

}  // namespace

int main() {
  using namespace scd;
  bench::print_header(
      "parallel ingest", "sharded add() throughput, W = 1..8 workers",
      "row-sharded UPDATE scales throughput with cores "
      "(>= 2.5x at W=4 on >= 4 free cores); alarm output stays identical");

  constexpr std::size_t kRecords = 4'000'000;
  constexpr double kIntervalRecords = 500'000.0;  // records per 10 s interval
  const Stream stream = make_stream(kRecords);
  const auto time_of = [&](std::size_t i) {
    return static_cast<double>(i) / kIntervalRecords * 10.0;
  };

  // --- serial baseline -----------------------------------------------------
  common::Stopwatch sw;
  std::size_t serial_alarms = 0;
  {
    core::ChangeDetectionPipeline pipeline(pipeline_config());
    for (std::size_t i = 0; i < kRecords; ++i) {
      pipeline.add(stream.keys[i], stream.updates[i], time_of(i));
    }
    pipeline.flush();
    for (const auto& r : pipeline.reports()) serial_alarms += r.alarms.size();
  }
  const double serial_s = sw.seconds();
  const double serial_mrps = kRecords / serial_s / 1e6;

  std::printf("\nhardware_concurrency: %u\n",
              std::thread::hardware_concurrency());
  std::printf("%-28s %10s %12s %9s %8s\n", "configuration", "time", "records/s",
              "speedup", "alarms");
  std::printf("%-28s %8.3f s %9.2f M/s %8s %8zu\n", "serial baseline",
              serial_s, serial_mrps, "1.00x", serial_alarms);

  std::vector<std::pair<double, double>> curve;
  double w4_speedup = 0.0;
  bool alarms_match = true;
  for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
    ingest::ParallelConfig parallel;
    parallel.workers = workers;
    sw.reset();
    std::size_t alarms = 0;
    {
      ingest::ParallelPipeline pipeline(pipeline_config(), parallel);
      for (std::size_t i = 0; i < kRecords; ++i) {
        pipeline.add(stream.keys[i], stream.updates[i], time_of(i));
      }
      pipeline.flush();
      for (const auto& r : pipeline.reports()) alarms += r.alarms.size();
    }
    const double elapsed = sw.seconds();
    const double speedup = serial_s / elapsed;
    if (workers == 4) w4_speedup = speedup;
    if (alarms != serial_alarms) alarms_match = false;
    curve.emplace_back(static_cast<double>(workers), speedup);
    std::printf("%-28s %8.3f s %9.2f M/s %7.2fx %8zu\n",
                common::str_format("parallel W=%zu", workers).c_str(), elapsed,
                kRecords / elapsed / 1e6, speedup, alarms);
  }
  bench::print_series("speedup_vs_workers", curve);

  bench::check(alarms_match,
               "parallel alarm count equals serial at every worker count");
  const unsigned cores = std::thread::hardware_concurrency();
  if (cores >= 5) {  // 4 workers + the producer thread need their own cores
    bench::check(w4_speedup >= 2.5,
                 "W=4 reaches >= 2.5x serial add-throughput",
                 common::str_format("%.2fx on %u cores", w4_speedup, cores));
  } else {
    std::printf("CHECK skipped: W=4 speedup target needs >= 5 cores, host "
                "has %u (measured %.2fx)\n", cores, w4_speedup);
  }
  return bench::finish();
}
