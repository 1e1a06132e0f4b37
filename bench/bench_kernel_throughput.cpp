// Kernel and UPDATE throughput: the perf claims behind src/simd and
// BasicKarySketch::update_batch (docs/PERFORMANCE.md).
//
// Three measurements, all single-threaded:
//   1. dense kernels (scale/axpy/dot/sum_squares/hsum, and mv_fold, the
//      majority-vote sketch's fused counter AXPY + vote merge) in GB/s,
//      the runtime-dispatched implementation against the portable scalar
//      reference benched in the same process;
//   2. sketch UPDATE at H=5, K=4096 — per-record update() vs the
//      hash-batched update_batch() row sweep, in M updates/s. The batched
//      path must not regress anywhere and must show a clear win on AVX2
//      hosts (the win is hash prefetching + row locality + loop-structure
//      amortization, so most of it survives even under SCD_SIMD=scalar).
//      The attainable ratio is bounded by cache geometry, not code: both
//      paths pay the same ~2 tabulation-table cache misses per key (the
//      interleaved character tables are 4.25 MB at H=5, beyond most L2s),
//      and at K=4096 the whole register table is L2-resident, so the
//      per-record baseline is already miss-overlapped by out-of-order
//      execution. docs/PERFORMANCE.md works through the measured cost
//      model; the gate below asserts the batched win with margin rather
//      than a geometry-dependent ideal;
//   3. end-to-end ingestion records/s through ParallelPipeline (producer ->
//      shard queue -> update_batch worker -> async epoch merge), at W=1 and
//      W=4;
//   4. the zero-copy mmap trace feed (eval/trace_mmap.h) against the
//      queue-copy path (TraceReader -> ParallelPipeline W=1) on the same
//      on-disk trace.
//
// Results are also written as BENCH_THROUGHPUT.json (override the path with
// SCD_BENCH_JSON=...). SCD_BENCH_QUICK=1 shrinks every workload ~10x for CI
// smoke runs; the JSON records which mode produced it.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/strutil.h"
#include "common/timer.h"
#include "core/pipeline.h"
#include "eval/trace_mmap.h"
#include "ingest/parallel_pipeline.h"
#include "traffic/flow_record.h"
#include "traffic/trace_io.h"
#include "simd/kernels.h"
// The one sanctioned exception to the simd-isolation rule: this bench's job
// is to measure the dispatched kernels AGAINST the scalar reference in one
// process, which requires naming the reference backend directly.
#include "simd/kernels_scalar.h"  // scd-lint: allow(simd-isolation)
#include "sketch/kary_sketch.h"
#include "support/bench_util.h"

namespace {

using scd::common::Stopwatch;

bool quick_mode() {
  const char* q = std::getenv("SCD_BENCH_QUICK");
  return q != nullptr && q[0] != '\0' && !(q[0] == '0' && q[1] == '\0');
}

struct Backend {
  const char* name;
  /// The instruction set actually behind the pointers: the runtime-dispatch
  /// decision for "dispatch", always "scalar" for the reference — so a row
  /// from an AVX-512 CI runner is distinguishable from an AVX2 laptop in
  /// committed JSON.
  const char* isa;
  void (*scale)(double*, std::size_t, double) noexcept;
  void (*axpy)(double*, const double*, std::size_t, double) noexcept;
  double (*dot)(const double*, const double*, std::size_t) noexcept;
  double (*sum_squares)(const double*, std::size_t) noexcept;
  double (*hsum)(const double*, std::size_t) noexcept;
  void (*mv_fold)(const scd::simd::MvCells&, const scd::simd::MvConstCells&,
                  std::size_t, double, bool,
                  const scd::simd::MvCells*) noexcept;
};

volatile double g_sink = 0.0;

/// One kernel measurement: `iters` sweeps over an n-element buffer, best of
/// `reps` timings. Returns GB/s given the kernel's bytes moved per element.
struct KernelResult {
  std::string kernel;
  std::string backend;
  std::string isa;
  std::size_t n = 0;
  double gb_per_s = 0.0;
};

template <typename Body>
double best_seconds(int reps, Body&& body) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const Stopwatch sw;
    body();
    best = std::min(best, sw.seconds());
  }
  return best;
}

std::vector<KernelResult> bench_kernels(const Backend& backend, bool quick) {
  // Elements processed per (kernel, n) measurement; sized for ~tens of ms
  // per timing in full mode so the single-shot quick run stays meaningful.
  const std::size_t target = quick ? 8u << 20 : 256u << 20;
  const int reps = quick ? 1 : 3;
  std::vector<KernelResult> out;
  scd::common::Rng rng(99);
  for (const std::size_t n : {std::size_t{4096}, std::size_t{65536}}) {
    const std::size_t iters = std::max<std::size_t>(1, target / n);
    std::vector<double> x(n);
    std::vector<double> y(n);
    for (double& v : x) v = rng.uniform(-1e3, 1e3);
    for (double& v : y) v = rng.uniform(-1e3, 1e3);
    const auto record = [&](const char* kernel, double bytes_per_elem,
                            double seconds) {
      const double gbs =
          bytes_per_elem * static_cast<double>(n) *
          static_cast<double>(iters) / seconds / 1e9;
      out.push_back(KernelResult{kernel, backend.name, backend.isa, n, gbs});
    };
    // scale: alternate c and 1/c so the buffer neither overflows nor decays.
    record("scale", 16.0, best_seconds(reps, [&] {
      for (std::size_t i = 0; i < iters; ++i) {
        backend.scale(y.data(), n, (i & 1) != 0 ? 1.0 / 1.0000001 : 1.0000001);
      }
    }));
    // axpy: alternate +c/-c to keep y bounded.
    record("axpy", 24.0, best_seconds(reps, [&] {
      for (std::size_t i = 0; i < iters; ++i) {
        backend.axpy(y.data(), x.data(), n, (i & 1) != 0 ? -0.5 : 0.5);
      }
    }));
    record("dot", 16.0, best_seconds(reps, [&] {
      double acc = 0.0;
      for (std::size_t i = 0; i < iters; ++i) {
        acc += backend.dot(x.data(), y.data(), n);
      }
      g_sink = acc;
    }));
    record("sum_squares", 8.0, best_seconds(reps, [&] {
      double acc = 0.0;
      for (std::size_t i = 0; i < iters; ++i) {
        acc += backend.sum_squares(x.data(), n);
      }
      g_sink = acc;
    }));
    record("hsum", 8.0, best_seconds(reps, [&] {
      double acc = 0.0;
      for (std::size_t i = 0; i < iters; ++i) {
        acc += backend.hsum(x.data(), n);
      }
      g_sink = acc;
    }));
  }
  return out;
}

/// mv_fold in add_scaled's form (no clear, no drain): reads both sides'
/// counters, candidates and votes and writes dst's — 72 bytes a cell.
/// Candidates come from 16 keys, so every vote outcome occurs; c alternates
/// +-0.5 to keep the counters bounded. Run after bench_kernels, so the
/// earlier rows see the heap they always saw.
std::vector<KernelResult> bench_mv_fold(const Backend& backend, bool quick) {
  const std::size_t target = quick ? 8u << 20 : 256u << 20;
  const int reps = quick ? 1 : 3;
  std::vector<KernelResult> out;
  scd::common::Rng rng(98);
  for (const std::size_t n : {std::size_t{4096}, std::size_t{65536}}) {
    const std::size_t iters = std::max<std::size_t>(1, target / n);
    std::vector<double> dst_counts(n);
    std::vector<double> src_counts(n);
    std::vector<std::uint64_t> dst_cand(n);
    std::vector<std::uint64_t> src_cand(n);
    std::vector<double> dst_votes(n);
    std::vector<double> src_votes(n);
    for (std::size_t i = 0; i < n; ++i) {
      dst_counts[i] = rng.uniform(-1e3, 1e3);
      src_counts[i] = rng.uniform(-1e3, 1e3);
      dst_cand[i] = rng.next_below(16);
      src_cand[i] = rng.next_below(16);
      dst_votes[i] = static_cast<double>(rng.next_below(4));
      src_votes[i] = static_cast<double>(rng.next_below(4));
    }
    const scd::simd::MvCells dst{dst_counts.data(), dst_cand.data(),
                                 dst_votes.data()};
    const scd::simd::MvConstCells src{src_counts.data(), src_cand.data(),
                                      src_votes.data()};
    const double seconds = best_seconds(reps, [&] {
      for (std::size_t i = 0; i < iters; ++i) {
        backend.mv_fold(dst, src, n, (i & 1) != 0 ? -0.5 : 0.5, false,
                        nullptr);
      }
    });
    const double gbs = 72.0 * static_cast<double>(n) *
                       static_cast<double>(iters) / seconds / 1e9;
    out.push_back(KernelResult{"mv_fold", backend.name, backend.isa, n, gbs});
  }
  return out;
}

double kernel_gbs(const std::vector<KernelResult>& rows, const char* kernel,
                  const char* backend, std::size_t n) {
  for (const KernelResult& r : rows) {
    if (r.kernel == kernel && r.backend == backend && r.n == n) {
      return r.gb_per_s;
    }
  }
  return 0.0;
}

}  // namespace

int main() {
  using namespace scd;
  const bool quick = quick_mode();
  bench::print_header(
      "kernel throughput",
      "SIMD kernel GB/s + batched-vs-per-record UPDATE + end-to-end ingest",
      "batched UPDATE beats per-record at H=5, K=4096 on vector hosts; "
      "dispatched kernels beat the scalar reference");

  const char* isa = simd::isa_name(simd::active_isa());
  std::printf("\ndispatch: %s (cpu avx2: %s, SCD_SIMD=%s, %s mode)\n", isa,
              simd::cpu_supports_avx2() ? "yes" : "no",
              std::getenv("SCD_SIMD") != nullptr ? std::getenv("SCD_SIMD")
                                                 : "unset",
              quick ? "quick" : "full");
  // Any vector backend (AVX2 or AVX-512) earns the vectorized gates below;
  // the thresholds were calibrated on AVX2 and AVX-512 only raises them.
  const bool vector_active = simd::active_isa() != simd::IsaLevel::kScalar;

  // --- 1. dense kernels ----------------------------------------------------
  const Backend dispatch{"dispatch", isa, &simd::scale, &simd::axpy,
                         &simd::dot, &simd::sum_squares, &simd::hsum,
                         &simd::mv_fold};
  const Backend scalar{"scalar", "scalar", &simd::scalar::scale,
                       &simd::scalar::axpy, &simd::scalar::dot,
                       &simd::scalar::sum_squares, &simd::scalar::hsum,
                       &simd::scalar::mv_fold};
  std::vector<KernelResult> kernels = bench_kernels(dispatch, quick);
  const auto append = [&kernels](const std::vector<KernelResult>& more) {
    kernels.insert(kernels.end(), more.begin(), more.end());
  };
  append(bench_kernels(scalar, quick));
  append(bench_mv_fold(dispatch, quick));
  append(bench_mv_fold(scalar, quick));
  std::printf("\n%-12s %8s %12s %12s %9s\n", "kernel", "n", "dispatch",
              "scalar", "ratio");
  for (const char* kernel :
       {"scale", "axpy", "dot", "sum_squares", "hsum", "mv_fold"}) {
    for (const std::size_t n : {std::size_t{4096}, std::size_t{65536}}) {
      const double d = kernel_gbs(kernels, kernel, "dispatch", n);
      const double s = kernel_gbs(kernels, kernel, "scalar", n);
      std::printf("%-12s %8zu %9.2f GB/s %7.2f GB/s %8.2fx\n", kernel, n, d,
                  s, s > 0.0 ? d / s : 0.0);
    }
  }

  // --- 2. per-record vs batched UPDATE at H=5, K=4096 ----------------------
  constexpr std::size_t kH = 5;
  constexpr std::size_t kK = 4096;
  const std::size_t updates = quick ? 1'000'000 : 8'000'000;
  const int reps = quick ? 1 : 3;
  std::vector<sketch::Record> records(updates);
  {
    common::Rng rng(7);
    for (auto& r : records) {
      r.key = rng.next_below(1u << 20);
      r.update = static_cast<double>(rng.next_in(1, 1500));
    }
  }
  const auto family = sketch::make_tabulation_family(11, kH);
  sketch::KarySketch per_record(family, kK);
  sketch::KarySketch batched(family, kK);
  const double per_record_s = best_seconds(reps, [&] {
    for (const sketch::Record& r : records) per_record.update(r.key, r.update);
  });
  const double batched_s = best_seconds(reps, [&] {
    batched.update_batch(std::span<const sketch::Record>(records));
  });
  // Same records applied rep-for-rep -> the two tables must be bit-equal;
  // a throughput number for a wrong answer is worthless.
  bool tables_equal = true;
  for (std::size_t i = 0; i < per_record.registers().size(); ++i) {
    if (per_record.registers()[i] != batched.registers()[i]) {
      tables_equal = false;
      break;
    }
  }
  const auto updates_d = static_cast<double>(updates);
  const double per_record_mups = updates_d / per_record_s / 1e6;
  const double batched_mups = updates_d / batched_s / 1e6;
  const double speedup = per_record_s / batched_s;
  std::printf("\n%-34s %12s %14s\n",
              common::str_format("UPDATE (H=%zu, K=%zu)", kH, kK).c_str(),
              "M updates/s", "ns/update");
  std::printf("%-34s %10.2f M/s %11.1f ns\n", "per-record update()",
              per_record_mups, per_record_s / updates_d * 1e9);
  std::printf("%-34s %10.2f M/s %11.1f ns\n", "batched update_batch()",
              batched_mups, batched_s / updates_d * 1e9);
  std::printf("%-34s %11.2fx\n", "batched speedup", speedup);

  // --- 3. end-to-end ingestion ---------------------------------------------
  const std::size_t e2e_records = quick ? 400'000 : 2'000'000;
  core::PipelineConfig config;
  config.interval_s = 10.0;
  config.h = kH;
  config.k = kK;
  config.threshold = 0.2;
  config.metrics = false;  // measure the data path, not the instrumentation
  const double per_interval = 500'000.0;
  const auto e2e_run = [&](std::size_t workers) {
    ingest::ParallelConfig parallel;
    parallel.workers = workers;
    common::Rng rng(13);
    std::vector<std::uint64_t> keys(e2e_records);
    std::vector<double> vals(e2e_records);
    for (std::size_t i = 0; i < e2e_records; ++i) {
      keys[i] = rng.next_below(1u << 20);
      vals[i] = static_cast<double>(rng.next_in(1, 1500));
    }
    const Stopwatch sw;
    ingest::ParallelPipeline pipeline(config, parallel);
    for (std::size_t i = 0; i < e2e_records; ++i) {
      pipeline.add(keys[i], vals[i],
                   static_cast<double>(i) / per_interval * 10.0);
    }
    pipeline.flush();
    return sw.seconds();
  };
  const double e2e_s = e2e_run(1);
  const double e2e_w4_s = e2e_run(4);
  const double e2e_mrps = static_cast<double>(e2e_records) / e2e_s / 1e6;
  const double e2e_w4_mrps = static_cast<double>(e2e_records) / e2e_w4_s / 1e6;
  std::printf("\nend-to-end (ParallelPipeline W=1): %.2f M records/s "
              "(%zu records in %.3f s)\n", e2e_mrps, e2e_records, e2e_s);
  std::printf("end-to-end (ParallelPipeline W=4): %.2f M records/s "
              "(%zu records in %.3f s)\n", e2e_w4_mrps, e2e_records, e2e_w4_s);

  // --- 4. zero-copy mmap feed vs the queue-copy path -----------------------
  // Same workload serialized as an on-disk .scdt trace, read back two ways:
  // TraceReader's per-record ifstream pull into ParallelPipeline W=1 (one
  // copy into the chunk staging, one through the BoundedQueue) versus
  // MappedTrace + feed_trace (decode in place from the mapping, add_record
  // into the serial pipeline on the same thread).
  double queue_path_s = 0.0;
  double mmap_path_s = 0.0;
  {
    common::Rng rng(17);
    std::vector<traffic::FlowRecord> flows(e2e_records);
    for (std::size_t i = 0; i < e2e_records; ++i) {
      flows[i].timestamp_us = static_cast<std::uint64_t>(
          static_cast<double>(i) / per_interval * 10.0 * 1e6);
      flows[i].dst_ip = static_cast<std::uint32_t>(rng.next_below(1u << 20));
      flows[i].bytes = static_cast<std::uint64_t>(rng.next_in(1, 1500));
    }
    const std::string trace_path =
        (std::filesystem::temp_directory_path() / "scd_bench_ingest.scdt")
            .string();
    traffic::write_trace(trace_path, flows);
    flows = {};  // the feeds below must not benefit from this copy
    queue_path_s = best_seconds(quick ? 1 : 3, [&] {
      ingest::ParallelConfig parallel;
      parallel.workers = 1;
      ingest::ParallelPipeline pipeline(config, parallel);
      traffic::TraceReader reader(trace_path);
      traffic::FlowRecord r;
      while (reader.next(r)) pipeline.add_record(r);
      pipeline.flush();
    });
    mmap_path_s = best_seconds(quick ? 1 : 3, [&] {
      core::ChangeDetectionPipeline pipeline(config);
      const eval::MappedTrace trace(trace_path);
      eval::feed_trace(trace, pipeline);
    });
    std::filesystem::remove(trace_path);
  }
  const double queue_mrps =
      static_cast<double>(e2e_records) / queue_path_s / 1e6;
  const double mmap_mrps = static_cast<double>(e2e_records) / mmap_path_s / 1e6;
  const double mmap_speedup = queue_path_s / mmap_path_s;
  std::printf("trace feed, queue-copy path (TraceReader -> W=1): %.2f M "
              "records/s\n", queue_mrps);
  std::printf("trace feed, zero-copy mmap path (feed_trace):     %.2f M "
              "records/s (%.2fx)\n", mmap_mrps, mmap_speedup);

  // --- checks + JSON -------------------------------------------------------
  bench::check(tables_equal,
               "batched UPDATE produced a bit-identical register table");
  if (vector_active) {
    // Threshold rationale (docs/PERFORMANCE.md "Batched UPDATE cost model"):
    // per-record and batched UPDATE both bottom out on the same ~2
    // hash-table misses per key, so the batched advantage — prefetching
    // future keys' table lines, row-concentrated adds, amortized loop
    // structure — lands at ~1.5x on hosts whose L2 does not hold the
    // 4.25 MB character tables. 1.3x asserts that entire win with noise
    // margin; a real regression (dropping prefetch or the row sweep) lands
    // near 1.0x and fails.
    bench::check(speedup >= 1.3,
                 "batched UPDATE beats per-record at H=5, K=4096 (vector host)",
                 common::str_format("%.2fx", speedup));
    const double axpy_ratio =
        kernel_gbs(kernels, "axpy", "dispatch", 4096) /
        kernel_gbs(kernels, "axpy", "scalar", 4096);
    const double hsum_ratio =
        kernel_gbs(kernels, "hsum", "dispatch", 4096) /
        kernel_gbs(kernels, "hsum", "scalar", 4096);
    bench::check(axpy_ratio >= 1.2 && hsum_ratio >= 1.5,
                 "dispatched kernels beat the scalar reference (vector host)",
                 common::str_format("axpy %.2fx, hsum %.2fx", axpy_ratio,
                                    hsum_ratio));
  } else {
    // Scalar dispatch: hash batching + locality still help; the batched
    // path must at least never be slower than per-record.
    bench::check(speedup >= 1.0,
                 "batched UPDATE does not regress under scalar dispatch",
                 common::str_format("%.2fx", speedup));
  }
  // The zero-copy path removes the queue hop and the per-record syscall
  // amortization entirely; anywhere it fails to win, the mmap feed is
  // broken. Hard-gated only with >= 2 cores: on one core the queue path's
  // producer and worker already run serialized, so the margin shrinks to
  // scheduler noise (same auto-skip policy as bench_parallel_ingest).
  if (std::thread::hardware_concurrency() >= 2) {
    bench::check(mmap_speedup >= 1.2,
                 "mmap feed_trace beats the TraceReader+queue path",
                 common::str_format("%.2fx", mmap_speedup));
  } else {
    bench::check(mmap_speedup >= 1.0,
                 "mmap feed_trace does not lose to the TraceReader+queue "
                 "path (single-core host: margin check skipped)",
                 common::str_format("%.2fx", mmap_speedup));
  }

  const char* json_path_env = std::getenv("SCD_BENCH_JSON");
  const std::string json_path =
      json_path_env != nullptr ? json_path_env : "BENCH_THROUGHPUT.json";
  if (std::FILE* f = std::fopen(json_path.c_str(), "w")) {
    std::fprintf(f, "{\n");
    std::fprintf(f,
                 "  \"host\": {\"isa\": \"%s\", \"cpu_avx2\": %s, "
                 "\"quick\": %s},\n",
                 isa, simd::cpu_supports_avx2() ? "true" : "false",
                 quick ? "true" : "false");
    std::fprintf(f, "  \"kernels_gb_per_s\": [\n");
    for (std::size_t i = 0; i < kernels.size(); ++i) {
      const KernelResult& r = kernels[i];
      std::fprintf(f,
                   "    {\"kernel\": \"%s\", \"backend\": \"%s\", "
                   "\"isa\": \"%s\", \"n\": %zu, \"gb_per_s\": %.3f}%s\n",
                   r.kernel.c_str(), r.backend.c_str(), r.isa.c_str(), r.n,
                   r.gb_per_s, i + 1 < kernels.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f,
                 "  \"update\": {\"h\": %zu, \"k\": %zu, \"updates\": %zu,\n"
                 "    \"per_record_mups\": %.3f, \"batched_mups\": %.3f, "
                 "\"batched_speedup\": %.3f},\n",
                 kH, kK, updates, per_record_mups, batched_mups, speedup);
    std::fprintf(f,
                 "  \"end_to_end\": {\"workers\": 1, \"records\": %zu, "
                 "\"m_records_per_s\": %.3f},\n",
                 e2e_records, e2e_mrps);
    std::fprintf(f,
                 "  \"end_to_end_w4\": {\"workers\": 4, \"records\": %zu, "
                 "\"m_records_per_s\": %.3f},\n",
                 e2e_records, e2e_w4_mrps);
    std::fprintf(f,
                 "  \"mmap_ingest\": {\"records\": %zu, "
                 "\"queue_m_records_per_s\": %.3f, "
                 "\"mmap_m_records_per_s\": %.3f, \"speedup\": %.3f}\n",
                 e2e_records, queue_mrps, mmap_mrps, mmap_speedup);
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  } else {
    std::printf("WARNING: could not write %s\n", json_path.c_str());
  }
  return bench::finish();
}
