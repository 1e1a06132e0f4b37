// The benchmark's three workloads and the pieces they share.
#pragma once

#include <cstdint>
#include <vector>

#include "bench.h"
#include "forecast/model_config.h"
#include "gridsearch/grid_search.h"
#include "sketch/kary_sketch.h"
#include "traffic/flow_record.h"

namespace perfbench {

RunResult run_edge_replay(const RunArgs& args);
RunResult run_core_sharded_mv(const RunArgs& args);
RunResult run_fleet_ckpt(const RunArgs& args);

/// Setup repetitions per run; setup_s is their median.
inline constexpr int kSetupReps = 5;
/// Passes of the timed phase: at least kMinPasses, then more until
/// --seconds of timed work have elapsed, at most kMaxPasses.
inline constexpr std::size_t kMinPasses = 3;
inline constexpr std::size_t kMaxPasses = 40;
/// Intervals of the training prefix the model is fitted on (§3.4).
inline constexpr std::size_t kTrainingIntervals = 24;
/// Records per span of per-record calls in a traced pass.
inline constexpr std::size_t kSpanBlock = 4096;

/// Deterministic 64-bit seed derived from the benchmark's --seed.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed,
                                        std::uint64_t stream);

/// (key, update) items of each training interval on the pipeline's grid.
[[nodiscard]] std::vector<std::vector<scd::sketch::Record>> training_prefix(
    const std::vector<traffic::FlowRecord>& records, double interval_s,
    traffic::KeyKind key_kind, std::size_t intervals);

struct Fit {
  forecast::ModelConfig model;
  std::size_t evaluations = 0;
  double fit_s = 0.0;  // grid search alone
};

/// The paper's §3.4 fit: sketch each training interval at (h, k), then grid
/// search `kind` for the parameters minimizing the summed ESTIMATEF2 of the
/// forecast-error sketches.
[[nodiscard]] Fit fit_model(
    forecast::ModelKind kind,
    const std::vector<std::vector<scd::sketch::Record>>& training,
    bool key_fits_32bit, std::size_t h, std::size_t k, std::uint64_t seed);

/// Runs `one_pass(i)` -> Pass for the timed phase (see kMinPasses).
template <typename OnePass>
std::vector<Pass> timed_passes(double seconds, OnePass&& one_pass) {
  std::vector<Pass> passes;
  double elapsed = 0.0;
  while (passes.size() < kMaxPasses &&
         (passes.size() < kMinPasses || elapsed < seconds)) {
    passes.push_back(one_pass(passes.size()));
    elapsed += passes.back().seconds;
  }
  return passes;
}

/// Per-layer metrics of the benchmark's own path, from a traced pass:
/// writes the spans, prints each span name's self time, and sets
/// obs.trace_overhead_pct (traced pass against the median untraced pass)
/// and the set-up fit's gridsearch.* metrics.
void report_traced(const RunArgs& args, const SpanRecorder& spans,
                   double traced_s, const std::vector<Pass>& passes,
                   const std::vector<double>& fit_s, const Fit& fit,
                   Metrics& out);

/// One ledger term: a per-call layer metric of the probe (in ns, us or ms)
/// times the number of such calls in one pass.
struct LedgerTerm {
  const char* metric;
  double calls;
};
/// Layer calls that run one after another on one thread of the pass.
struct LedgerStage {
  const char* name;
  std::vector<LedgerTerm> terms;
};

/// Sets ledger.coverage: the summed layer cost of the slowest stage (the
/// blocking path), predicted from the probe's per-call metrics, over the
/// median untraced pass. Prints every term. Work no probed layer accounts
/// for (engine bookkeeping, the benchmark's loop, cache misses the probes
/// do not see) shows as coverage below 1.
void report_ledger(const std::vector<LedgerStage>& stages,
                   const std::vector<Pass>& passes, Metrics& out);

}  // namespace perfbench
