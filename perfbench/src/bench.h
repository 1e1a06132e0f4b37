// Shared plumbing of the detection benchmark: clocks, process counters,
// the in-memory span recorder behind the traced run, metric collection and
// the result line the benchmark prints last.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "eval/ground_truth.h"
#include "forecast/model_config.h"

namespace perfbench {

namespace core = scd::core;
namespace eval = scd::eval;
namespace forecast = scd::forecast;
namespace traffic = scd::traffic;

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

[[nodiscard]] inline double to_ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

/// Linear-interpolated q-quantile (q in [0, 1]); 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}
/// Interquartile range as a share of the median (0 when the median is 0).
[[nodiscard]] double relative_iqr(const std::vector<double>& v);

/// Process user+sys CPU seconds so far.
[[nodiscard]] double process_cpu_s();
/// Resets the kernel's RSS high-water mark (VmHWM) to the current RSS.
void reset_peak_rss();
/// VmHWM in MiB.
[[nodiscard]] double peak_rss_mb();

/// Ordered name -> (value, unit) collection, printed as the result line.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] const std::map<std::string, std::pair<double, std::string>>&
  all() const noexcept {
    return values_;
  }

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
};

/// Everything one benchmark process reports.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;  // intervals expected from the reference
  std::uint64_t failed = 0;     // intervals missing, repeated or mismatched
  Metrics metrics;
};

/// Prints `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}` as one
/// line on stdout.
void print_result(const RunResult& result);

/// In-memory span recorder of the traced run: name, start, end, parent.
/// Self time excludes the recorder's own clock read, calibrated at
/// construction.
class SpanRecorder {
 public:
  static constexpr std::uint32_t kNoParent = 0xffffffffu;

  SpanRecorder();

  /// Opens a span and returns its id; close it with end().
  std::uint32_t begin(const char* name, std::uint32_t parent = kNoParent);
  void end(std::uint32_t id);
  /// Records an already-measured span.
  std::uint32_t add(const char* name, Clock::time_point start,
                    Clock::time_point stop, std::uint32_t parent = kNoParent);

  /// Self time (span minus the children it covers) per span name, in
  /// seconds.
  [[nodiscard]] std::map<std::string, double> self_seconds() const;
  /// Writes one tab-separated line per span: id, parent, name, start_ns,
  /// end_ns.
  void write_tsv(const std::filesystem::path& path) const;

 private:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::uint32_t parent;
  };
  [[nodiscard]] std::int64_t ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }
  Clock::time_point origin_;
  double clock_ns_ = 0.0;  // cost of one Clock::now()
  std::vector<Span> spans_;
};

/// Interval-level bookkeeping every workload shares: the moment work for an
/// interval was handed over and the moment its report arrived. Reports may
/// arrive on another thread; each slot is written by one thread only.
struct LagClock {
  explicit LagClock(std::size_t intervals)
      : handover(intervals), reported(intervals) {}
  std::vector<Clock::time_point> handover;
  std::vector<Clock::time_point> reported;
  /// Lags in ms for every interval that has both stamps.
  [[nodiscard]] std::vector<double> lags_ms() const;
};

/// Compares a run's reports with the reference feed's: each index reported
/// once, in order, with equal alarm keys and errors. Prints every mismatch
/// with its interval and returns the number of bad intervals.
std::uint64_t compare_reports(const char* what,
                              const std::vector<core::IntervalReport>& got,
                              const std::vector<core::IntervalReport>& want,
                              double rel_tol);

/// Fraction of labelled anomalies whose target (the destination half of the
/// alarm key) is alarmed in an interval overlapping the anomaly window,
/// extended by one interval for the recovery change.
[[nodiscard]] double anomaly_recall(
    const std::vector<core::IntervalReport>& reports,
    const std::vector<eval::LabeledAnomaly>& labels, double interval_s);

/// §5.2.1 top-N similarity between the sketch path and the exact per-flow
/// errors of the same records, averaged over ready intervals from `warmup`.
[[nodiscard]] double topn_similarity(
    const std::vector<traffic::FlowRecord>& records, double interval_s,
    traffic::KeyKind key_kind, const forecast::ModelConfig& model,
    std::size_t h, std::size_t k, std::uint64_t hash_seed, std::size_t warmup,
    std::size_t n);

/// One closed-loop pass of a workload's timed phase over its whole input,
/// on freshly constructed pipelines.
struct Pass {
  double seconds = 0.0;  // first record handed over to the final flush
  double cpu_s = 0.0;    // process user+sys CPU over the same span
  std::uint64_t records = 0;
  std::vector<double> lags_ms;  // one per interval
};

/// What the end-to-end metrics are computed from. Timings are medians over
/// the passes of the timed phase.
struct EndToEnd {
  std::vector<Pass> passes;
  std::vector<double> setup_reps_s;
  double peak_rss_mb = 0.0;
  double anomaly_recall = 0.0;
  double topn_similarity = 0.0;
};
void fill_end_to_end(const EndToEnd& e, RunResult& result);

/// Arguments every workload receives.
struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;  // tiny inputs: checks the metric set, not speed
  std::filesystem::path work_dir;
};

/// Host facts printed before the result.
void print_host_facts();

/// Mean cost in ns of one random 8-byte read from a 32 MiB buffer: a
/// reading of the host's memory speed, which other tenants of a shared
/// machine move, not of the library.
[[nodiscard]] double host_random_read_ns();

/// Info line on stdout (never the last line).
void info(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace perfbench
