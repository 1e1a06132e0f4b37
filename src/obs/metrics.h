// Process-wide metrics substrate for the change-detection pipeline.
//
// Three primitives, modeled on the Prometheus data model:
//   Counter   — monotonically increasing u64 (records fed, alarms raised)
//   Gauge     — instantaneous double (replay-buffer occupancy, sketch bytes)
//   Histogram — fixed-bucket latency distribution with cumulative bucket
//               counts, sum, and count (per-stage timings)
//
// Design constraints (the pipeline's hot path calls these per record):
//   * All mutation is lock-free: relaxed atomic fetch_add for counters and
//     histogram buckets, a CAS loop for double accumulation. Reads taken
//     for exposition are racy-but-coherent per field, which is the standard
//     contract for monitoring data.
//   * Metrics are pre-registered: registration (the only locking, allocating
//     path) happens once at startup / pipeline construction; afterwards the
//     caller holds a stable reference and add_record never allocates.
//   * Instances are identified by (name, labels). Registering the same
//     identity twice returns the same instance; the same name with different
//     labels joins the same family (one HELP/TYPE block, many samples).
//
// The one off switch is at runtime (PipelineConfig::metrics and its
// siblings): an instrument that is not wired costs a null-pointer test.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace scd::obs {

enum class MetricType { kCounter, kGauge, kHistogram };

/// Sorted (key, value) pairs identifying one instance within a family.
using Labels = std::vector<std::pair<std::string, std::string>>;

class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept {
    // mo: independent monotone counter — no other state is published with
    // it, so relaxed increments are exact and exposition reads coherent.
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    // mo: monitoring read — a point-in-time sample, no ordering required.
    return value_.load(std::memory_order_relaxed);
  }

 private:
  friend class MetricsRegistry;
  Counter() = default;
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  // mo: last-writer-wins sample of an independent scalar; nothing is
  // ordered against it.
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  void add(double delta) noexcept {
    // mo: CAS loop only needs atomicity of the read-modify-write itself;
    // the gauge value carries no happens-before obligations.
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] double value() const noexcept {
    // mo: monitoring read — a point-in-time sample, no ordering required.
    return value_.load(std::memory_order_relaxed);
  }

 private:
  friend class MetricsRegistry;
  Gauge() = default;
  std::atomic<double> value_{0.0};
};

class Histogram {
 public:
  /// Default buckets for stage latencies: 100 ns .. 10 s, roughly 1-2.5-5
  /// per decade. Covers a sampled 30 ns sketch UPDATE through a multi-second
  /// grid-search re-fit.
  [[nodiscard]] static std::vector<double> default_latency_buckets();

  void observe(double v) noexcept {
    // Upper bounds are sorted; linear scan beats binary search for the
    // small fixed bucket counts used here and is branch-predictor friendly
    // (stage latencies cluster in one or two buckets).
    std::size_t i = 0;
    while (i < bounds_.size() && v > bounds_[i]) ++i;
    // mo: bucket/count/sum are each exact under relaxed increments; a
    // scrape may see them mid-update (count ahead of sum), which is the
    // accepted monitoring contract — no cross-field ordering is promised.
    buckets_[i].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    double cur = sum_.load(std::memory_order_relaxed);
    while (!sum_.compare_exchange_weak(cur, cur + v,
                                       std::memory_order_relaxed)) {
    }
  }

  [[nodiscard]] std::uint64_t count() const noexcept {
    // mo: monitoring read — a point-in-time sample, no ordering required.
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const noexcept {
    // mo: monitoring read — a point-in-time sample, no ordering required.
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double mean() const noexcept {
    const std::uint64_t n = count();
    return n == 0 ? 0.0 : sum() / static_cast<double>(n);
  }

  /// Upper bucket bounds (exclusive of the implicit +Inf bucket).
  [[nodiscard]] const std::vector<double>& bounds() const noexcept {
    return bounds_;
  }
  /// Non-cumulative count of observations in bucket i; index bounds().size()
  /// is the +Inf overflow bucket.
  [[nodiscard]] std::uint64_t bucket_count(std::size_t i) const noexcept {
    // mo: monitoring read — a point-in-time sample, no ordering required.
    return buckets_[i].load(std::memory_order_relaxed);
  }

  /// Estimates the q-quantile (q in [0, 1]) by linear interpolation inside
  /// the bucket containing the target rank — the same estimate
  /// histogram_quantile() computes server-side in Prometheus. Observations
  /// in the +Inf bucket clamp to the largest finite bound. Returns 0 when
  /// empty.
  [[nodiscard]] double quantile(double q) const noexcept;

 private:
  friend class MetricsRegistry;
  explicit Histogram(std::vector<double> bounds);
  std::vector<double> bounds_;  // strictly increasing upper bounds
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;  // bounds+1 (+Inf)
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// One registered instance: its identifying labels plus exactly one of the
/// three metric pointers (matching the family's type).
struct MetricInstance {
  Labels labels;
  const Counter* counter = nullptr;
  const Gauge* gauge = nullptr;
  const Histogram* histogram = nullptr;
};

/// One metric family: every instance sharing a name, help text, and type.
struct FamilyView {
  std::string name;
  std::string help;
  MetricType type;
  std::vector<MetricInstance> instances;
};

class MetricsRegistry {
 public:
  MetricsRegistry();
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry the pipeline instruments register against.
  [[nodiscard]] static MetricsRegistry& global();

  /// Registration: finds or creates the (name, labels) instance. Throws
  /// std::invalid_argument on an invalid metric name ([a-zA-Z_:][a-zA-Z0-9_:]*)
  /// or when `name` is already registered with a different type. Returned
  /// references stay valid for the registry's lifetime.
  Counter& counter(const std::string& name, const std::string& help,
                   Labels labels = {}) SCD_EXCLUDES(mutex_);
  Gauge& gauge(const std::string& name, const std::string& help,
               Labels labels = {}) SCD_EXCLUDES(mutex_);
  /// `bounds` must be strictly increasing; pass
  /// Histogram::default_latency_buckets() for stage timings. Bounds must
  /// match any prior registration of the same family.
  Histogram& histogram(const std::string& name, const std::string& help,
                       std::vector<double> bounds, Labels labels = {})
      SCD_EXCLUDES(mutex_);

  /// Stable snapshot of the family structure, sorted by name (instances in
  /// registration order). Values are read live through the pointers.
  [[nodiscard]] std::vector<FamilyView> families() const
      SCD_EXCLUDES(mutex_);

  [[nodiscard]] std::size_t family_count() const SCD_EXCLUDES(mutex_);

 private:
  struct Family;
  Family& find_or_create_locked(const std::string& name,
                                const std::string& help, MetricType type)
      SCD_REQUIRES(mutex_);

  // Guards the family/instance structure, not the metric values (those are
  // lock-free atomics mutated through stable references).
  mutable common::Mutex mutex_;
  std::vector<std::unique_ptr<Family>> families_ SCD_GUARDED_BY(mutex_);
};

}  // namespace scd::obs
