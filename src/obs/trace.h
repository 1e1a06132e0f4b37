// Structured span tracing for the change-detection pipeline.
//
// Complements the metrics layer (obs/metrics.h): metrics answer "how much /
// how fast" in aggregate, spans answer "what happened inside interval 4812"
// — one timestamped (name, category, start, duration) event per pipeline
// stage execution, exportable as Chrome trace-event JSON that loads directly
// in Perfetto / chrome://tracing.
//
// Design constraints:
//   * Span emission sits on the interval-close path of every shard worker,
//     so recording is lock-free: each thread owns a private ring buffer
//     (single writer), and every slot carries a seqlock-style sequence word
//     so a concurrent snapshot reader can detect and discard in-flight or
//     overwritten slots — no torn spans, ever. Slot payloads are relaxed
//     atomic words, so the protocol is data-race-free under TSan, not just
//     "benign-race" correct.
//   * The rings are bounded: when a ring wraps, the oldest spans are
//     overwritten and counted (`dropped() = emitted - capacity`), which
//     makes drop accounting deterministic for a quiesced ring.
//   * Disabled tracing costs one relaxed atomic load per span site (the
//     controller's enabled flag); timestamps are only taken when enabled.
//   * A timed stage emits its span through obs::ScopedTimer, which hands the
//     span the same clock reading it records (obs/scoped_timer.h); TraceSpan
//     and the macros below serve scopes that are traced but not timed.
//
// Span names and categories must be string literals (or otherwise have
// static storage duration): the ring stores the pointers, not copies.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"

namespace scd::obs {

/// One recorded event. `start_ns`/`dur_ns` are nanoseconds on the process
/// monotonic clock (trace_now_ns); `arg` is a free-form per-span payload
/// (batch size, interval index, ...).
struct TraceEvent {
  const char* name = nullptr;      // static-duration string
  const char* category = nullptr;  // static-duration string
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
  std::uint64_t arg = 0;
  std::uint32_t tid = 0;      // ring id assigned at registration
  std::uint8_t phase = 0;     // 0 = complete span ("X"), 1 = instant ("i")
};

/// Nanoseconds since the process trace epoch (monotonic; steady_clock).
[[nodiscard]] std::uint64_t trace_now_ns() noexcept;

/// Single-writer bounded span ring with seqlock slots. The owning thread
/// calls emit(); any thread may snapshot concurrently and will observe only
/// fully written slots.
class TraceRing {
 public:
  /// `capacity` is rounded up to a power of two (minimum 8). `tid` is the
  /// identity stamped on every event (Chrome "tid").
  TraceRing(std::size_t capacity, std::uint32_t tid);
  TraceRing(const TraceRing&) = delete;
  TraceRing& operator=(const TraceRing&) = delete;

  /// Records one event. Writer-thread only.
  void emit(const char* name, const char* category, std::uint64_t start_ns,
            std::uint64_t dur_ns, std::uint64_t arg,
            std::uint8_t phase) noexcept;

  /// Total events ever emitted (monotonic).
  [[nodiscard]] std::uint64_t emitted() const noexcept {
    // mo: pairs with emit()'s release store on head_ — a reader that sees
    // head == h also sees the h slots published before it.
    return head_.load(std::memory_order_acquire);
  }
  /// Events lost to ring wrap: emitted() minus what the ring can retain.
  /// Deterministic once the writer has quiesced.
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    const std::uint64_t e = emitted();
    return e > capacity_ ? e - capacity_ : 0;
  }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::uint32_t tid() const noexcept { return tid_; }

  /// Appends every retained, consistently-read event to `out` in emission
  /// order; slots concurrently being rewritten are skipped. Returns the
  /// number of events appended.
  std::size_t snapshot_into(std::vector<TraceEvent>& out) const;

 private:
  // Payload is stored as relaxed atomic words bracketed by the slot's
  // sequence: odd while the writer is inside, 2*(generation+1) when slot
  // holds that generation's complete payload.
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> seq{0};
    std::array<std::atomic<std::uint64_t>, 6> word{};
  };

  std::size_t capacity_;  // power of two
  std::uint64_t mask_;
  std::uint32_t tid_;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<std::uint64_t> head_{0};  // events emitted
};

/// Registry of per-thread rings plus the runtime on/off switch. One global
/// instance serves the whole process (the CLIs flip it on for --trace-out);
/// tests construct private controllers.
class TraceController {
 public:
  /// `registry` receives the scd_trace_* counters on snapshot (null = no
  /// metric sync; the global controller uses MetricsRegistry::global()).
  explicit TraceController(MetricsRegistry* registry = nullptr);

  TraceController(const TraceController&) = delete;
  TraceController& operator=(const TraceController&) = delete;

  [[nodiscard]] static TraceController& global();

  void set_enabled(bool enabled) noexcept {
    // mo: independent on/off flag — span sites may observe the flip late
    // by design; no other state is published through it.
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  [[nodiscard]] bool enabled() const noexcept {
    // mo: hot-path probe of the independent on/off flag (see set_enabled).
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Capacity (events) for rings registered from now on; existing rings keep
  /// theirs. Default 8192 per thread.
  void set_ring_capacity(std::size_t capacity) SCD_EXCLUDES(mutex_);

  /// The calling thread's ring, registered on first use. Rings outlive their
  /// threads (the controller keeps them) so a post-join snapshot still sees
  /// every worker's spans.
  [[nodiscard]] TraceRing& ring_for_current_thread() SCD_EXCLUDES(mutex_);

  struct Snapshot {
    std::vector<TraceEvent> events;  // emission order per tid
    std::uint64_t emitted = 0;       // across all rings, lifetime
    std::uint64_t dropped = 0;       // lost to ring wrap, lifetime
  };

  /// Collects every ring's retained events plus lifetime counters, and (when
  /// a registry was supplied) syncs the scd_trace_* metrics by delta.
  [[nodiscard]] Snapshot snapshot() SCD_EXCLUDES(mutex_);

 private:
  struct TraceInstruments {
    Counter& spans;
    Counter& dropped;
    Gauge& rings;
  };

  std::atomic<bool> enabled_{false};
  const std::uint64_t epoch_;  // invalidates thread-local ring caches
  MetricsRegistry* registry_;

  common::Mutex mutex_;  // guards registration/metric sync, never emit()
  std::vector<std::unique_ptr<TraceRing>> rings_ SCD_GUARDED_BY(mutex_);
  std::size_t ring_capacity_ SCD_GUARDED_BY(mutex_) = 8192;
  std::unique_ptr<TraceInstruments> instruments_;  // written in ctor only
  std::uint64_t synced_spans_ SCD_GUARDED_BY(mutex_) = 0;
  std::uint64_t synced_dropped_ SCD_GUARDED_BY(mutex_) = 0;
};

/// RAII complete-span recorder. Construction samples the clock only when the
/// controller is enabled; destruction emits the span into the calling
/// thread's ring.
class TraceSpan {
 public:
  TraceSpan(const char* name, const char* category,
            std::uint64_t arg = 0) noexcept
      : TraceSpan(TraceController::global(), name, category, arg) {}

  TraceSpan(TraceController& controller, const char* name,
            const char* category, std::uint64_t arg = 0) noexcept {
    if (!controller.enabled()) return;
    ring_ = &controller.ring_for_current_thread();
    name_ = name;
    category_ = category;
    arg_ = arg;
    start_ns_ = trace_now_ns();
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Replaces the span's argument (for counts only known at scope end).
  void set_arg(std::uint64_t arg) noexcept { arg_ = arg; }

  ~TraceSpan() {
    if (ring_ == nullptr) return;
    ring_->emit(name_, category_, start_ns_, trace_now_ns() - start_ns_, arg_,
                0);
  }

 private:
  TraceRing* ring_ = nullptr;  // null = tracing was disabled at entry
  const char* name_ = nullptr;
  const char* category_ = nullptr;
  std::uint64_t start_ns_ = 0;
  std::uint64_t arg_ = 0;
};

/// Records a zero-duration instant event on the global controller.
void trace_instant(const char* name, const char* category,
                   std::uint64_t arg = 0) noexcept;

/// Renders a snapshot as Chrome trace-event JSON ("traceEvents" array of
/// "X"/"i" phase events, microsecond timestamps) — loadable in Perfetto and
/// chrome://tracing, and validated by scripts/trace_check.py.
[[nodiscard]] std::string to_chrome_trace(
    const TraceController::Snapshot& snapshot);

}  // namespace scd::obs

#define SCD_TRACE_CONCAT_IMPL(a, b) a##b
#define SCD_TRACE_CONCAT(a, b) SCD_TRACE_CONCAT_IMPL(a, b)
/// Traces the enclosing scope as a complete span on the global controller.
#define SCD_TRACE_SPAN(name, category)                               \
  ::scd::obs::TraceSpan SCD_TRACE_CONCAT(scd_trace_span_, __LINE__)( \
      (name), (category))
#define SCD_TRACE_SPAN_ARG(name, category, arg)                      \
  ::scd::obs::TraceSpan SCD_TRACE_CONCAT(scd_trace_span_, __LINE__)( \
      (name), (category), static_cast<std::uint64_t>(arg))
#define SCD_TRACE_INSTANT(name, category, arg) \
  ::scd::obs::trace_instant((name), (category), static_cast<std::uint64_t>(arg))
