// RAII stage timer: the one way a stage is timed. It reads the clock once at
// construction and once at stop(), and that single reading feeds every sink:
//   * the elapsed seconds are added to one slot (a report's stage record, a
//     per-instance total);
//   * an optional latency histogram observes them;
//   * when tracing is enabled, the span is emitted with the same start and
//     duration, so a span's length and the recorded seconds never disagree.
// A timer with no slot, no histogram and no live span never reads the clock.
#pragma once

#include <cstdint>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace scd::obs {

class ScopedTimer {
 public:
  /// Every sink may be null. `span` and `category` must be string literals
  /// (the trace ring stores the pointers); a null `span` traces nothing.
  explicit ScopedTimer(Histogram* histogram, double* seconds = nullptr,
                       const char* span = nullptr,
                       const char* category = nullptr,
                       std::uint64_t arg = 0) noexcept
      : histogram_(histogram),
        seconds_(seconds),
        span_(span),
        category_(category),
        arg_(arg) {
    if (span_ != nullptr) {
      TraceController& tracer = TraceController::global();
      if (tracer.enabled()) ring_ = &tracer.ring_for_current_thread();
    }
    running_ = histogram_ != nullptr || seconds_ != nullptr || ring_ != nullptr;
    if (running_) start_ns_ = trace_now_ns();
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  ~ScopedTimer() { stop(); }

  /// Ends the measurement early and returns the elapsed seconds (0 for a
  /// timer with no sinks). Later calls, the destructor's included, return
  /// the same value and feed no sink again.
  double stop() noexcept {
    if (!running_) return elapsed_;
    running_ = false;
    const std::uint64_t dur_ns = trace_now_ns() - start_ns_;
    elapsed_ = static_cast<double>(dur_ns) * 1e-9;
    if (seconds_ != nullptr) *seconds_ += elapsed_;
    if (histogram_ != nullptr) histogram_->observe(elapsed_);
    if (ring_ != nullptr) {
      ring_->emit(span_, category_, start_ns_, dur_ns, arg_, 0);
    }
    return elapsed_;
  }

 private:
  Histogram* histogram_;
  double* seconds_;
  const char* span_;
  const char* category_;
  std::uint64_t arg_;
  TraceRing* ring_ = nullptr;  // null = no span (none named, or tracing off)
  std::uint64_t start_ns_ = 0;
  bool running_ = false;
  double elapsed_ = 0.0;
};

}  // namespace scd::obs
