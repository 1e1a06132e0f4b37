#include "obs/trace.h"

#include <chrono>

#include "common/mutex.h"
#include "common/strutil.h"
#include "obs/metrics.h"

namespace scd::obs {

namespace {

[[nodiscard]] std::size_t round_up_pow2(std::size_t v) {
  std::size_t p = 8;
  while (p < v) p <<= 1;
  return p;
}

[[nodiscard]] std::uint64_t steady_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

std::uint64_t trace_now_ns() noexcept {
  static const std::uint64_t anchor = steady_ns();
  return steady_ns() - anchor;
}

TraceRing::TraceRing(std::size_t capacity, std::uint32_t tid)
    : capacity_(round_up_pow2(capacity)),
      mask_(capacity_ - 1),
      tid_(tid),
      slots_(std::make_unique<Slot[]>(capacity_)) {}

void TraceRing::emit(const char* name, const char* category,
                     std::uint64_t start_ns, std::uint64_t dur_ns,
                     std::uint64_t arg, std::uint8_t phase) noexcept {
  // mo: single-writer ring — only the owning thread advances head_, so a
  // relaxed self-read is exact.
  const std::uint64_t pos = head_.load(std::memory_order_relaxed);
  Slot& slot = slots_[pos & mask_];
  // Seqlock write protocol: odd sequence while the payload is in flux, then
  // 2*(pos+1) once this generation's payload is complete. Payload words are
  // relaxed atomics bracketed by the release stores on seq, so a reader that
  // observes the same even sequence on both sides has a consistent event.
  // mo: seqlock entry — release so the odd marker is ordered before the
  // payload stores that follow it from the reader's perspective.
  slot.seq.store(2 * pos + 1, std::memory_order_release);
  // mo: payload words need no ordering among themselves; the seq stores
  // bracketing them carry the publication (seqlock waiver,
  // docs/CONCURRENCY.md).
  slot.word[0].store(reinterpret_cast<std::uint64_t>(name),
                     std::memory_order_relaxed);
  slot.word[1].store(reinterpret_cast<std::uint64_t>(category),
                     std::memory_order_relaxed);
  slot.word[2].store(start_ns, std::memory_order_relaxed);
  slot.word[3].store(dur_ns, std::memory_order_relaxed);
  slot.word[4].store(arg, std::memory_order_relaxed);
  slot.word[5].store(static_cast<std::uint64_t>(tid_) |
                         (static_cast<std::uint64_t>(phase) << 32),
                     std::memory_order_relaxed);
  // mo: seqlock exit — release publishes the completed payload under the
  // even generation number; head_'s release pairs with emitted()/snapshot.
  slot.seq.store(2 * (pos + 1), std::memory_order_release);
  head_.store(pos + 1, std::memory_order_release);
}

std::size_t TraceRing::snapshot_into(std::vector<TraceEvent>& out) const {
  // mo: pairs with emit()'s release on head_ — everything emitted before
  // the observed head is visible below.
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  const std::uint64_t retained =
      head < capacity_ ? head : static_cast<std::uint64_t>(capacity_);
  const std::uint64_t first = head - retained;
  std::size_t appended = 0;
  for (std::uint64_t g = first; g < head; ++g) {
    const Slot& slot = slots_[g & mask_];
    const std::uint64_t want = 2 * (g + 1);
    // mo: seqlock read entry — acquire orders the payload reads after the
    // first sequence check.
    const std::uint64_t s1 = slot.seq.load(std::memory_order_acquire);
    if (s1 != want) continue;  // overwritten or mid-write: skip, never tear
    TraceEvent ev;
    // mo: payload reads are relaxed; validity is decided by the seq
    // recheck below, torn candidates are discarded (seqlock waiver).
    ev.name = reinterpret_cast<const char*>(
        slot.word[0].load(std::memory_order_relaxed));
    ev.category = reinterpret_cast<const char*>(
        slot.word[1].load(std::memory_order_relaxed));
    ev.start_ns = slot.word[2].load(std::memory_order_relaxed);
    ev.dur_ns = slot.word[3].load(std::memory_order_relaxed);
    ev.arg = slot.word[4].load(std::memory_order_relaxed);
    const std::uint64_t packed = slot.word[5].load(std::memory_order_relaxed);
    ev.tid = static_cast<std::uint32_t>(packed & 0xffffffffu);
    ev.phase = static_cast<std::uint8_t>(packed >> 32);
    // mo: seqlock read exit — the acquire fence orders the payload reads
    // before the recheck; a changed sequence means the writer interfered.
    std::atomic_thread_fence(std::memory_order_acquire);
    const std::uint64_t s2 = slot.seq.load(std::memory_order_relaxed);
    if (s2 != want) continue;  // writer lapped us mid-read
    out.push_back(ev);
    ++appended;
  }
  return appended;
}

namespace {
// Monotonic controller-instance id: distinguishes a fresh controller reusing
// the address of a destroyed one, so thread-local ring caches never go stale.
std::atomic<std::uint64_t> g_controller_epoch{1};  // fetch_add only
}  // namespace

TraceController::TraceController(MetricsRegistry* registry)
    // mo: unique-id allocation — only atomicity of the increment matters.
    : epoch_(g_controller_epoch.fetch_add(1, std::memory_order_relaxed)),
      registry_(registry) {
  if (registry_ != nullptr) {
    instruments_ = std::make_unique<TraceInstruments>(TraceInstruments{
        registry_->counter("scd_trace_spans_total",
                           "Trace events recorded into per-thread rings"),
        registry_->counter("scd_trace_dropped_total",
                           "Trace events overwritten by ring wrap"),
        registry_->gauge("scd_trace_rings",
                         "Per-thread trace rings registered"),
    });
  }
}

TraceController& TraceController::global() {
  // Leaked intentionally: shard workers and the flight-recorder thread may
  // still emit during process teardown.
  static auto* controller = new TraceController(&MetricsRegistry::global());
  return *controller;
}

void TraceController::set_ring_capacity(std::size_t capacity) {
  const common::MutexLock lock(mutex_);
  ring_capacity_ = capacity < 8 ? 8 : capacity;
}

TraceRing& TraceController::ring_for_current_thread() {
  // Cache keyed on (controller, epoch) so a thread that outlives one test's
  // controller re-registers with the next instead of writing into freed
  // memory.
  struct Cache {
    const TraceController* owner = nullptr;
    std::uint64_t epoch = 0;
    TraceRing* ring = nullptr;
  };
  thread_local Cache cache;
  if (cache.owner == this && cache.epoch == epoch_ && cache.ring != nullptr) {
    return *cache.ring;
  }
  const common::MutexLock lock(mutex_);
  auto ring = std::make_unique<TraceRing>(
      ring_capacity_, static_cast<std::uint32_t>(rings_.size()));
  TraceRing* raw = ring.get();
  rings_.push_back(std::move(ring));
  if (instruments_ != nullptr) {
    instruments_->rings.set(static_cast<double>(rings_.size()));
  }
  cache = Cache{this, epoch_, raw};
  return *raw;
}

TraceController::Snapshot TraceController::snapshot() {
  Snapshot snap;
  const common::MutexLock lock(mutex_);
  for (const auto& ring : rings_) {
    ring->snapshot_into(snap.events);
    snap.emitted += ring->emitted();
    snap.dropped += ring->dropped();
  }
  if (instruments_ != nullptr) {
    if (snap.emitted > synced_spans_) {
      instruments_->spans.inc(snap.emitted - synced_spans_);
      synced_spans_ = snap.emitted;
    }
    if (snap.dropped > synced_dropped_) {
      instruments_->dropped.inc(snap.dropped - synced_dropped_);
      synced_dropped_ = snap.dropped;
    }
  }
  return snap;
}

void trace_instant(const char* name, const char* category,
                   std::uint64_t arg) noexcept {
  TraceController& controller = TraceController::global();
  if (!controller.enabled()) return;
  controller.ring_for_current_thread().emit(name, category, trace_now_ns(), 0,
                                            arg, 1);
}

std::string to_chrome_trace(const TraceController::Snapshot& snapshot) {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& ev : snapshot.events) {
    if (!first) out += ",";
    first = false;
    const double ts_us = static_cast<double>(ev.start_ns) / 1e3;
    const double dur_us = static_cast<double>(ev.dur_ns) / 1e3;
    out += "{\"name\":\"";
    out += ev.name != nullptr ? ev.name : "?";
    out += "\",\"cat\":\"";
    out += ev.category != nullptr ? ev.category : "?";
    out += "\",\"ph\":\"";
    out += ev.phase == 0 ? "X" : "i";
    out += "\",\"pid\":1,\"tid\":";
    out += std::to_string(ev.tid);
    out += common::str_format(",\"ts\":%.3f", ts_us);
    if (ev.phase == 0) {
      out += common::str_format(",\"dur\":%.3f", dur_us);
    } else {
      out += ",\"s\":\"t\"";
    }
    out += ",\"args\":{\"arg\":";
    out += std::to_string(ev.arg);
    out += "}}";
  }
  out += "]}";
  return out;
}

}  // namespace scd::obs
