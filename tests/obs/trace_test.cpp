// Trace-ring and controller tests (label "concurrency": the torn-span
// invariant and drop accounting are exactly what TSan + the seqlock
// protocol must uphold under concurrent emit/snapshot).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "obs/exposition.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace scd::obs {
namespace {

TEST(TraceRing, RetainsEmittedEventsInOrder) {
  TraceRing ring(16, 3);
  for (std::uint64_t i = 0; i < 10; ++i) {
    ring.emit("span", "cat", i * 100, 7, i, 0);
  }
  EXPECT_EQ(ring.emitted(), 10u);
  EXPECT_EQ(ring.dropped(), 0u);

  std::vector<TraceEvent> events;
  ASSERT_EQ(ring.snapshot_into(events), 10u);
  for (std::uint64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(events[i].start_ns, i * 100);
    EXPECT_EQ(events[i].arg, i);
    EXPECT_EQ(events[i].tid, 3u);
  }
}

TEST(TraceRing, WrapDropsOldestWithDeterministicAccounting) {
  TraceRing ring(8, 0);
  ASSERT_EQ(ring.capacity(), 8u);
  for (std::uint64_t i = 0; i < 20; ++i) {
    ring.emit("span", "cat", i, 0, i, 0);
  }
  EXPECT_EQ(ring.emitted(), 20u);
  EXPECT_EQ(ring.dropped(), 12u);  // emitted - capacity, exactly

  std::vector<TraceEvent> events;
  ASSERT_EQ(ring.snapshot_into(events), 8u);
  // The retained window is the newest capacity() events, still in order.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].arg, 12 + i);
  }
}

// The seqlock invariant: a reader snapshotting while the writer wraps the
// ring at full speed must never observe a torn event. Every emitted event
// satisfies dur = 2*start + 1 and arg = 3*start + 2; any mixed-generation
// read breaks at least one relation.
TEST(TraceRing, ConcurrentSnapshotNeverSeesTornSpans) {
  TraceRing ring(16, 1);
  std::atomic<bool> stop{false};

  std::thread writer([&] {
    std::uint64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      ring.emit("span", "cat", i, 2 * i + 1, 3 * i + 2, 0);
      ++i;
    }
  });

  std::vector<TraceEvent> events;
  for (int round = 0; round < 2000; ++round) {
    events.clear();
    // A full-speed writer may overwrite every slot mid-read (the reader is
    // allowed to return nothing then); what it may never do is let a torn
    // event through.
    ring.snapshot_into(events);
    for (const TraceEvent& e : events) {
      ASSERT_EQ(e.dur_ns, 2 * e.start_ns + 1)
          << "torn span at start=" << e.start_ns;
      ASSERT_EQ(e.arg, 3 * e.start_ns + 2)
          << "torn span at start=" << e.start_ns;
    }
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();

  // Quiesced: the snapshot is complete and deterministic.
  events.clear();
  const std::size_t read = ring.snapshot_into(events);
  EXPECT_EQ(read, std::min<std::uint64_t>(ring.emitted(), ring.capacity()));
  for (const TraceEvent& e : events) {
    ASSERT_EQ(e.dur_ns, 2 * e.start_ns + 1);
    ASSERT_EQ(e.arg, 3 * e.start_ns + 2);
  }
}

TEST(TraceController, DisabledEmitsNothing) {
  TraceController controller;
  ASSERT_FALSE(controller.enabled());
  { TraceSpan span(controller, "idle", "test"); }
  const TraceController::Snapshot snap = controller.snapshot();
  EXPECT_TRUE(snap.events.empty());
  EXPECT_EQ(snap.emitted, 0u);
}

TEST(TraceController, SpansLandInPerThreadRings) {
  TraceController controller;
  controller.set_enabled(true);
  { TraceSpan span(controller, "main_work", "test", 42); }

  constexpr int kThreads = 4;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&controller] {
      for (int i = 0; i < 5; ++i) {
        TraceSpan span(controller, "worker_item", "test");
        span.set_arg(static_cast<std::uint64_t>(i));
      }
    });
  }
  for (auto& w : workers) w.join();

  // Rings outlive their threads: the post-join snapshot has every span.
  const TraceController::Snapshot snap = controller.snapshot();
  EXPECT_EQ(snap.emitted, 1u + kThreads * 5u);
  EXPECT_EQ(snap.dropped, 0u);
  EXPECT_EQ(snap.events.size(), 1u + kThreads * 5u);
}

// W=4 concurrent emitters over deliberately tiny rings: after the writers
// quiesce, emitted/dropped must balance exactly — every span is either
// retained or counted as dropped, per ring and in aggregate.
TEST(TraceController, ConcurrentEmittersDropAccountingIsDeterministic) {
  TraceController controller;
  controller.set_enabled(true);
  controller.set_ring_capacity(32);

  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 1000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&controller] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        TraceSpan span(controller, "hot", "test", i);
      }
    });
  }
  for (auto& w : workers) w.join();

  const TraceController::Snapshot snap = controller.snapshot();
  EXPECT_EQ(snap.emitted, kThreads * kPerThread);
  EXPECT_EQ(snap.dropped, kThreads * (kPerThread - 32));
  EXPECT_EQ(snap.events.size(), snap.emitted - snap.dropped);
}

TEST(TraceController, SnapshotSyncsMetricsByDelta) {
  MetricsRegistry registry;
  TraceController controller(&registry);
  controller.set_enabled(true);
  { TraceSpan span(controller, "once", "test"); }
  (void)controller.snapshot();
  { TraceSpan span(controller, "twice", "test"); }
  (void)controller.snapshot();

  const std::string prom = to_prometheus(registry);
  EXPECT_NE(prom.find("scd_trace_spans_total 2"), std::string::npos) << prom;
  EXPECT_NE(prom.find("scd_trace_dropped_total 0"), std::string::npos) << prom;
  EXPECT_NE(prom.find("scd_trace_rings 1"), std::string::npos) << prom;
}

TEST(ChromeTrace, ExportsCompleteAndInstantEvents) {
  TraceController controller;
  controller.set_enabled(true);
  { TraceSpan span(controller, "stage_a", "core", 7); }
  trace_instant("ignored_global", "core");  // global controller: not ours
  controller.ring_for_current_thread().emit("mark", "core", 123000, 0, 9, 1);

  const std::string json = to_chrome_trace(controller.snapshot());
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\":\"stage_a\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"cat\":\"core\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"args\":{\"arg\":7}"), std::string::npos) << json;
  // 123000 ns = 123.000 us, microsecond timestamps with ns precision.
  EXPECT_NE(json.find("\"ts\":123.000"), std::string::npos) << json;
}

}  // namespace
}  // namespace scd::obs
