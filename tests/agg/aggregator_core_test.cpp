// Transport-free aggregation-core tests: the dedup/stale/straggler/ordering
// matrix, and the two headline correctness claims of docs/DISTRIBUTED.md —
// (1) the global view is bit-identical to a single pipeline fed the merged
// intervals, and (2) an anomaly spread thinly across many routers is
// invisible at every single vantage point but alarms in the aggregate.
#include <cmath>
#include <cstdint>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "agg/aggregator.h"
#include "common/bytes.h"
#include "common/random.h"
#include "core/pipeline.h"
#include "net/wire.h"
#include "sketch/kary_sketch.h"
#include "sketch/serialize.h"

namespace scd::agg {
namespace {

core::PipelineConfig small_config() {
  core::PipelineConfig config;
  config.interval_s = 60.0;
  config.h = 5;
  config.k = 1024;
  config.model.kind = forecast::ModelKind::kEwma;
  config.model.alpha = 0.5;
  config.threshold = 0.5;
  config.metrics = false;  // keep unit tests off the global registry
  return config;
}

AggregatorConfig three_nodes() {
  AggregatorConfig config;
  config.pipeline = small_config();
  config.nodes = {1, 2, 3};
  return config;
}

/// One node's contribution for one interval: a handful of keys in a band
/// derived from the node id, so contributions are distinguishable.
net::IntervalPayload node_payload(const core::PipelineConfig& config,
                                  std::uint64_t node, std::uint64_t interval) {
  const auto family = sketch::make_tabulation_family(config.seed, config.h);
  sketch::KarySketch sketch(family, config.k);
  net::IntervalPayload payload;
  payload.start_s = static_cast<double>(interval) * config.interval_s;
  payload.len_s = config.interval_s;
  for (std::uint64_t j = 0; j < 10; ++j) {
    const std::uint64_t key = 1000 * node + j;
    sketch.update(key, 100.0);
    payload.keys.push_back(key);
    ++payload.records;
  }
  payload.sketch_packet = sketch::sketch_to_bytes(sketch);
  return payload;
}

TEST(AggregatorConfigTest, ValidationRejectsUnusableSetups) {
  {
    AggregatorConfig c = three_nodes();
    c.nodes.clear();
    EXPECT_THROW(c.validate(), std::invalid_argument);
  }
  {
    AggregatorConfig c = three_nodes();
    c.nodes = {1, 2, 1};
    EXPECT_THROW(c.validate(), std::invalid_argument);
  }
  {
    AggregatorConfig c = three_nodes();
    c.pipeline.key_kind = traffic::KeyKind::kSrcDstPair;  // 64-bit keys
    EXPECT_THROW(c.validate(), std::invalid_argument);
  }
  {
    AggregatorConfig c = three_nodes();
    c.pipeline.randomize_intervals = true;
    EXPECT_THROW(c.validate(), std::invalid_argument);
  }
  {
    AggregatorConfig c = three_nodes();
    c.pipeline.key_sample_rate = 0.5;
    EXPECT_THROW(c.validate(), std::invalid_argument);
  }
  EXPECT_NO_THROW(three_nodes().validate());
}

TEST(AggregatorCore, ClosesOnTheFullBarrierOnly) {
  Aggregator agg(three_nodes());
  const auto& config = agg.config().pipeline;

  EXPECT_EQ(agg.submit(1, 0, node_payload(config, 1, 0)).intervals_closed, 0u);
  EXPECT_EQ(agg.submit(2, 0, node_payload(config, 2, 0)).intervals_closed, 0u);
  ASSERT_TRUE(agg.oldest_pending().has_value());
  EXPECT_EQ(*agg.oldest_pending(), 0u);

  const SubmitResult last = agg.submit(3, 0, node_payload(config, 3, 0));
  EXPECT_EQ(last.outcome, SubmitOutcome::kAccepted);
  EXPECT_EQ(last.intervals_closed, 1u);
  EXPECT_FALSE(agg.oldest_pending().has_value());
  EXPECT_EQ(agg.next_to_close(), 1u);

  ASSERT_EQ(agg.reports().size(), 1u);
  EXPECT_EQ(agg.reports()[0].records, 30u);  // 10 records from each node
  for (std::uint64_t node : {1u, 2u, 3u}) {
    EXPECT_EQ(agg.next_expected(node), 1u);
  }
}

TEST(AggregatorCore, InterleavedArrivalStillClosesInIndexOrder) {
  Aggregator agg(three_nodes());
  const auto& config = agg.config().pipeline;

  // Nodes 1 and 2 race two intervals ahead of node 3: contributions to
  // interval 1 arrive while interval 0's barrier is still open. Nothing may
  // close until the oldest interval completes, and the closes come strictly
  // in index order as node 3 catches up.
  EXPECT_EQ(agg.submit(1, 0, node_payload(config, 1, 0)).intervals_closed, 0u);
  EXPECT_EQ(agg.submit(2, 0, node_payload(config, 2, 0)).intervals_closed, 0u);
  EXPECT_EQ(agg.submit(1, 1, node_payload(config, 1, 1)).intervals_closed, 0u);
  EXPECT_EQ(agg.submit(2, 1, node_payload(config, 2, 1)).intervals_closed, 0u);
  EXPECT_EQ(agg.next_to_close(), 0u);

  EXPECT_EQ(agg.submit(3, 0, node_payload(config, 3, 0)).intervals_closed, 1u);
  EXPECT_EQ(agg.submit(3, 1, node_payload(config, 3, 1)).intervals_closed, 1u);

  ASSERT_EQ(agg.reports().size(), 2u);
  EXPECT_EQ(agg.reports()[0].index, 0u);
  EXPECT_EQ(agg.reports()[0].start_s, 0.0);
  EXPECT_EQ(agg.reports()[1].index, 1u);
  EXPECT_EQ(agg.reports()[1].start_s, 60.0);
}

TEST(AggregatorCore, SkippingAheadAdvancesTheNodeWatermark) {
  Aggregator agg(three_nodes());
  const auto& config = agg.config().pipeline;

  // A node shipping interval 1 declares everything below it covered: its
  // own later interval-0 contribution is the rejoin-overlap duplicate, not
  // a fresh contribution (nodes ship in order; going backwards only happens
  // when a restored node replays already-integrated intervals).
  EXPECT_EQ(agg.submit(1, 1, node_payload(config, 1, 1)).outcome,
            SubmitOutcome::kAccepted);
  EXPECT_EQ(agg.next_expected(1), 2u);
  EXPECT_EQ(agg.submit(1, 0, node_payload(config, 1, 0)).outcome,
            SubmitOutcome::kDuplicate);
  EXPECT_EQ(agg.stats().duplicates, 1u);
}

TEST(AggregatorCore, DuplicatesAreAbsorbedNotRecombined) {
  Aggregator agg(three_nodes());
  const auto& config = agg.config().pipeline;

  ASSERT_EQ(agg.submit(1, 0, node_payload(config, 1, 0)).outcome,
            SubmitOutcome::kAccepted);
  // Re-ship before the barrier closes (watermark dedup).
  EXPECT_EQ(agg.submit(1, 0, node_payload(config, 1, 0)).outcome,
            SubmitOutcome::kDuplicate);
  agg.submit(2, 0, node_payload(config, 2, 0));
  agg.submit(3, 0, node_payload(config, 3, 0));
  // Re-ship after the close (still the node's watermark, not stale: the
  // node DID contribute, so its re-ship is the rejoin overlap).
  EXPECT_EQ(agg.submit(1, 0, node_payload(config, 1, 0)).outcome,
            SubmitOutcome::kDuplicate);

  EXPECT_EQ(agg.stats().contributions, 3u);
  EXPECT_EQ(agg.stats().duplicates, 2u);
  ASSERT_EQ(agg.reports().size(), 1u);
  EXPECT_EQ(agg.reports()[0].records, 30u);  // duplicates added nothing
  EXPECT_EQ(agg.next_expected(1), 1u);
}

TEST(AggregatorCore, StragglerForceCloseAndStaleDrop) {
  Aggregator agg(three_nodes());
  const auto& config = agg.config().pipeline;

  agg.submit(1, 0, node_payload(config, 1, 0));
  agg.submit(2, 0, node_payload(config, 2, 0));
  EXPECT_EQ(agg.close_stragglers(0), 1u);  // node 3 missing

  EXPECT_EQ(agg.stats().straggler_closes, 1u);
  EXPECT_EQ(agg.stats().missing_contributions, 1u);
  ASSERT_EQ(agg.reports().size(), 1u);
  EXPECT_EQ(agg.reports()[0].records, 20u);

  // Node 3's late contribution: acked-but-dropped, and its watermark moves
  // past the closed interval so it ships interval 1 next.
  const SubmitResult late = agg.submit(3, 0, node_payload(config, 3, 0));
  EXPECT_EQ(late.outcome, SubmitOutcome::kStale);
  EXPECT_EQ(agg.stats().stale_drops, 1u);
  EXPECT_EQ(agg.next_expected(3), 1u);
  EXPECT_EQ(agg.reports()[0].records, 20u);  // unchanged — never retro-merged
}

TEST(AggregatorCore, EmptyIntervalsCloseToUnblockLaterOnes) {
  Aggregator agg(three_nodes());
  const auto& config = agg.config().pipeline;

  // Nothing pending at all: force-closing has nothing to anchor a clock to
  // and must be a no-op rather than inventing intervals forever.
  EXPECT_EQ(agg.close_stragglers(5), 0u);

  // One node contributes interval 1 only. Forcing through 1 closes interval
  // 0 as empty (start derived back from the pending interval's grid) and
  // interval 1 as a straggler close.
  agg.submit(1, 1, node_payload(config, 1, 1));
  EXPECT_EQ(agg.close_stragglers(1), 2u);
  EXPECT_EQ(agg.stats().empty_intervals, 1u);
  EXPECT_EQ(agg.stats().straggler_closes, 2u);
  ASSERT_EQ(agg.reports().size(), 2u);
  EXPECT_EQ(agg.reports()[0].start_s, 0.0);
  EXPECT_EQ(agg.reports()[0].records, 0u);
  EXPECT_EQ(agg.reports()[1].start_s, 60.0);
  EXPECT_EQ(agg.reports()[1].records, 10u);
}

TEST(AggregatorCore, RejectsUnknownNodesAndIncompatibleContributions) {
  Aggregator agg(three_nodes());
  const auto& config = agg.config().pipeline;

  EXPECT_EQ(agg.submit(99, 0, node_payload(config, 99, 0)).outcome,
            SubmitOutcome::kUnknownNode);
  EXPECT_EQ(agg.stats().unknown_node_drops, 1u);

  // Wrong hash-family seed: COMBINE would be meaningless.
  core::PipelineConfig wrong_seed = config;
  wrong_seed.seed ^= 1;
  EXPECT_THROW(agg.submit(1, 0, node_payload(wrong_seed, 1, 0)),
               std::invalid_argument);
  // Wrong width.
  core::PipelineConfig wrong_k = config;
  wrong_k.k = 512;
  EXPECT_THROW(agg.submit(1, 0, node_payload(wrong_k, 1, 0)),
               std::invalid_argument);
  // Same interval framed on a shifted grid.
  agg.submit(1, 0, node_payload(config, 1, 0));
  net::IntervalPayload shifted = node_payload(config, 2, 0);
  shifted.start_s += 5.0;
  EXPECT_THROW(agg.submit(2, 0, shifted), std::invalid_argument);
  // A garbage sketch packet never touches aggregation state.
  net::IntervalPayload garbage = node_payload(config, 2, 0);
  garbage.sketch_packet[0] ^= 0xff;
  EXPECT_THROW(agg.submit(2, 0, garbage), sketch::SerializeError);
  EXPECT_EQ(agg.stats().contributions, 1u);
}

/// Resident set size of this process in KiB (Linux /proc), 0 if unknown.
std::size_t rss_kib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return static_cast<std::size_t>(std::stoull(line.substr(6)));
    }
  }
  return 0;
}

/// A tabulation sketch packet for (seed, rows = 32, k = 2): header plus
/// `body_bytes` zero bytes. A full body is rows * k * 8 = 512 bytes.
std::vector<std::uint8_t> foreign_packet(std::uint64_t seed,
                                         std::size_t body_bytes) {
  std::vector<std::uint8_t> packet;
  common::ByteWriter w(packet);
  w.u32(sketch::kSketchMagic);
  w.u32(sketch::kSketchVersion);
  w.u8(static_cast<std::uint8_t>(sketch::FamilyKind::kTabulation));
  w.u64(seed);
  w.u32(32);
  w.u32(2);
  packet.resize(packet.size() + body_bytes);
  return packet;
}

TEST(AggregatorCore, ForeignPacketsAreRejectedWithoutGrowingMemory) {
  // Every fresh (seed, rows) a decoder meets would build a hash family
  // (16 MiB at rows = 32) and cache it for the aggregator's lifetime. The
  // header check must refuse such packets before any decode or registry
  // lookup, truncated or full-length alike.
  Aggregator agg(three_nodes());
  const net::IntervalPayload genuine =
      node_payload(agg.config().pipeline, 1, 0);
  net::IntervalPayload payload = genuine;
  const std::size_t before = rss_kib();
  for (std::uint64_t i = 0; i < 20; ++i) {
    payload.sketch_packet =
        foreign_packet(0xf00d0000 + i, i % 2 == 0 ? 0 : 512);
    EXPECT_THROW(agg.submit(1, 0, payload), std::invalid_argument);
  }
  EXPECT_EQ(agg.stats().contributions, 0u);
  const std::size_t after = rss_kib();
  EXPECT_LT(after, before + (std::size_t{16} << 10))
      << "rejected packets grew RSS from " << before << " KiB to " << after;
  // The node's watermark did not move: its real contribution still lands.
  EXPECT_EQ(agg.submit(1, 0, genuine).outcome, SubmitOutcome::kAccepted);
}

// ---------------------------------------------------------------------------
// The headline claims, on a 10-router simulation.
// ---------------------------------------------------------------------------

constexpr std::size_t kRouters = 10;
constexpr std::size_t kIntervals = 8;
constexpr std::size_t kAnomalyInterval = 5;
constexpr std::uint64_t kAnomalyKey = 4242;
// Per-router extra mass at the anomaly interval. Sized to sit well below
// one router's alarm threshold (noise across 300 flows puts sqrt(F2) near
// 230, so T=0.5 thresholds near 115) while the 10-router aggregate signal
// of 600 clears the aggregate threshold (~sqrt(10) * 115) by ~60%.
constexpr double kPerRouterBump = 60.0;

struct RouterTraffic {
  std::vector<net::IntervalPayload> intervals;  // one payload per interval
};

/// Deterministic per-router traffic: 300 steady flows with +/-20% jitter,
/// plus the shared anomaly key at baseline mass; at kAnomalyInterval every
/// router's anomaly-key mass rises by kPerRouterBump — a distributed attack
/// no single vantage point can see.
std::vector<RouterTraffic> make_router_traffic(
    const core::PipelineConfig& config) {
  const auto family = sketch::make_tabulation_family(config.seed, config.h);
  std::vector<RouterTraffic> routers(kRouters);
  for (std::size_t r = 0; r < kRouters; ++r) {
    common::Rng rng(0xbeef + r);
    for (std::size_t t = 0; t < kIntervals; ++t) {
      sketch::KarySketch sketch(family, config.k);
      net::IntervalPayload payload;
      payload.start_s = static_cast<double>(t) * config.interval_s;
      payload.len_s = config.interval_s;
      for (std::uint64_t j = 0; j < 300; ++j) {
        const std::uint64_t key = 100000 * (r + 1) + j;
        // Integer masses keep double addition exact (the bit-identical
        // claim needs commutative sums).
        const double mass = std::floor(rng.uniform(80.0, 120.0));
        sketch.update(key, mass);
        payload.keys.push_back(key);
        ++payload.records;
      }
      const double anomaly_mass =
          100.0 + (t == kAnomalyInterval ? kPerRouterBump : 0.0);
      sketch.update(kAnomalyKey, anomaly_mass);
      payload.keys.push_back(kAnomalyKey);
      ++payload.records;
      payload.sketch_packet = sketch::sketch_to_bytes(sketch);
      routers[r].intervals.push_back(std::move(payload));
    }
  }
  return routers;
}

/// The merged interval a single pipeline would see: registers summed and
/// keys concatenated in ascending node-id order — the aggregator's own
/// deterministic COMBINE order.
core::IntervalBatch merged_batch(const core::PipelineConfig& config,
                                 const std::vector<RouterTraffic>& routers,
                                 std::size_t t) {
  sketch::FamilyRegistry registry;
  core::IntervalBatch batch;
  batch.start_s = routers[0].intervals[t].start_s;
  batch.len_s = routers[0].intervals[t].len_s;
  batch.registers.assign(config.h * config.k, 0.0);
  for (const RouterTraffic& router : routers) {
    const net::IntervalPayload& payload = router.intervals[t];
    const sketch::KarySketch sketch =
        sketch::sketch_from_bytes(payload.sketch_packet, registry);
    const auto regs = sketch.registers();
    for (std::size_t i = 0; i < regs.size(); ++i) batch.registers[i] += regs[i];
    batch.records += payload.records;
    batch.keys.insert(batch.keys.end(), payload.keys.begin(),
                      payload.keys.end());
  }
  return batch;
}

TEST(AggregatorCore, GlobalViewIsBitIdenticalToSingleMergedPipeline) {
  AggregatorConfig agg_config = three_nodes();
  agg_config.nodes.clear();
  for (std::size_t r = 0; r < kRouters; ++r) {
    agg_config.nodes.push_back(10 + r);
  }
  const auto routers = make_router_traffic(agg_config.pipeline);

  Aggregator agg(agg_config);
  // Arrival order is adversarial on purpose: reverse node order, and each
  // interval's parts interleaved with the next interval's.
  for (std::size_t t = 0; t < kIntervals; ++t) {
    for (std::size_t r = kRouters; r-- > 0;) {
      const SubmitResult result =
          agg.submit(10 + r, t, routers[r].intervals[t]);
      ASSERT_EQ(result.outcome, SubmitOutcome::kAccepted);
    }
  }
  agg.flush();

  core::ChangeDetectionPipeline reference(agg_config.pipeline);
  for (std::size_t t = 0; t < kIntervals; ++t) {
    reference.ingest_interval(merged_batch(agg_config.pipeline, routers, t));
  }
  reference.flush();

  const auto& got = agg.reports();
  const auto& want = reference.reports();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t t = 0; t < want.size(); ++t) {
    SCOPED_TRACE(t);
    EXPECT_EQ(got[t].index, want[t].index);
    EXPECT_EQ(got[t].start_s, want[t].start_s);
    EXPECT_EQ(got[t].end_s, want[t].end_s);
    EXPECT_EQ(got[t].records, want[t].records);
    EXPECT_EQ(got[t].detection_ran, want[t].detection_ran);
    // Bit-identical, not approximately equal: identical integer-valued
    // register sums through identical code.
    EXPECT_EQ(got[t].estimated_error_f2, want[t].estimated_error_f2);
    EXPECT_EQ(got[t].alarm_threshold, want[t].alarm_threshold);
    ASSERT_EQ(got[t].alarms.size(), want[t].alarms.size());
    for (std::size_t a = 0; a < want[t].alarms.size(); ++a) {
      EXPECT_EQ(got[t].alarms[a].key, want[t].alarms[a].key);
      EXPECT_EQ(got[t].alarms[a].error, want[t].alarms[a].error);
    }
  }
}

TEST(AggregatorCore, DistributedAnomalyIsOnlyVisibleInTheAggregate) {
  AggregatorConfig agg_config;
  agg_config.pipeline = small_config();
  for (std::size_t r = 0; r < kRouters; ++r) {
    agg_config.nodes.push_back(10 + r);
  }
  const auto routers = make_router_traffic(agg_config.pipeline);

  // Every single router, alone: no alarm for the anomaly key, ever — its
  // per-router bump hides inside the local noise floor.
  sketch::FamilyRegistry registry;
  for (std::size_t r = 0; r < kRouters; ++r) {
    core::ChangeDetectionPipeline local(agg_config.pipeline);
    for (std::size_t t = 0; t < kIntervals; ++t) {
      const net::IntervalPayload& payload = routers[r].intervals[t];
      core::IntervalBatch batch;
      batch.start_s = payload.start_s;
      batch.len_s = payload.len_s;
      batch.records = payload.records;
      batch.keys = payload.keys;
      const sketch::KarySketch sketch =
          sketch::sketch_from_bytes(payload.sketch_packet, registry);
      batch.registers.assign(sketch.registers().begin(),
                             sketch.registers().end());
      local.ingest_interval(std::move(batch));
    }
    local.flush();
    for (const auto& report : local.reports()) {
      for (const auto& alarm : report.alarms) {
        EXPECT_NE(alarm.key, kAnomalyKey)
            << "router " << r << " alarmed alone at interval " << report.index;
      }
    }
  }

  // The aggregate: the anomaly interval alarms on exactly the anomaly key.
  Aggregator agg(agg_config);
  for (std::size_t t = 0; t < kIntervals; ++t) {
    for (std::size_t r = 0; r < kRouters; ++r) {
      agg.submit(10 + r, t, routers[r].intervals[t]);
    }
  }
  agg.flush();
  ASSERT_EQ(agg.reports().size(), kIntervals);
  const auto& anomaly_report = agg.reports()[kAnomalyInterval];
  bool found = false;
  for (const auto& alarm : anomaly_report.alarms) {
    found = found || alarm.key == kAnomalyKey;
  }
  EXPECT_TRUE(found) << "aggregate view missed the distributed anomaly";
  // And the quiet intervals stay quiet globally too.
  for (std::size_t t = 2; t < kIntervals; ++t) {
    if (t == kAnomalyInterval || t == kAnomalyInterval + 1) continue;
    EXPECT_TRUE(agg.reports()[t].alarms.empty()) << "interval " << t;
  }
}

}  // namespace
}  // namespace scd::agg
