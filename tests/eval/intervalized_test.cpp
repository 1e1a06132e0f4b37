#include "eval/intervalized.h"

#include <gtest/gtest.h>

#include <map>
#include <stdexcept>

#include "sketch/kary_sketch.h"

namespace scd::eval {
namespace {

using traffic::FlowRecord;

FlowRecord record(double t_s, std::uint32_t dst, std::uint64_t bytes) {
  FlowRecord r;
  r.timestamp_us = static_cast<std::uint64_t>(t_s * 1e6);
  r.dst_ip = dst;
  r.src_ip = 1;
  r.bytes = bytes;
  r.packets = static_cast<std::uint32_t>(bytes / 100 + 1);
  return r;
}

TEST(IntervalizedStream, BucketsByTime) {
  const std::vector<FlowRecord> records{
      record(0.5, 10, 100), record(9.9, 11, 200),   // interval 0
      record(10.0, 10, 300),                        // interval 1
      record(25.0, 12, 400),                        // interval 2
  };
  IntervalizedStream stream(records, 10.0, traffic::KeyKind::kDstIp,
                            traffic::UpdateKind::kBytes);
  ASSERT_EQ(stream.num_intervals(), 3u);
  EXPECT_EQ(stream.interval(0).size(), 2u);
  EXPECT_EQ(stream.interval(1).size(), 1u);
  EXPECT_EQ(stream.interval(2).size(), 1u);
}

TEST(IntervalizedStream, AggregatesPerKeyWithinInterval) {
  const std::vector<FlowRecord> records{
      record(1.0, 10, 100), record(2.0, 10, 250), record(3.0, 11, 40)};
  IntervalizedStream stream(records, 10.0, traffic::KeyKind::kDstIp,
                            traffic::UpdateKind::kBytes);
  std::map<std::uint64_t, double> values;
  for (const auto& u : stream.interval(0)) values[u.key] = u.value;
  EXPECT_EQ(values.size(), 2u);
  EXPECT_DOUBLE_EQ(values[10], 350.0);
  EXPECT_DOUBLE_EQ(values[11], 40.0);
}

TEST(IntervalizedStream, EmptyMiddleIntervalsExist) {
  const std::vector<FlowRecord> records{record(0.0, 10, 1),
                                        record(35.0, 10, 2)};
  IntervalizedStream stream(records, 10.0, traffic::KeyKind::kDstIp,
                            traffic::UpdateKind::kBytes);
  ASSERT_EQ(stream.num_intervals(), 4u);
  EXPECT_TRUE(stream.interval(1).empty());
  EXPECT_TRUE(stream.interval(2).empty());
  EXPECT_EQ(stream.interval(3).size(), 1u);
}

TEST(IntervalizedStream, DictionaryCoversAllKeys) {
  const std::vector<FlowRecord> records{
      record(0.0, 10, 1), record(11.0, 20, 1), record(22.0, 30, 1)};
  IntervalizedStream stream(records, 10.0, traffic::KeyKind::kDstIp,
                            traffic::UpdateKind::kBytes);
  EXPECT_EQ(stream.dictionary().size(), 3u);
  EXPECT_TRUE(stream.dictionary().lookup(10).has_value());
  EXPECT_TRUE(stream.dictionary().lookup(30).has_value());
}

TEST(IntervalizedStream, ObservedDenseMatchesAggregates) {
  const std::vector<FlowRecord> records{
      record(0.0, 10, 100), record(1.0, 20, 50), record(12.0, 10, 70)};
  IntervalizedStream stream(records, 10.0, traffic::KeyKind::kDstIp,
                            traffic::UpdateKind::kBytes);
  const auto v0 = stream.observed_dense(0);
  const auto v1 = stream.observed_dense(1);
  EXPECT_EQ(v0.dimension(), stream.dictionary().size());
  const auto idx10 = *stream.dictionary().lookup(10);
  const auto idx20 = *stream.dictionary().lookup(20);
  EXPECT_DOUBLE_EQ(v0[idx10], 100.0);
  EXPECT_DOUBLE_EQ(v0[idx20], 50.0);
  EXPECT_DOUBLE_EQ(v1[idx10], 70.0);
  EXPECT_DOUBLE_EQ(v1[idx20], 0.0);
}

TEST(IntervalizedStream, FillObservedSketchMatchesDense) {
  const std::vector<FlowRecord> records{
      record(0.0, 10, 100), record(1.0, 20, 50), record(2.0, 10, 25)};
  IntervalizedStream stream(records, 10.0, traffic::KeyKind::kDstIp,
                            traffic::UpdateKind::kBytes);
  const auto family = sketch::make_tabulation_family(1, 5);
  sketch::KarySketch s(family, 4096);
  stream.fill_observed_sketch(0, s);
  EXPECT_NEAR(s.estimate(10), 125.0, 1.0);
  EXPECT_NEAR(s.estimate(20), 50.0, 1.0);
  EXPECT_DOUBLE_EQ(s.sum(), 175.0);
}

TEST(IntervalizedStream, IntervalKeysAreDistinct) {
  const std::vector<FlowRecord> records{
      record(0.0, 10, 1), record(1.0, 10, 1), record(2.0, 20, 1)};
  IntervalizedStream stream(records, 10.0, traffic::KeyKind::kDstIp,
                            traffic::UpdateKind::kBytes);
  const auto keys = stream.interval_keys(0);
  EXPECT_EQ(keys.size(), 2u);
}

TEST(IntervalizedStream, SupportsAlternativeKeysAndUpdates) {
  const std::vector<FlowRecord> records{record(0.0, 10, 100),
                                        record(1.0, 10, 100)};
  IntervalizedStream by_packets(records, 10.0, traffic::KeyKind::kDstIp,
                                traffic::UpdateKind::kPackets);
  EXPECT_DOUBLE_EQ(by_packets.interval(0)[0].value, 4.0);  // 2 x (100/100+1)
  IntervalizedStream by_records(records, 10.0, traffic::KeyKind::kSrcIp,
                                traffic::UpdateKind::kRecords);
  EXPECT_DOUBLE_EQ(by_records.interval(0)[0].value, 2.0);
  EXPECT_EQ(by_records.interval(0)[0].key, 1u);  // src_ip
}

TEST(IntervalizedStream, EmptyRecordsProduceNoIntervals) {
  IntervalizedStream stream({}, 10.0, traffic::KeyKind::kDstIp,
                            traffic::UpdateKind::kBytes);
  EXPECT_EQ(stream.num_intervals(), 0u);
  EXPECT_EQ(stream.dictionary().size(), 0u);
}

TEST(IntervalizedStream, RejectsTimeDisorderedRecords) {
  // A middle record later than the last would be binned past the final
  // interval; one earlier than the first, before interval 0.
  const std::vector<FlowRecord> late_middle{
      record(1.0, 10, 100), record(35.0, 11, 200), record(12.0, 12, 300)};
  const std::vector<FlowRecord> early_last{
      record(15.0, 10, 100), record(21.0, 11, 200), record(3.0, 12, 300)};
  for (const auto* records : {&late_middle, &early_last}) {
    EXPECT_THROW(IntervalizedStream(*records, 10.0, traffic::KeyKind::kDstIp,
                                    traffic::UpdateKind::kBytes),
                 std::invalid_argument);
  }
}

}  // namespace
}  // namespace scd::eval
