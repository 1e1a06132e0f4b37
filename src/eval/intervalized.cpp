#include "eval/intervalized.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <unordered_map>

#include "traffic/flow_record.h"
#include "traffic/key_extract.h"

namespace scd::eval {

IntervalizedStream::IntervalizedStream(
    std::span<const traffic::FlowRecord> records, double interval_s,
    traffic::KeyKind key_kind, traffic::UpdateKind update_kind)
    : interval_s_(interval_s), key_kind_(key_kind) {
  assert(interval_s_ > 0.0);
  if (records.empty()) return;
  // Time order keeps every bucket index below in [current, n_intervals).
  if (!std::ranges::is_sorted(records, {},
                              &traffic::FlowRecord::timestamp_us)) {
    throw std::invalid_argument(
        "IntervalizedStream: records must be in nondecreasing time order");
  }
  // Buckets are aligned to absolute multiples of the interval length (the
  // way a router's export epoch works), not to the first record's offset.
  const double start =
      std::floor(traffic::record_time_s(records.front()) / interval_s_) *
      interval_s_;
  const double end = traffic::record_time_s(records.back());
  const auto n_intervals =
      static_cast<std::size_t>(std::floor((end - start) / interval_s_)) + 1;
  intervals_.resize(n_intervals);

  // Aggregate per (interval, key). Records are time-ordered, so we can keep
  // one accumulation map and flush it at interval boundaries.
  std::unordered_map<std::uint64_t, double> acc;
  std::size_t current = 0;
  const auto flush = [&] {
    auto& bucket = intervals_[current];
    bucket.reserve(acc.size());
    for (const auto& [key, value] : acc) {
      AggregatedUpdate u;
      u.key = key;
      u.dense_index = static_cast<std::uint32_t>(dictionary_.intern(key));
      u.value = value;
      bucket.push_back(u);
    }
    acc.clear();
  };
  for (const traffic::FlowRecord& r : records) {
    const auto t = static_cast<std::size_t>(
        (traffic::record_time_s(r) - start) / interval_s_);
    while (current < t) {
      flush();
      ++current;
    }
    acc[traffic::extract_key(r, key_kind)] +=
        traffic::extract_update(r, update_kind);
  }
  flush();
}

perflow::DenseVector IntervalizedStream::observed_dense(std::size_t t) const {
  perflow::DenseVector v(dictionary_.size());
  for (const AggregatedUpdate& u : intervals_[t]) v[u.dense_index] = u.value;
  return v;
}

std::vector<std::uint64_t> IntervalizedStream::interval_keys(
    std::size_t t) const {
  std::vector<std::uint64_t> keys;
  keys.reserve(intervals_[t].size());
  for (const AggregatedUpdate& u : intervals_[t]) keys.push_back(u.key);
  return keys;
}

}  // namespace scd::eval
