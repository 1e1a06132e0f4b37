// IntervalizedStream: buckets a flow trace into discrete intervals (§2.2)
// and pre-aggregates updates per (interval, key).
//
// Aggregation is lossless for everything downstream — sketch UPDATE is
// linear, so applying one aggregated update per key per interval produces
// exactly the sketch the raw stream would — and it makes the repeated
// (H, K, model) sweeps of §5 cheap. The distinct-key list per interval is
// also precisely the key set the paper's two-pass detection replays.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "perflow/dense_vector.h"
#include "perflow/key_dictionary.h"
#include "traffic/flow_record.h"
#include "traffic/key_extract.h"

namespace scd::eval {

struct AggregatedUpdate {
  std::uint64_t key = 0;
  std::uint32_t dense_index = 0;  // index into the stream-wide dictionary
  double value = 0.0;
};

class IntervalizedStream {
 public:
  /// Records must be time-ordered (as TraceReader guarantees); throws
  /// std::invalid_argument when one is earlier than the record before it.
  IntervalizedStream(std::span<const traffic::FlowRecord> records,
                     double interval_s, traffic::KeyKind key_kind,
                     traffic::UpdateKind update_kind);

  [[nodiscard]] std::size_t num_intervals() const noexcept {
    return intervals_.size();
  }
  [[nodiscard]] double interval_seconds() const noexcept { return interval_s_; }

  /// Aggregated updates of interval t (one entry per distinct key).
  [[nodiscard]] std::span<const AggregatedUpdate> interval(
      std::size_t t) const noexcept {
    return intervals_[t];
  }

  /// Dictionary over every key that appears anywhere in the stream.
  [[nodiscard]] const perflow::KeyDictionary& dictionary() const noexcept {
    return dictionary_;
  }

  /// Exact observed signal o_a(t) as a dense vector over all keys.
  [[nodiscard]] perflow::DenseVector observed_dense(std::size_t t) const;

  /// Adds interval t's updates into an observed sketch.
  template <typename Sketch>
  void fill_observed_sketch(std::size_t t, Sketch& s) const {
    for (const AggregatedUpdate& u : intervals_[t]) s.update(u.key, u.value);
  }

  /// Distinct keys of interval t — the §3.3 two-pass replay set.
  [[nodiscard]] std::vector<std::uint64_t> interval_keys(std::size_t t) const;

  [[nodiscard]] traffic::KeyKind key_kind() const noexcept { return key_kind_; }

 private:
  double interval_s_;
  traffic::KeyKind key_kind_;
  perflow::KeyDictionary dictionary_;
  std::vector<std::vector<AggregatedUpdate>> intervals_;
};

}  // namespace scd::eval
