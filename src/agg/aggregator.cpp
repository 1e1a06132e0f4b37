#include "agg/aggregator.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "agg/agg_metrics.h"
#include "core/pipeline.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "sketch/kary_sketch.h"
#include "sketch/serialize.h"
#include "traffic/key_extract.h"

namespace scd::agg {

void AggregatorConfig::validate() const {
  pipeline.validate();
  if (nodes.empty()) {
    throw std::invalid_argument(
        "AggregatorConfig: at least one expected node id is required");
  }
  std::vector<std::uint64_t> sorted = nodes;
  std::sort(sorted.begin(), sorted.end());
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
    throw std::invalid_argument(
        "AggregatorConfig: duplicate node id in the expected node set");
  }
  if (!traffic::key_fits_32bit(pipeline.key_kind)) {
    throw std::invalid_argument(
        "AggregatorConfig: the wire format ships 32-bit tabulation sketch "
        "packets (sketch_to_bytes); 64-bit key kinds are not supported by "
        "the aggregation tier");
  }
  if (pipeline.randomize_intervals) {
    throw std::invalid_argument(
        "AggregatorConfig: randomize_intervals is incompatible with "
        "aggregation — nodes cut intervals on a fixed shared grid");
  }
  if (pipeline.key_sample_rate < 1.0) {
    throw std::invalid_argument(
        "AggregatorConfig: key_sample_rate < 1 would sample the shipped key "
        "sets nondeterministically; sample on the nodes instead");
  }
}

class Aggregator::Impl {
 public:
  explicit Impl(AggregatorConfig config)
      : config_(std::move(config)), global_([&] {
          config_.validate();
          return config_.pipeline;
        }()) {
    std::sort(config_.nodes.begin(), config_.nodes.end());
    for (std::uint64_t node : config_.nodes) nodes_[node] = NodeState{};
    // Build the one hash family every accepted packet shares up front, so
    // the first contribution does not pay for it.
    (void)registry_.tabulation(config_.pipeline.seed, config_.pipeline.h);
    fingerprint_ = core::config_fingerprint(config_.pipeline);
    if (config_.pipeline.metrics) instruments_ = &AggInstruments::global();
  }

  SubmitResult submit(std::uint64_t node_id, std::uint64_t interval_index,
                      const net::IntervalPayload& payload) {
    auto node_it = nodes_.find(node_id);
    if (node_it == nodes_.end()) {
      ++stats_.unknown_node_drops;
      if (instruments_) instruments_->rejects.inc();
      return {SubmitOutcome::kUnknownNode, 0};
    }
    NodeState& node = node_it->second;
    if (interval_index < node.next_expected) {
      // The rejoin path: a node that recovered from a checkpoint re-ships
      // everything after its snapshot, including intervals the aggregator
      // already integrated. Absorb and ack so the node advances — the
      // global sum must never see the same (node, interval) twice.
      ++stats_.duplicates;
      if (instruments_) instruments_->duplicates.inc();
      return {SubmitOutcome::kDuplicate, 0};
    }
    if (interval_index < next_to_close_) {
      // Too late: the global interval was force-closed past this node.
      // Retro-merging would change a detection that already ran, so the
      // contribution is dropped (and counted — silent loss is the one
      // unacceptable outcome).
      ++stats_.stale_drops;
      if (instruments_) instruments_->stale_drops.inc();
      node.next_expected = std::max(node.next_expected, interval_index + 1);
      return {SubmitOutcome::kStale, 0};
    }

    // Check the packet header against the global config before decoding:
    // a packet for another family or geometry never reaches the decoder or
    // the family registry, whose entries live as long as the aggregator.
    const sketch::SketchHeader header =
        sketch::read_sketch_header(payload.sketch_packet);
    if (header.kind != sketch::FamilyKind::kTabulation ||
        header.seed != config_.pipeline.seed ||
        header.rows != config_.pipeline.h || header.k != config_.pipeline.k) {
      throw std::invalid_argument(
          "Aggregator: node " + std::to_string(node_id) +
          " shipped a sketch with incompatible hash family or geometry "
          "(expected seed/h/k of the global config)");
    }
    // Decode and validate BEFORE touching any aggregation state, so a
    // malformed packet cannot leave a half-registered contribution behind.
    sketch::KarySketch sketch =
        sketch::sketch_from_bytes(payload.sketch_packet, registry_);
    auto pending_it = pending_.find(interval_index);
    if (pending_it != pending_.end() &&
        (pending_it->second.start_s != payload.start_s ||
         pending_it->second.len_s != payload.len_s)) {
      throw std::invalid_argument(
          "Aggregator: node " + std::to_string(node_id) + " frames interval " +
          std::to_string(interval_index) +
          " differently from earlier contributors (interval grids must be "
          "anchored at the same epoch — see ParallelPipeline::start_at)");
    }

    if (pending_it == pending_.end()) {
      pending_it = pending_.emplace(interval_index, Pending{}).first;
      pending_it->second.start_s = payload.start_s;
      pending_it->second.len_s = payload.len_s;
    }
    pending_it->second.parts.emplace(
        node_id, Part{std::move(sketch), payload.keys, payload.records});
    node.next_expected = std::max(node.next_expected, interval_index + 1);
    ++stats_.contributions;
    if (instruments_) instruments_->contributions.inc();

    // Close every global interval whose barrier is now complete, strictly
    // in index order.
    std::size_t closed = 0;
    for (;;) {
      auto ready = pending_.find(next_to_close_);
      if (ready == pending_.end() ||
          ready->second.parts.size() < config_.nodes.size()) {
        break;
      }
      close_one(ready->second);
      pending_.erase(ready);
      ++closed;
    }
    return {SubmitOutcome::kAccepted, closed};
  }

  std::size_t close_stragglers(std::uint64_t through_interval) {
    std::size_t closed = 0;
    while (next_to_close_ <= through_interval) {
      auto it = pending_.find(next_to_close_);
      if (it != pending_.end()) {
        close_one(it->second);
        pending_.erase(it);
        ++closed;
        continue;
      }
      // No contribution at all for this index. Close it as an empty (zero)
      // interval so later pending intervals can proceed — the grid needs a
      // start time, taken from the last closed interval or derived from the
      // nearest pending one.
      Pending empty;
      empty.len_s = config_.pipeline.interval_s;
      if (clock_set_) {
        empty.start_s = next_start_s_;
      } else {
        auto ahead = pending_.lower_bound(next_to_close_);
        if (ahead == pending_.end()) break;  // nothing to unblock
        empty.start_s = ahead->second.start_s -
                        static_cast<double>(ahead->first - next_to_close_) *
                            config_.pipeline.interval_s;
        empty.len_s = ahead->second.len_s;
      }
      close_one(empty);
      ++closed;
    }
    return closed;
  }

  void flush() { global_.flush(); }

  [[nodiscard]] std::uint64_t next_expected(std::uint64_t node_id) const {
    auto it = nodes_.find(node_id);
    if (it == nodes_.end()) {
      throw std::invalid_argument("Aggregator: unknown node id " +
                                  std::to_string(node_id));
    }
    return it->second.next_expected;
  }

  [[nodiscard]] std::optional<std::uint64_t> oldest_pending() const noexcept {
    if (pending_.empty()) return std::nullopt;
    return pending_.begin()->first;
  }

  AggregatorConfig config_;
  core::ChangeDetectionPipeline global_;
  sketch::FamilyRegistry registry_;
  std::uint64_t fingerprint_ = 0;
  std::uint64_t next_to_close_ = 0;
  AggregatorStats stats_;

 private:
  struct Part {
    sketch::KarySketch sketch;
    std::vector<std::uint64_t> keys;
    std::uint64_t records = 0;
  };
  struct Pending {
    double start_s = 0.0;
    double len_s = 0.0;
    // Keyed by node id: iteration order IS the deterministic COMBINE order.
    std::map<std::uint64_t, Part> parts;
  };
  struct NodeState {
    std::uint64_t next_expected = 0;
  };

  void close_one(const Pending& pending) {
    core::IntervalBatch batch;
    batch.start_s = pending.start_s;
    batch.len_s = pending.len_s;
    batch.high_water_s = pending.start_s + pending.len_s;
    // COMBINE with unit coefficients into a zero sketch, in node-id order:
    // axpy's multiply by 1.0 is exact and never fused, so each register is
    // the plain left-to-right sum of the contributions on every SIMD leg.
    sketch::KarySketch sum(
        registry_.tabulation(config_.pipeline.seed, config_.pipeline.h),
        config_.pipeline.k);
    for (const auto& [node_id, part] : pending.parts) {
      sum.add_scaled(part.sketch, 1.0);
      batch.records += part.records;
      batch.keys.insert(batch.keys.end(), part.keys.begin(), part.keys.end());
    }
    batch.registers.resize(sum.registers().size());
    sum.swap_registers(batch.registers);
    if (pending.parts.size() < config_.nodes.size()) {
      ++stats_.straggler_closes;
      stats_.missing_contributions +=
          config_.nodes.size() - pending.parts.size();
      if (instruments_) instruments_->straggler_closes.inc();
      if (pending.parts.empty()) ++stats_.empty_intervals;
    }
    global_.ingest_interval(std::move(batch));
    ++stats_.intervals_combined;
    if (instruments_) instruments_->intervals_combined.inc();
    next_start_s_ = pending.start_s + pending.len_s;
    clock_set_ = true;
    ++next_to_close_;
  }

  std::map<std::uint64_t, NodeState> nodes_;
  std::map<std::uint64_t, Pending> pending_;
  bool clock_set_ = false;
  double next_start_s_ = 0.0;
  AggInstruments* instruments_ = nullptr;
};

Aggregator::Aggregator(AggregatorConfig config)
    : impl_(std::make_unique<Impl>(std::move(config))) {}

Aggregator::~Aggregator() = default;
Aggregator::Aggregator(Aggregator&&) noexcept = default;
Aggregator& Aggregator::operator=(Aggregator&&) noexcept = default;

SubmitResult Aggregator::submit(std::uint64_t node_id,
                                std::uint64_t interval_index,
                                const net::IntervalPayload& payload) {
  return impl_->submit(node_id, interval_index, payload);
}

std::size_t Aggregator::close_stragglers(std::uint64_t through_interval) {
  return impl_->close_stragglers(through_interval);
}

void Aggregator::flush() { impl_->flush(); }

std::uint64_t Aggregator::next_expected(std::uint64_t node_id) const {
  return impl_->next_expected(node_id);
}

std::optional<std::uint64_t> Aggregator::oldest_pending() const noexcept {
  return impl_->oldest_pending();
}

std::uint64_t Aggregator::next_to_close() const noexcept {
  return impl_->next_to_close_;
}

const std::vector<core::IntervalReport>& Aggregator::reports() const noexcept {
  return impl_->global_.reports();
}

void Aggregator::set_report_callback(
    std::function<void(const core::IntervalReport&)> callback) {
  impl_->global_.set_report_callback(std::move(callback));
}

void Aggregator::set_alarm_provenance_callback(
    std::function<void(const detect::AlarmProvenance&)> callback) {
  impl_->global_.set_alarm_provenance_callback(std::move(callback));
}

const AggregatorStats& Aggregator::stats() const noexcept {
  return impl_->stats_;
}

core::PipelineStats Aggregator::global_stats() const noexcept {
  return impl_->global_.stats();
}

const AggregatorConfig& Aggregator::config() const noexcept {
  return impl_->config_;
}

std::uint64_t Aggregator::config_fingerprint() const noexcept {
  return impl_->fingerprint_;
}

}  // namespace scd::agg
