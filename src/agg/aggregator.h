// Aggregator — the network-wide COMBINE core (docs/DISTRIBUTED.md).
//
// The paper's §1.2 observation that sketches "can be combined in an
// arithmetical sense" is what makes distributed change detection exact: N
// vantage points each ship their per-interval observed sketch, the
// aggregator COMBINEs them, and forecasting/detection run on the global sum
// exactly as if every record had been fed to one pipeline. For
// integer-valued updates (byte or packet counts) the merged registers are
// bit-identical to a single-node run over the merged trace.
//
// This class is deliberately transport-free and single-threaded: it consumes
// decoded net::IntervalPayload values and makes every correctness decision
// (dedup, ordering, straggler force-close) deterministically, so the whole
// rejoin/double-count matrix is testable without sockets or clocks. The TCP
// front-end lives in agg_server.h and holds one mutex around this core.
//
// Threading contract: Aggregator owns no locks and is NOT thread-safe. In
// the server it is a field of AggServerState, declared
// SCD_GUARDED_BY(core_mutex) there — the compile-time thread-safety
// analysis (docs/CONCURRENCY.md) enforces that every reader/timer/with_core
// path holds that mutex, so no annotation is needed (or possible) here.
//
// Correctness rules:
//   * Dedup is per (node, interval): each node has a watermark
//     next_expected(node); anything below it is a duplicate and is absorbed
//     (acked but never re-combined). A node that rejoins from a checkpoint
//     re-ships from its last acked interval; the overlap hits this path, so
//     the global sum is never double-counted.
//   * Global intervals close strictly in index order, each exactly once:
//     normally when every expected node has contributed, or early via
//     close_stragglers() (the server's timeout policy). Contributions to a
//     closed interval are counted as stale and dropped — never retro-merged
//     into a detection that already ran.
//   * COMBINE folds node sketches in ascending node-id order, so the merged
//     registers do not depend on arrival order even for non-integer updates.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/pipeline.h"
#include "net/wire.h"

namespace scd::agg {

struct AggregatorConfig {
  /// Detection configuration for the global view. Sketch geometry (h, k,
  /// seed) must match the nodes' — config_fingerprint() is exchanged at
  /// handshake and mismatches are refused before any payload flows.
  core::PipelineConfig pipeline{};
  /// Expected node ids (the per-interval barrier set). Order is irrelevant;
  /// the aggregator sorts. Must be non-empty and duplicate-free.
  std::vector<std::uint64_t> nodes;

  /// Throws std::invalid_argument when invalid (empty/duplicate node set,
  /// invalid pipeline config, or a key kind whose sketch packets the wire
  /// format cannot carry).
  void validate() const;
};

enum class SubmitOutcome {
  kAccepted,     ///< new contribution, integrated (or pending the barrier)
  kDuplicate,    ///< (node, interval) already seen — absorbed, ack again
  kStale,        ///< global interval already closed — dropped, ack anyway
  kUnknownNode,  ///< node id not in AggregatorConfig::nodes
};

struct SubmitResult {
  SubmitOutcome outcome = SubmitOutcome::kAccepted;
  /// Global intervals closed as a consequence of this contribution.
  std::size_t intervals_closed = 0;
};

struct AggregatorStats {
  std::uint64_t contributions = 0;      ///< accepted (node, interval) parts
  std::uint64_t duplicates = 0;         ///< absorbed re-ships
  std::uint64_t stale_drops = 0;        ///< too late, interval closed
  std::uint64_t unknown_node_drops = 0;
  std::uint64_t intervals_combined = 0;  ///< global intervals closed
  std::uint64_t straggler_closes = 0;    ///< closed missing >= 1 node
  std::uint64_t empty_intervals = 0;     ///< closed with zero contributions
  std::uint64_t missing_contributions = 0;  ///< node-intervals never merged
};

class Aggregator {
 public:
  /// Validates the config and builds the global detection pipeline. All
  /// methods are single-threaded; callers serialize (agg_server holds one
  /// mutex).
  explicit Aggregator(AggregatorConfig config);
  ~Aggregator();
  Aggregator(Aggregator&&) noexcept;
  Aggregator& operator=(Aggregator&&) noexcept;

  /// Integrates one node's interval contribution. The sketch packet's
  /// header is checked against the global hash family and geometry before
  /// the packet is decoded;
  /// contributions to the same interval must agree exactly on
  /// (start_s, len_s). Throws sketch::SerializeError (malformed packet) or
  /// std::invalid_argument (incompatible geometry / inconsistent interval
  /// framing); the caller counts the reject and should drop the connection.
  SubmitResult submit(std::uint64_t node_id, std::uint64_t interval_index,
                      const net::IntervalPayload& payload);

  /// Force-closes every global interval up to and including
  /// `through_interval` even though some nodes are missing, in index order.
  /// Intervals with no contribution at all close as empty (zero sketch).
  /// This is the straggler policy's mechanism; the timeout policy itself
  /// lives in the server so tests stay clock-free. Returns the number of
  /// intervals closed.
  std::size_t close_stragglers(std::uint64_t through_interval);

  /// Flushes the global detection pipeline (end of run). Pending partial
  /// intervals are NOT force-closed — call close_stragglers first if they
  /// should be.
  void flush();

  /// Next interval index expected from `node`: every interval below it has
  /// been received (or skipped past). HelloAck carries this so a rejoining
  /// node resumes shipping without double-counting. Throws
  /// std::invalid_argument for unknown nodes.
  [[nodiscard]] std::uint64_t next_expected(std::uint64_t node_id) const;

  /// Lowest global interval index with a pending (unclosed) contribution,
  /// if any — the server's straggler timer watches this.
  [[nodiscard]] std::optional<std::uint64_t> oldest_pending() const noexcept;

  /// Index of the next global interval to close (0-based).
  [[nodiscard]] std::uint64_t next_to_close() const noexcept;

  [[nodiscard]] const std::vector<core::IntervalReport>& reports()
      const noexcept;
  void set_report_callback(
      std::function<void(const core::IntervalReport&)> callback);
  void set_alarm_provenance_callback(
      std::function<void(const detect::AlarmProvenance&)> callback);

  [[nodiscard]] const AggregatorStats& stats() const noexcept;
  [[nodiscard]] core::PipelineStats global_stats() const noexcept;
  [[nodiscard]] const AggregatorConfig& config() const noexcept;
  /// Fingerprint of the global PipelineConfig; nodes must present the same
  /// value at handshake.
  [[nodiscard]] std::uint64_t config_fingerprint() const noexcept;

 private:
  class Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace scd::agg
