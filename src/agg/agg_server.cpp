#include "agg/agg_server.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "agg/agg_metrics.h"
#include "agg/agg_server_state.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "net/net_metrics.h"
#include "net/socket.h"
#include "net/wire.h"
#include "obs/metrics.h"

namespace scd::agg {

class AggServer::Impl {
 public:
  Impl(AggregatorConfig aggregator_config, AggServerConfig server_config)
      : state_(std::move(aggregator_config)),
        config_(std::move(server_config)) {
    const common::MutexLock lock(state_.core_mutex);
    // Cached at construction (the fingerprint is immutable for the core's
    // lifetime): reader threads compare it on every frame, and reading it
    // through the core would touch guarded state without the lock — the
    // annotation-surfaced bug this cache fixes.
    fingerprint_ = state_.core.config_fingerprint();
    if (state_.core.config().pipeline.metrics) {
      agg_metrics_ = &AggInstruments::global();
      net_metrics_ = &net::NetInstruments::global();
    }
  }

  ~Impl() { stop(); }

  void start() {
    if (running_.exchange(true)) return;
    listener_ = net::ListenSocket::listen_tcp(config_.host, config_.port);
    accept_thread_ = std::thread([this] { accept_loop(); });
    if (config_.straggler_timeout_s > 0) {
      timer_thread_ = std::thread([this] { timer_loop(); });
    }
  }

  void stop() SCD_EXCLUDES(state_.core_mutex, state_.conns_mutex) {
    if (!running_.exchange(false)) {
      return;
    }
    // One closer per fd. shutdown wakes the blocked accept() without
    // freeing the fd under it; the listener is closed once that thread has
    // exited.
    listener_.shutdown();
    {
      const common::MutexLock lock(state_.conns_mutex);
      // shutdown (not close): each reader wakes with EOF and closes its own
      // fd under conns_mutex, so no fd is shut down here after its number
      // was freed (it may already belong to another socket).
      for (auto& conn : state_.conns) conn->sock.shutdown_both();
    }
    if (accept_thread_.joinable()) accept_thread_.join();
    listener_.close();
    if (timer_thread_.joinable()) timer_thread_.join();
    std::vector<std::shared_ptr<AggConn>> conns;
    {
      const common::MutexLock lock(state_.conns_mutex);
      conns.swap(state_.conns);
    }
    for (auto& conn : conns) {
      if (conn->thread.joinable()) conn->thread.join();
    }
  }

  [[nodiscard]] std::uint16_t port() const noexcept {
    return listener_.port();
  }

  void with_core(const std::function<void(Aggregator&)>& fn)
      SCD_EXCLUDES(state_.core_mutex) {
    const common::MutexLock lock(state_.core_mutex);
    fn(state_.core);
  }

  [[nodiscard]] std::size_t connections() const noexcept {
    // mo: gauge mirror for tests — a point-in-time sample.
    return live_connections_.load(std::memory_order_relaxed);
  }

 private:
  void accept_loop() SCD_EXCLUDES(state_.conns_mutex) {
    // mo: shutdown flag — stop() closes the listener after the store, so a
    // stale read at worst costs one extra accept() that fails immediately.
    while (running_.load(std::memory_order_relaxed)) {
      net::Socket sock;
      try {
        sock = listener_.accept();
      } catch (const net::WireError&) {
        break;  // listener closed: shutdown
      }
      auto conn = std::make_shared<AggConn>();
      conn->sock = std::move(sock);
      {
        const common::MutexLock lock(state_.conns_mutex);
        // mo: recheck under the lock so a connection accepted while stop()
        // runs is closed here instead of leaking past the join loop.
        if (!running_.load(std::memory_order_relaxed)) {
          conn->sock.close();
          break;
        }
        conn->thread = std::thread([this, conn] { serve(conn); });
        state_.conns.push_back(conn);
      }
    }
  }

  void send_frame(AggConn& conn, net::MessageType type, std::uint64_t node_id,
                  std::uint64_t interval_index) {
    net::FrameHeader header;
    header.type = type;
    header.node_id = node_id;
    header.interval_index = interval_index;
    header.config_fingerprint = fingerprint_;
    const std::vector<std::uint8_t> bytes = net::encode_frame(header, {});
    conn.sock.send_all(bytes);
    if (net_metrics_) {
      net_metrics_->frames_sent.inc();
      net_metrics_->bytes_sent.inc(bytes.size());
    }
  }

  /// Returns false when the connection should end (clean Bye or a protocol
  /// violation). Throws on socket failure or malformed frames; the caller's
  /// catch drops the connection and counts the reject.
  bool handle_frame(AggConn& conn, const net::Frame& frame,
                    std::optional<std::uint64_t>& node_id)
      SCD_EXCLUDES(state_.core_mutex) {
    const net::FrameHeader& h = frame.header;
    switch (h.type) {
      case net::MessageType::kHello: {
        if (node_id) {
          // A second Hello on an established connection is a protocol
          // violation. Accepting it used to re-increment the
          // live-connection count, permanently inflating the gauge (one
          // decrement per connection at epilogue).
          throw net::WireError(net::WireErrorKind::kBadPayload,
                               "duplicate Hello on one connection");
        }
        bool known = true;
        std::uint64_t next = 0;
        bool rejoin = false;
        const bool fingerprint_ok = h.config_fingerprint == fingerprint_;
        {
          const common::MutexLock lock(state_.core_mutex);
          try {
            next = state_.core.next_expected(h.node_id);
          } catch (const std::invalid_argument&) {
            known = false;
          }
          // Mark the node seen only when this Hello is actually accepted: a
          // refused handshake (drifted fingerprint) must not make the
          // node's eventual first real session count as a rejoin.
          if (known && fingerprint_ok) {
            rejoin = !state_.seen_nodes.insert(h.node_id).second;
          }
        }
        if (!known || !fingerprint_ok) {
          // Refuse before any payload flows: an unknown node or one built
          // with different sketch geometry must never reach COMBINE.
          if (agg_metrics_) agg_metrics_->rejects.inc();
          send_frame(conn, net::MessageType::kBye, h.node_id, 0);
          return false;
        }
        node_id = h.node_id;
        // mo: gauge bookkeeping — the fetch_add is the atomic truth, the
        // derived value only feeds a metric sample.
        const std::size_t live =
            live_connections_.fetch_add(1, std::memory_order_relaxed) + 1;
        if (agg_metrics_) {
          agg_metrics_->nodes_connected.set(static_cast<double>(live));
          if (rejoin) agg_metrics_->rejoins.inc();
        }
        // The ack's interval_index is the rejoin protocol: "ship from here".
        send_frame(conn, net::MessageType::kHelloAck, h.node_id, next);
        return true;
      }
      case net::MessageType::kIntervalData: {
        if (!node_id || h.node_id != *node_id ||
            h.config_fingerprint != fingerprint_) {
          throw net::WireError(
              net::WireErrorKind::kBadPayload,
              "interval data before Hello, for a different node id, or with "
              "a drifted config fingerprint");
        }
        const net::IntervalPayload payload =
            net::decode_interval_payload(frame.payload);
        SubmitResult result;
        {
          const common::MutexLock lock(state_.core_mutex);
          result = state_.core.submit(h.node_id, h.interval_index, payload);
        }
        if (result.outcome == SubmitOutcome::kUnknownNode) {
          send_frame(conn, net::MessageType::kBye, h.node_id, 0);
          return false;
        }
        // Duplicates and stale contributions are acked too: the node must
        // advance past them, and dedup already made them harmless.
        send_frame(conn, net::MessageType::kAck, h.node_id, h.interval_index);
        return true;
      }
      case net::MessageType::kBye:
        return false;
      case net::MessageType::kHelloAck:
      case net::MessageType::kAck:
        throw net::WireError(net::WireErrorKind::kBadPayload,
                             "aggregator received a server->node message "
                             "type from a node");
    }
    return false;
  }

  void serve(const std::shared_ptr<AggConn>& conn) {
    net::FrameReader reader(config_.max_payload_bytes);
    std::vector<std::uint8_t> buf(64 * 1024);
    std::optional<std::uint64_t> node_id;
    try {
      bool open = true;
      while (open) {
        const std::size_t n = conn->sock.recv_some(buf.data(), buf.size());
        if (n == 0) break;  // EOF: node closed (or stop() shut us down)
        if (net_metrics_) net_metrics_->bytes_received.inc(n);
        reader.feed({buf.data(), n});
        while (open) {
          std::optional<net::Frame> frame = reader.next();
          if (!frame) break;
          if (net_metrics_) net_metrics_->frames_received.inc();
          open = handle_frame(*conn, *frame, node_id);
        }
      }
    } catch (const std::exception&) {
      // Malformed framing, hostile payload, or the peer vanished mid-frame:
      // drop the connection and count it. The core was never touched with
      // anything unvalidated, so no aggregation state needs repair.
      if (agg_metrics_) agg_metrics_->rejects.inc();
      if (net_metrics_) net_metrics_->frame_rejects.inc();
    }
    {
      const common::MutexLock lock(state_.conns_mutex);  // see stop()
      conn->sock.close();
    }
    if (node_id) {
      // mo: gauge bookkeeping, matching the fetch_add in handle_frame.
      const std::size_t live =
          live_connections_.fetch_sub(1, std::memory_order_relaxed) - 1;
      if (agg_metrics_) {
        agg_metrics_->nodes_connected.set(static_cast<double>(live));
      }
    }
  }

  void timer_loop() SCD_EXCLUDES(state_.core_mutex) {
    using Clock = std::chrono::steady_clock;
    bool watching = false;
    std::uint64_t watched_interval = 0;
    Clock::time_point since{};
    const auto timeout = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(config_.straggler_timeout_s));
    // mo: shutdown flag — the 50 ms poll bounds how stale a read can be.
    while (running_.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      const common::MutexLock lock(state_.core_mutex);
      const std::optional<std::uint64_t> oldest = state_.core.oldest_pending();
      if (!oldest) {
        watching = false;
        continue;
      }
      if (!watching || watched_interval != *oldest) {
        // A new oldest interval: restart its grace period.
        watching = true;
        watched_interval = *oldest;
        since = Clock::now();
        continue;
      }
      if (Clock::now() - since >= timeout) {
        state_.core.close_stragglers(watched_interval);
        watching = false;
      }
    }
  }

  AggServerState state_;
  AggServerConfig config_;
  std::uint64_t fingerprint_ = 0;  // written in ctor only, immutable after
  net::ListenSocket listener_;
  std::thread accept_thread_;
  std::thread timer_thread_;
  std::atomic<bool> running_{false};
  std::atomic<std::size_t> live_connections_{0};
  AggInstruments* agg_metrics_ = nullptr;
  net::NetInstruments* net_metrics_ = nullptr;
};

AggServer::AggServer(AggregatorConfig aggregator_config,
                     AggServerConfig server_config)
    : impl_(std::make_unique<Impl>(std::move(aggregator_config),
                                   std::move(server_config))) {}

AggServer::~AggServer() = default;

void AggServer::start() { impl_->start(); }
void AggServer::stop() { impl_->stop(); }

std::uint16_t AggServer::port() const noexcept { return impl_->port(); }

void AggServer::with_core(const std::function<void(Aggregator&)>& fn) {
  impl_->with_core(fn);
}

std::size_t AggServer::connections() const noexcept {
  return impl_->connections();
}

}  // namespace scd::agg
