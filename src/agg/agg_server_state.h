// Lock state of the aggregation server, hoisted out of AggServer::Impl so
// every guarded field carries a thread-safety annotation the compiler can
// check (docs/CONCURRENCY.md). agg_server.cpp owns the only instance; the
// struct exists because attributes must see the mutex and the fields it
// guards declared together in a class scope.
#pragma once

#include <cstdint>
#include <memory>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "agg/aggregator.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "net/socket.h"

namespace scd::agg {

/// One node connection: the socket plus its reader thread. The reader owns
/// the fd; stop() only shutdown()s it so the reader wakes with EOF and
/// closes in its own epilogue. Both happen under conns_mutex, so stop()
/// never shuts down an fd number the reader has already released.
struct AggConn {
  net::Socket sock;
  std::thread thread;
};

/// Everything the server's threads share, with its capabilities.
struct AggServerState {
  explicit AggServerState(AggregatorConfig config) : core(std::move(config)) {}

  /// Serializes all Aggregator-core access (accept/reader/timer threads and
  /// with_core callers). Taken before conns_mutex when both are needed —
  /// never the reverse (docs/CONCURRENCY.md lock order).
  common::Mutex core_mutex SCD_ACQUIRED_BEFORE(conns_mutex);
  Aggregator core SCD_GUARDED_BY(core_mutex);
  /// Nodes whose Hello has been accepted at least once; a later accepted
  /// Hello from the same node is a rejoin. Refused Hellos stay out — an
  /// unknown or fingerprint-drifted node must not pre-mark itself.
  std::set<std::uint64_t> seen_nodes SCD_GUARDED_BY(core_mutex);

  /// Guards the connection list, and orders stop()'s shutdown of each
  /// connection against its reader's close; reader threads take it only to
  /// close.
  common::Mutex conns_mutex;
  std::vector<std::shared_ptr<AggConn>> conns SCD_GUARDED_BY(conns_mutex);
};

}  // namespace scd::agg
