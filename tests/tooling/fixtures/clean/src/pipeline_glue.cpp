// Fixture: would trip include-hygiene, kkeybits-binding, mutex-wrapper,
// mo-rationale, lock-order-doc, byte-codec, interval-cutter and stage-timer,
// but every finding carries a waiver — the tree must lint clean.
// scd-lint: allow-file(kkeybits-binding)
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "traffic/key_extract.h"

namespace scd {

int route(traffic::KeyKind kind) {
  sketch::KarySketch chosen(nullptr, 5, 64);  // scd-lint: allow(include-hygiene)
  (void)chosen;
  return kind == traffic::KeyKind::kDstIp ? 1 : 0;
}

// scd-lint: allow(include-hygiene)
unsigned long weigh(const traffic::FlowRecord& record) {
  return record.bytes;
}

struct LegacyBridge {
  // A third-party callback API hands us a std::unique_lock; waived.
  std::mutex vendor_mutex;  // scd-lint: allow(mutex-wrapper)
  // An edge kept out of the doc table while the bridge is experimental.
  common::Mutex outer SCD_ACQUIRED_BEFORE(inner);  // scd-lint: allow(lock-order-doc)
  common::Mutex inner;
};

unsigned long sample(std::atomic<unsigned long>& hits) {
  // scd-lint: allow(mo-rationale)
  return hits.load(std::memory_order_relaxed);
}

unsigned char low_byte(unsigned long v, int i) {
  // scd-lint: allow(byte-codec)
  return static_cast<unsigned char>(v >> (8 * i));
}

void tally_replayed_late(unsigned long& out_of_order_replayed) {
  ++out_of_order_replayed;  // scd-lint: allow(interval-cutter)
}

double vendor_latency() {
  // A vendor hook wants its own wall-clock figure, outside every stage.
  const common::Stopwatch watch;  // scd-lint: allow(stage-timer)
  return watch.seconds();
}

}  // namespace scd
