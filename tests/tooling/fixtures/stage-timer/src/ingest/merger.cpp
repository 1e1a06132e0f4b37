// Fixture seed: a merge stage that reads its own stopwatch next to its trace
// span, so the histogram and the span time the same work twice — the
// stage-timer rule must fire on the stopwatch below.
#include "common/timer.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace fixture {

void merge(scd::obs::Histogram& merge_seconds) {
  SCD_TRACE_SPAN("barrier_combine", "ingest");
  const scd::common::Stopwatch watch;
  merge_seconds.observe(watch.seconds());
}

}  // namespace fixture
