// Fuzz target: the pipeline state parsers behind a checkpoint frame —
// ChangeDetectionPipeline::restore_state (key-replay and invertible
// engines) and ParallelPipeline::restore_state (the same engine stream,
// restored into the engine behind the sharded front end, which then resumes
// its producer clock from it).
//
// The only legal rejection is the typed SerializeError. An accepted input
// must re-save to a fixed point: save(restore(save(restore(x)))) equals
// save(restore(x)) byte for byte. The restored pipeline then takes a few
// records across two interval boundaries and a flush, so a restored clock
// that cannot advance hangs here and shows as a libFuzzer timeout.
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/pipeline.h"
#include "engine_state_configs.h"
#include "ingest/parallel_pipeline.h"
#include "sketch/serialize.h"

#include "fuzz_driver.h"

namespace {

using Bytes = std::vector<std::uint8_t>;

/// Records at half-interval steps from the restored stream position, then
/// a flush.
template <typename Pipeline>
void feed_after_restore(Pipeline& pipeline, double interval_s) {
  const scd::core::StreamPosition pos = pipeline.position();
  const double start = pos.started ? pos.next_interval_start_s : 0.0;
  for (int i = 0; i < 6; ++i) {
    pipeline.add(static_cast<std::uint64_t>(1 + i % 3), 10.0,
                 start + 0.5 * interval_s * i);
  }
  pipeline.flush();
}

template <typename Pipeline, typename... Args>
void exercise(const Bytes& bytes, double interval_s, const Args&... args) {
  Bytes saved;
  {
    Pipeline first(args...);
    try {
      first.restore_state(bytes);
    } catch (const scd::sketch::SerializeError&) {
      return;  // typed rejection: the contract
    }
    saved = first.save_state();
  }
  Pipeline second(args...);
  second.restore_state(saved);  // a re-saved state always restores
  if (second.save_state() != saved) {
    __builtin_trap();  // the state stream has no fixed point
  }
  feed_after_restore(second, interval_s);
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const Bytes bytes(data, data + size);
  const scd::core::PipelineConfig replay = scd_fuzz::replay_config();
  exercise<scd::core::ChangeDetectionPipeline>(bytes, replay.interval_s,
                                               replay);
  const scd::core::PipelineConfig invertible = scd_fuzz::invertible_config();
  exercise<scd::core::ChangeDetectionPipeline>(bytes, invertible.interval_s,
                                               invertible);
  exercise<scd::ingest::ParallelPipeline>(bytes, replay.interval_s, replay,
                                          scd_fuzz::parallel_config());
  return 0;
}
