// Per-layer probe of the traced run. It drives each src/ module's public
// calls itself, in pipeline order, on a slice of the workload's own
// records, and times them one layer at a time: decode and key extract, the
// hash pass, UPDATE, COMBINE, the sketch codec, the forecast step,
// ESTIMATEF2, key replay and MV recovery, the serial engine, the sharded
// front end, checkpointing, the wire codec and the aggregator.
#pragma once

#include <filesystem>
#include <span>

#include "bench.h"
#include "core/pipeline.h"
#include "traffic/flow_record.h"

namespace perfbench {

struct ProbeInput {
  /// Time-ordered records; the probe uses the first kTrainingIntervals
  /// intervals of them.
  std::span<const traffic::FlowRecord> records;
  core::PipelineConfig config;  // the workload's pipeline settings
  std::size_t fanin = 2;  // sketches COMBINEd per interval (shards, nodes)
  std::filesystem::path work_dir;
};

/// Adds every per-layer metric except gridsearch.*, obs.* and ledger.*,
/// which the workload measures on its own path.
void probe_layers(const ProbeInput& input, Metrics& out);

}  // namespace perfbench
