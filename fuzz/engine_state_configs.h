// Pipeline configurations shared by fuzz_engine_state.cpp and the seed
// corpus (make_corpus.cpp): a snapshot restores only into a pipeline with
// the configuration that wrote it, so both sides must agree.
#pragma once

#include "core/pipeline.h"
#include "ingest/parallel_pipeline.h"

namespace scd_fuzz {

/// Key replay with deferred detection, a refit window and hysteresis, so a
/// seed snapshot carries a pending report, refit history, streaks and a
/// moving-average ring.
inline scd::core::PipelineConfig replay_config() {
  scd::core::PipelineConfig config;
  config.interval_s = 10.0;
  config.h = 3;
  config.k = 64;
  config.seed = 0xf022;
  config.threshold = 0.1;
  config.model.kind = scd::forecast::ModelKind::kMovingAverage;
  config.model.window = 3;
  config.replay = scd::core::KeyReplayMode::kNextInterval;
  config.min_consecutive = 2;
  config.refit_every = 4;
  config.refit_window = 4;
  config.metrics = false;
  return config;
}

/// Invertible recovery over seasonal Holt-Winters: vote tables and rings.
inline scd::core::PipelineConfig invertible_config() {
  scd::core::PipelineConfig config = replay_config();
  config.replay = scd::core::KeyReplayMode::kCurrentInterval;
  config.recovery = scd::core::RecoveryMode::kInvertible;
  config.model = {};
  config.model.kind = scd::forecast::ModelKind::kSeasonalHoltWinters;
  config.model.period = 3;
  return config;
}

/// The sharded front end runs the replay configuration on one worker.
inline scd::ingest::ParallelConfig parallel_config() {
  scd::ingest::ParallelConfig parallel;
  parallel.workers = 1;
  parallel.batch_size = 16;
  return parallel;
}

}  // namespace scd_fuzz
