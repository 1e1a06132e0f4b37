// Sketch-side evaluation path: the paper's offline two-pass detection
// (§3.3), run by the detection engine. Each interval's observed sketch goes
// to a core::ChangeDetectionPipeline as an IntervalBatch; at threshold 0
// and with no alarm cap, its alarms rank every key of the interval by
// estimated error. An interval whose ESTIMATEF2 is <= 0 ranks no keys: the
// engine has no threshold to rank them against.
#pragma once

#include <cstdint>
#include <vector>

#include "detect/alarm.h"
#include "eval/intervalized.h"
#include "forecast/model_config.h"

namespace scd::eval {

struct SketchPathOptions {
  std::size_t h = 5;
  std::size_t k = 32768;
  std::uint64_t seed = 0x5eedc0de;  // hash-family seed
  /// When false, only the ESTIMATEF2 series is produced (sufficient for the
  /// energy experiments) and no key is replayed.
  bool collect_errors = true;
};

struct SketchIntervalErrors {
  bool ready = false;
  /// ESTIMATEF2(S_e(t)) — the estimated second moment of the error signal.
  double est_f2 = 0.0;
  /// Candidate keys' estimated errors, sorted by |error| descending (ties by
  /// key). Empty when collect_errors is false or est_f2 <= 0.
  std::vector<detect::KeyError> ranked;
};

struct SketchPathResult {
  std::vector<SketchIntervalErrors> intervals;

  [[nodiscard]] double total_energy(std::size_t warmup_intervals) const;
  [[nodiscard]] double total_f2(std::size_t warmup_intervals) const;
};

[[nodiscard]] SketchPathResult compute_sketch_errors(
    const IntervalizedStream& stream, const forecast::ModelConfig& config,
    const SketchPathOptions& options);

}  // namespace scd::eval
