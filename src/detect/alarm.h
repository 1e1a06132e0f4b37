// Change-detection result types (§3.3).
#pragma once

#include <cstdint>
#include <vector>

namespace scd::detect {

/// A (key, forecast-error) pair; the unit the detector ranks and thresholds.
struct KeyError {
  std::uint64_t key = 0;
  double error = 0.0;
};

/// An alarm raised for interval `interval`: the key's estimated forecast
/// error exceeded the alarm threshold T_A = T * sqrt(ESTIMATEF2(S_e(t))).
struct Alarm {
  std::size_t interval = 0;
  std::uint64_t key = 0;
  double error = 0.0;          // estimated forecast error (signed)
  double threshold_abs = 0.0;  // T_A in absolute units

  /// Field list (common/bytes.h).
  template <class Ar, class Self>
  static void transfer(Ar& ar, Self& a) {
    ar.field(a.interval);
    ar.field(a.key);
    ar.field(a.error);
    ar.field(a.threshold_abs);
  }
};

}  // namespace scd::detect
