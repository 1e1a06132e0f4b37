// Fixture seed: a front end that keeps its own stream clock and counts late
// records itself instead of binning them through core/interval_cutter.h —
// the interval-cutter rule must fire on the increment below.
#include <cstdint>

namespace fixture {

struct Feeder {
  double start_s = 0.0;
  double high_water_s = 0.0;
  std::uint64_t out_of_order_records = 0;

  double bin(double time_s) {
    if (time_s < high_water_s) {
      ++out_of_order_records;
      if (time_s < start_s) time_s = start_s;
    } else {
      high_water_s = time_s;
    }
    return time_s;
  }
};

}  // namespace fixture
