#include "sketch/mv_sketch.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "hash/cw_hash.h"
#include "hash/tabulation_hash.h"
#include "sketch/kary_sketch.h"

namespace scd::sketch {

template <hash::HashFamily16 Family>
std::vector<RecoveredHeavyKey> recover_heavy_keys(
    const BasicKarySketch<Family>& error, double threshold_abs,
    std::span<const BasicMvSketch<Family>* const> sources,
    std::size_t* candidates_swept) {
  for (const BasicMvSketch<Family>* source : sources) {
    if (!error.compatible(source->counters())) {
      throw std::invalid_argument(
          "recover_heavy_keys: source sketch does not share the error "
          "sketch's family and width");
    }
  }
  const std::span<const double> counters = error.registers();
  std::vector<std::uint64_t> cands;
  for (std::size_t idx = 0; idx < counters.size(); ++idx) {
    if (std::abs(counters[idx]) < threshold_abs) continue;
    for (const BasicMvSketch<Family>* source : sources) {
      if (source->votes()[idx] > 0.0) {
        cands.push_back(source->candidates()[idx]);
      }
    }
  }
  std::sort(cands.begin(), cands.end());
  cands.erase(std::unique(cands.begin(), cands.end()), cands.end());
  if (candidates_swept != nullptr) *candidates_swept = cands.size();

  std::vector<RecoveredHeavyKey> out;
  out.reserve(cands.size());
  for (const std::uint64_t key : cands) {
    const double est = error.estimate(key);
    if (std::abs(est) >= threshold_abs) {
      out.push_back(RecoveredHeavyKey{key, est});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const RecoveredHeavyKey& a, const RecoveredHeavyKey& b) {
              const double aa = std::abs(a.value);
              const double bb = std::abs(b.value);
              if (aa != bb) return aa > bb;
              return a.key < b.key;
            });
  return out;
}

template class BasicMvSketch<hash::TabulationHashFamily>;
template class BasicMvSketch<hash::CwHashFamily>;
template std::vector<RecoveredHeavyKey> recover_heavy_keys(
    const KarySketch& error, double threshold_abs,
    std::span<const MvSketch* const> sources, std::size_t* candidates_swept);
template std::vector<RecoveredHeavyKey> recover_heavy_keys(
    const KarySketch64& error, double threshold_abs,
    std::span<const MvSketch64* const> sources, std::size_t* candidates_swept);

}  // namespace scd::sketch
