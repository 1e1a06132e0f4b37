// DenseVector: the exact per-flow signal space.
//
// One component per distinct key (indexed via KeyDictionary). Running the
// forecasting models over DenseVector applies each (shared-parameter) linear
// model to every flow's univariate series simultaneously — this *is* the
// paper's per-flow analysis, and it is the accuracy baseline for every
// figure in §5.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <span>
#include <vector>

#include "common/cell_range.h"
#include "forecast/linear_space.h"
#include "simd/kernels.h"

namespace scd::perflow {

class DenseVector {
 public:
  DenseVector() = default;
  explicit DenseVector(std::size_t dimension) : values_(dimension, 0.0) {}

  /// The component count; the cells of the cell-range operations
  /// (common::CellRange), whose whole-vector calls are the full range.
  [[nodiscard]] std::size_t cells() const noexcept { return values_.size(); }

  void set_zero(common::CellRange r) noexcept {
    assert(r.begin <= r.end && r.end <= values_.size());
    std::fill_n(values_.begin() + static_cast<std::ptrdiff_t>(r.begin),
                r.size(), 0.0);
  }
  void set_zero() noexcept { set_zero(common::CellRange{0, cells()}); }

  void scale(double c, common::CellRange r) noexcept {
    assert(r.begin <= r.end && r.end <= values_.size());
    simd::scale(values_.data() + r.begin, r.size(), c);
  }
  void scale(double c) noexcept { scale(c, common::CellRange{0, cells()}); }

  void add_scaled(const DenseVector& other, double c,
                  common::CellRange r) noexcept {
    assert(values_.size() == other.values_.size());
    assert(r.begin <= r.end && r.end <= values_.size());
    simd::axpy(values_.data() + r.begin, other.values_.data() + r.begin,
               r.size(), c);
  }
  void add_scaled(const DenseVector& other, double c) noexcept {
    add_scaled(other, c, common::CellRange{0, cells()});
  }

  void assign(const DenseVector& other, common::CellRange r) noexcept {
    assert(values_.size() == other.values_.size());
    assert(r.begin <= r.end && r.end <= values_.size());
    if (this == &other) return;
    std::copy_n(other.values_.begin() + static_cast<std::ptrdiff_t>(r.begin),
                r.size(),
                values_.begin() + static_cast<std::ptrdiff_t>(r.begin));
  }

  [[nodiscard]] double& operator[](std::size_t i) noexcept { return values_[i]; }
  [[nodiscard]] double operator[](std::size_t i) const noexcept {
    return values_[i];
  }

  [[nodiscard]] std::size_t dimension() const noexcept { return values_.size(); }
  [[nodiscard]] std::span<const double> values() const noexcept { return values_; }

  /// Exact second moment F2 = sum_i v_i^2.
  [[nodiscard]] double f2() const noexcept {
    return simd::sum_squares(values_.data(), values_.size());
  }

 private:
  std::vector<double> values_;
};

static_assert(scd::forecast::LinearSignal<DenseVector>);

}  // namespace scd::perflow
