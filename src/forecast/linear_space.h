// The LinearSignal concept: the abstraction that lets every forecasting model
// be written once and instantiated both at the sketch level (the paper's
// contribution, via k-ary sketch linearity) and at the per-flow level (the
// exact baseline, via DenseVector). §3.2: "All six models can be implemented
// on top of sketches by exploiting the linearity property of sketches."
//
// Every model is a linear map applied cell by cell, so each operation also
// has a cell-range form that touches only the cells [begin, end) of the
// flat cell array (a sketch's row-major registers, a vector's components).
// Running a sequence of operations over each block of a partition of the
// cells gives the bits the whole-signal sequence gives: the forecast step
// walks the table in cache-sized blocks this way (ForecastRunner). The
// whole-signal call is the range form over all cells().
#pragma once

#include <concepts>
#include <cstddef>

#include "common/cell_range.h"

namespace scd::forecast {

using common::CellRange;

template <typename V>
concept LinearSignal =
    std::copyable<V> && requires(V v, const V& cv, double c, CellRange r) {
      { cv.cells() } -> std::convertible_to<std::size_t>;
      { v.set_zero() };
      { v.scale(c) };
      { v.add_scaled(cv, c) };
      { v.set_zero(r) };
      { v.scale(c, r) };
      { v.add_scaled(cv, c, r) };
      { v.assign(cv, r) };
    };

/// Scalar instantiation — a single univariate time series. Used by unit tests
/// to validate every model against hand-computed forecasts, and by the
/// per-flow engine when only one key is of interest. Its one cell is in
/// every non-empty range.
class ScalarSignal {
 public:
  ScalarSignal() = default;
  explicit ScalarSignal(double v) noexcept : value_(v) {}

  [[nodiscard]] static constexpr std::size_t cells() noexcept { return 1; }

  void set_zero(CellRange r = {0, 1}) noexcept {
    if (r.size() != 0) value_ = 0.0;
  }
  void scale(double c, CellRange r = {0, 1}) noexcept {
    if (r.size() != 0) value_ *= c;
  }
  void add_scaled(const ScalarSignal& other, double c,
                  CellRange r = {0, 1}) noexcept {
    if (r.size() != 0) value_ += c * other.value_;
  }
  void assign(const ScalarSignal& other, CellRange r) noexcept {
    if (r.size() != 0) value_ = other.value_;
  }

  [[nodiscard]] double value() const noexcept { return value_; }
  void set_value(double v) noexcept { value_ = v; }

 private:
  double value_ = 0.0;
};

static_assert(LinearSignal<ScalarSignal>);

/// Returns a zero-valued signal with the same structure as the prototype.
template <LinearSignal V>
[[nodiscard]] V zero_like(const V& prototype) {
  V out = prototype;
  out.set_zero();
  return out;
}

/// out = a - b over the cells in `r`, as a copy of a plus -1 * b.
template <LinearSignal V>
void subtract_into(V& out, const V& a, const V& b, CellRange r) {
  out.assign(a, r);
  out.add_scaled(b, -1.0, r);
}

}  // namespace scd::forecast
