// Abstract forecasting model over an arbitrary linear signal space.
//
// Protocol per time interval t (paper §2.2):
//   1. if ready(), call forecast_into(f)   -> S_f(t)
//   2. call observe(o)                     -> feeds S_o(t) into the state
// The caller computes the error signal S_e(t) = S_o(t) - S_f(t).
//
// Every model is a linear map applied cell by cell, so steps 1 and 2 also
// come in a cell-range form: for each range of a partition of the cells
// (common::CellRange), forecast_into(f, range) then observe(o, range);
// then advance() once, which moves the per-interval scalar state (the
// observation count, the history rings' heads). That gives the same bits
// as the whole-signal calls, which are exactly this over one range of all
// cells; ForecastRunner walks the table in cache-sized blocks this way.
// Within an interval a range's observe() may overwrite state that its
// forecast_into() read, so each range is forecast before it is observed.
//
// ready() is false while the model is still warming up (e.g. NSHW needs two
// observations to initialize its trend component).
#pragma once

#include <cstddef>

#include "common/bytes.h"
#include "forecast/linear_space.h"

namespace scd::forecast {

/// The checkpoint half of ForecastModel. Only a signal space with a byte
/// codec (common::Transferable: the engine's k-ary counter tables) has one;
/// models over ScalarSignal or DenseVector carry no state codec at all.
template <typename V>
class ModelState {};

template <common::Transferable V>
class ModelState<V> {
 public:
  virtual ~ModelState() = default;

  /// Writes the model's complete mutable state (counters and stored
  /// signals). Configuration parameters are NOT written — a restored model
  /// is first rebuilt from its ModelConfig, then fed the snapshot. After
  /// restore_state consumes a matching save_state stream, all future
  /// forecasts are bit-identical to the source model's.
  virtual void save_state(common::ByteWriter& out) const = 0;
  virtual void restore_state(common::ByteReader& in) = 0;
};

template <LinearSignal V>
class ForecastModel : public ModelState<V> {
 public:
  virtual ~ForecastModel() = default;

  /// True when enough history exists to produce a forecast for the next
  /// interval.
  [[nodiscard]] virtual bool ready() const noexcept = 0;

  /// Writes the forecast for the next interval into the cells of `out` in
  /// `range`. Precondition: ready().
  virtual void forecast_into(V& out, CellRange range) const = 0;

  /// Feeds the cells in `range` of the observed signal for the interval the
  /// last forecast covered. Takes effect with the next advance().
  virtual void observe(const V& observed, CellRange range) = 0;

  /// Ends the interval whose cells observe() fed: updates the scalar state.
  virtual void advance() = 0;

  /// The whole-signal calls: the range forms over all cells, and observe()
  /// also advances.
  void forecast_into(V& out) const { forecast_into(out, {0, out.cells()}); }
  void observe(const V& observed) {
    observe(observed, {0, observed.cells()});
    advance();
  }

  /// Number of observe() calls so far.
  [[nodiscard]] virtual std::size_t observed_count() const noexcept = 0;
};

/// Every model's base (CRTP). Over a Transferable signal space it
/// implements ModelState through the model's one field list, a
/// `template <class Ar, class Self> static void transfer(Ar&, Self&)`.
template <class Derived, LinearSignal V>
class ModelBase : public ForecastModel<V> {};

template <class Derived, LinearSignal V>
  requires common::Transferable<V>
class ModelBase<Derived, V> : public ForecastModel<V> {
 public:
  void save_state(common::ByteWriter& out) const final {
    Derived::transfer(out, static_cast<const Derived&>(*this));
  }
  void restore_state(common::ByteReader& in) final {
    Derived::transfer(in, static_cast<Derived&>(*this));
  }
};

}  // namespace scd::forecast
