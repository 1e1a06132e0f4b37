// ForecastCellRange: the forecast step walked in blocks of cells gives the
// whole-table step's bits. Every model is a linear map applied cell by
// cell, so for any partition of the cells, forecasting and observing each
// block and then advancing once must reproduce S_f, S_e and the saved model
// state of the whole-signal calls exactly — through warm-up, a re-warm of a
// rebuilt model over kept history (what the engine's refit does), and a
// save_state/restore_state in mid-stream.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <deque>
#include <memory>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "common/bytes.h"
#include "common/random.h"
#include "forecast/model_config.h"
#include "forecast/model_factory.h"
#include "forecast/runner.h"
#include "perflow/dense_vector.h"
#include "sketch/kary_sketch.h"

namespace scd::forecast {
namespace {

using perflow::DenseVector;
using sketch::KarySketch;
using sketch::KarySketch64;

/// Every model kind, with parameters that exercise each recurrence.
std::vector<ModelConfig> every_model() {
  std::vector<ModelConfig> out;
  ModelConfig c;
  c.kind = ModelKind::kEwma;
  c.alpha = 0.3;
  out.push_back(c);
  c = {};
  c.kind = ModelKind::kHoltWinters;
  c.alpha = 0.4;
  c.beta = 0.2;
  out.push_back(c);
  c = {};
  c.kind = ModelKind::kSeasonalHoltWinters;
  c.alpha = 0.3;
  c.beta = 0.1;
  c.gamma = 0.2;
  c.period = 3;
  out.push_back(c);
  c = {};
  c.kind = ModelKind::kMovingAverage;
  c.window = 3;
  out.push_back(c);
  c = {};
  c.kind = ModelKind::kSShapedMA;
  c.window = 4;
  out.push_back(c);
  c = {};
  c.kind = ModelKind::kArima0;
  c.arima = {2, 0, 1, {0.5, 0.2}, {0.3, 0.0}};
  out.push_back(c);
  c = {};
  c.kind = ModelKind::kArima1;
  c.arima = {1, 1, 2, {0.4, 0.0}, {0.3, 0.1}};
  out.push_back(c);
  for (const ModelConfig& m : out) EXPECT_TRUE(m.valid()) << m.to_string();
  return out;
}

KarySketch prototype_of(const KarySketch*) {
  return {sketch::make_tabulation_family(3, 2), 256};
}
KarySketch64 prototype_of(const KarySketch64*) {
  return {sketch::make_cw_family(3, 3), 128};
}
DenseVector prototype_of(const DenseVector*) { return DenseVector(300); }

/// A signal of `prototype`'s shape with random cells, some negative.
template <class V>
V random_signal(const V& prototype, common::Rng& rng) {
  V out = prototype;
  if constexpr (std::is_same_v<V, DenseVector>) {
    for (std::size_t i = 0; i < out.dimension(); ++i) {
      out[i] = rng.uniform(-50.0, 150.0);
    }
  } else {
    std::vector<double> cells(out.cells());
    for (double& v : cells) v = rng.uniform(-50.0, 150.0);
    out.load_registers(cells);
  }
  return out;
}

template <class V>
std::vector<std::uint64_t> bits(const V& v) {
  std::vector<std::uint64_t> out;
  if constexpr (std::is_same_v<V, DenseVector>) {
    for (const double d : v.values()) {
      out.push_back(std::bit_cast<std::uint64_t>(d));
    }
  } else {
    for (const double d : v.registers()) {
      out.push_back(std::bit_cast<std::uint64_t>(d));
    }
  }
  return out;
}

/// The model's saved state, or nothing for a signal space without a codec.
template <class V>
std::vector<std::uint8_t> saved(const ForecastModel<V>& model) {
  std::vector<std::uint8_t> bytes;
  if constexpr (common::Transferable<V>) {
    common::ByteWriter out(bytes);
    model.save_state(out);
  }
  return bytes;
}

/// One model driven by whole-signal calls, one by blocks of `block` cells,
/// side by side over the same observations.
template <class V>
class Pair {
 public:
  Pair(const ModelConfig& config, const V& prototype, std::size_t block)
      : config_(config),
        prototype_(prototype),
        block_(block),
        whole_(make_model<V>(config, prototype)),
        blocked_(make_model<V>(config, prototype)),
        forecast_{prototype, prototype},
        error_{prototype, prototype} {}

  /// One interval on both sides; fails on the first differing bit.
  void step(const V& observed, const char* phase, std::size_t t) {
    SCOPED_TRACE(::testing::Message() << phase << " t=" << t);
    const bool ready = whole_->ready();
    if (ready) whole_->forecast_into(forecast_[0]);
    whole_->observe(observed);
    if (ready) {
      error_[0] = observed;
      error_[0].add_scaled(forecast_[0], -1.0);
    }
    ASSERT_EQ(
        step_blocks(*blocked_, observed, forecast_[1], error_[1], block_),
        ready);
    EXPECT_EQ(bits(forecast_[1]), bits(forecast_[0]));
    EXPECT_EQ(bits(error_[1]), bits(error_[0]));
    EXPECT_EQ(saved(*blocked_), saved(*whole_));
  }

  /// Both sides rebuilt and re-warmed over `history`.
  void rewarm(const std::deque<V>& history) {
    whole_ = make_model<V>(config_, prototype_);
    blocked_ = make_model<V>(config_, prototype_);
    for (std::size_t t = 0; t < history.size(); ++t) {
      step(history[t], "re-warm", t);
    }
  }

  /// The blocked side continues from a snapshot restored into a fresh
  /// model.
  void restore_blocked() {
    if constexpr (common::Transferable<V>) {
      const std::vector<std::uint8_t> bytes = saved(*blocked_);
      blocked_ = make_model<V>(config_, prototype_);
      common::ByteReader in(bytes, "model state");
      blocked_->restore_state(in);
      EXPECT_EQ(in.remaining(), 0u);
      EXPECT_EQ(saved(*blocked_), bytes);
    }
  }

 private:
  ModelConfig config_;
  V prototype_;
  std::size_t block_;
  std::unique_ptr<ForecastModel<V>> whole_;
  std::unique_ptr<ForecastModel<V>> blocked_;
  V forecast_[2];
  V error_[2];
};

template <class V>
void expect_blocked_equals_whole() {
  const V prototype = prototype_of(static_cast<const V*>(nullptr));
  const std::size_t cells = prototype.cells();
  for (const ModelConfig& config : every_model()) {
    for (const std::size_t block : {std::size_t{1}, std::size_t{7},
                                    std::size_t{1000}, cells}) {
      SCOPED_TRACE(::testing::Message() << config.to_string()
                                        << " block=" << block);
      Pair<V> pair(config, prototype, block);
      common::Rng rng(17);
      std::deque<V> history;
      for (std::size_t t = 0; t < 14; ++t) {
        history.push_back(random_signal(prototype, rng));
        if (history.size() > 6) history.pop_front();
        pair.step(history.back(), "stream", t);
        if (t == 5) pair.restore_blocked();
        if (t == 9) pair.rewarm(history);
      }
    }
  }
}

TEST(ForecastCellRange, BlockedStepEqualsWholeTableStep) {
  expect_blocked_equals_whole<KarySketch>();
  expect_blocked_equals_whole<KarySketch64>();
  expect_blocked_equals_whole<DenseVector>();
}

TEST(ForecastCellRange, RunnerStepIsTheBlockedStep) {
  // ForecastRunner walks the table in kStepBlock cells; a table of several
  // blocks and a ragged last one gives the one-block step's bits.
  const KarySketch prototype(sketch::make_tabulation_family(5, 5), 512);
  constexpr std::size_t kBlock = ForecastRunner<KarySketch>::kStepBlock;
  ASSERT_GT(prototype.cells(), 2 * kBlock);
  ASSERT_NE(prototype.cells() % kBlock, 0u);
  for (const ModelConfig& config : every_model()) {
    SCOPED_TRACE(config.to_string());
    ForecastRunner<KarySketch> runner(config, prototype);
    const auto model = make_model<KarySketch>(config, prototype);
    KarySketch forecast[2] = {prototype, prototype};
    KarySketch error[2] = {prototype, prototype};
    common::Rng rng(23);
    for (std::size_t t = 0; t < 8; ++t) {
      const KarySketch observed = random_signal(prototype, rng);
      const bool ready = runner.step_into(observed, forecast[0], error[0]);
      ASSERT_EQ(step_blocks(*model, observed, forecast[1], error[1],
                            prototype.cells()),
                ready);
      EXPECT_EQ(bits(forecast[0]), bits(forecast[1])) << "t=" << t;
      EXPECT_EQ(bits(error[0]), bits(error[1])) << "t=" << t;
    }
  }
}

TEST(ForecastCellRange, RangeOpsTouchOnlyTheirCells) {
  const KarySketch prototype(sketch::make_tabulation_family(7, 2), 16);
  common::Rng rng(3);
  const KarySketch a = random_signal(prototype, rng);
  const KarySketch b = random_signal(prototype, rng);
  const CellRange r{5, 20};
  KarySketch x = a;
  x.set_zero(r);
  x.scale(2.0, r);
  x.add_scaled(b, 0.5, r);
  KarySketch y = a;
  y.assign(b, r);
  for (std::size_t i = 0; i < a.cells(); ++i) {
    const bool in = i >= r.begin && i < r.end;
    EXPECT_EQ(x.registers()[i], in ? 0.5 * b.registers()[i] : a.registers()[i])
        << i;
    EXPECT_EQ(y.registers()[i], in ? b.registers()[i] : a.registers()[i]) << i;
  }
  // The partial writes left no stale cached sum behind.
  double row0 = 0.0;
  for (std::size_t j = 0; j < 16; ++j) row0 += x.registers()[j];
  EXPECT_NEAR(x.sum(), row0, 1e-9);
  const KarySketch other(sketch::make_tabulation_family(8, 2), 16);
  EXPECT_THROW(x.add_scaled(other, 1.0, r), std::invalid_argument);
  EXPECT_THROW(x.assign(b, CellRange{0, a.cells() + 1}), std::invalid_argument);
}

}  // namespace
}  // namespace scd::forecast
