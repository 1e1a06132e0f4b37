#include "forecast/runner.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <deque>
#include <vector>

#include "common/random.h"
#include "sketch/kary_sketch.h"

namespace scd::forecast {
namespace {

ModelConfig ewma(double alpha = 0.5) {
  ModelConfig c;
  c.kind = ModelKind::kEwma;
  c.alpha = alpha;
  return c;
}

TEST(ForecastRunner, WarmupReturnsNullopt) {
  ForecastRunner<ScalarSignal> runner(ewma(), ScalarSignal{});
  EXPECT_FALSE(runner.step(ScalarSignal(10.0)).has_value());
  EXPECT_TRUE(runner.step(ScalarSignal(20.0)).has_value());
}

TEST(ForecastRunner, ErrorPlusForecastEqualsObserved) {
  // The defining identity S_o(t) = S_f(t) + S_e(t) (up to FP rounding of
  // the subtraction/re-addition), every step.
  ForecastRunner<ScalarSignal> runner(ewma(0.3), ScalarSignal{});
  scd::common::Rng rng(1);
  for (int t = 0; t < 50; ++t) {
    const double observed = rng.uniform(0, 1000);
    const auto step = runner.step(ScalarSignal(observed));
    if (!step.has_value()) continue;
    EXPECT_NEAR(step->forecast.value() + step->error.value(), observed,
                1e-9 * observed);
  }
}

TEST(ForecastRunner, SketchIdentityHoldsRegisterwise) {
  const auto family = sketch::make_tabulation_family(3, 5);
  const sketch::KarySketch prototype(family, 256);
  ForecastRunner<sketch::KarySketch> runner(ewma(), prototype);
  scd::common::Rng rng(2);
  for (int t = 0; t < 10; ++t) {
    sketch::KarySketch observed = prototype;
    for (int i = 0; i < 50; ++i) {
      observed.update(rng.next_below(1000), rng.uniform(0, 100));
    }
    const auto step = runner.step(observed);
    if (!step.has_value()) continue;
    for (std::size_t idx = 0; idx < observed.registers().size(); ++idx) {
      EXPECT_NEAR(step->forecast.registers()[idx] + step->error.registers()[idx],
                  observed.registers()[idx], 1e-9);
    }
  }
}

TEST(ForecastRunner, RejectsInvalidConfigAtConstruction) {
  ModelConfig bad = ewma(2.0);
  EXPECT_THROW(ForecastRunner<ScalarSignal>(bad, ScalarSignal{}),
               std::invalid_argument);
}

TEST(ForecastRunner, ModelAccessorReflectsProgress) {
  ForecastRunner<ScalarSignal> runner(ewma(), ScalarSignal{});
  EXPECT_EQ(runner.model().observed_count(), 0u);
  (void)runner.step(ScalarSignal(1.0));
  EXPECT_EQ(runner.model().observed_count(), 1u);
}

bool same_bytes(const sketch::KarySketch& a, const sketch::KarySketch& b) {
  return a.registers().size() == b.registers().size() &&
         std::memcmp(a.registers().data(), b.registers().data(),
                     a.registers().size_bytes()) == 0;
}

/// One valid configuration of each of the paper's six models.
std::vector<ModelConfig> six_models() {
  std::vector<ModelConfig> out;
  for (const ModelKind kind : all_model_kinds()) {
    ModelConfig c;
    c.kind = kind;
    c.window = 3;
    c.alpha = 0.4;
    c.beta = 0.3;
    c.arima.p = 2;
    c.arima.d = kind == ModelKind::kArima1 ? 1 : 0;
    c.arima.q = 1;
    c.arima.ar = {0.5, -0.2};
    c.arima.ma = {0.3, 0.0};
    EXPECT_TRUE(c.valid()) << c.to_string();
    out.push_back(c);
  }
  return out;
}

TEST(ForecastRunner, StepIntoEqualsStepByteForByte) {
  // step() wraps step_into(); the in-place form, writing into the same two
  // tables every interval as the engine does, must produce the same bytes
  // and the same warm-up, for every model.
  const auto family = sketch::make_tabulation_family(4, 3);
  const sketch::KarySketch prototype(family, 128);
  for (const ModelConfig& config : six_models()) {
    SCOPED_TRACE(config.to_string());
    ForecastRunner<sketch::KarySketch> by_value(config, prototype);
    ForecastRunner<sketch::KarySketch> in_place(config, prototype);
    sketch::KarySketch forecast = prototype;
    sketch::KarySketch error = prototype;
    scd::common::Rng rng(5);
    std::size_t ready_steps = 0;
    for (int t = 0; t < 12; ++t) {
      sketch::KarySketch observed = prototype;
      for (int i = 0; i < 200; ++i) {
        observed.update(rng.next_below(5000), rng.uniform(-50.0, 150.0));
      }
      const sketch::KarySketch forecast_before = forecast;
      const sketch::KarySketch error_before = error;
      const auto step = by_value.step(observed);
      const bool ready = in_place.step_into(observed, forecast, error);
      ASSERT_EQ(ready, step.has_value()) << "t=" << t;
      if (!ready) {
        // Warm-up leaves the caller's tables untouched.
        EXPECT_TRUE(same_bytes(forecast, forecast_before));
        EXPECT_TRUE(same_bytes(error, error_before));
        continue;
      }
      ++ready_steps;
      EXPECT_TRUE(same_bytes(forecast, step->forecast)) << "t=" << t;
      EXPECT_TRUE(same_bytes(error, step->error)) << "t=" << t;
    }
    EXPECT_GT(ready_steps, 0u);
    EXPECT_LT(ready_steps, 12u);  // every model has a warm-up
  }
}

/// `n` observed sketches of random updates, some negative.
std::deque<sketch::KarySketch> random_tables(
    const sketch::KarySketch& prototype, int n) {
  scd::common::Rng rng(9);
  std::deque<sketch::KarySketch> tables;
  for (int t = 0; t < n; ++t) {
    sketch::KarySketch& observed = tables.emplace_back(prototype);
    for (int i = 0; i < 200; ++i) {
      observed.update(rng.next_below(5000), rng.uniform(-50.0, 150.0));
    }
  }
  return tables;
}

TEST(EstimatedTotalF2, EqualsTheHandSummedLoop) {
  const auto family = sketch::make_tabulation_family(4, 1);
  const sketch::KarySketch prototype(family, 64);
  const auto tables = random_tables(prototype, 12);
  sketch::KarySketch forecast = prototype;
  sketch::KarySketch error = prototype;
  for (const ModelConfig& config : six_models()) {
    for (const std::size_t skip : {std::size_t{0}, std::size_t{5}}) {
      SCOPED_TRACE(config.to_string() + " skip=" + std::to_string(skip));
      ForecastRunner<sketch::KarySketch> runner(config, prototype);
      double want = 0.0;
      for (std::size_t t = 0; t < tables.size(); ++t) {
        const auto step = runner.step(tables[t]);
        if (step.has_value() && t >= skip) {
          want += std::max(step->error.estimate_f2(), 0.0);
        }
      }
      EXPECT_GT(want, 0.0);
      EXPECT_EQ(estimated_total_f2(config, tables, skip, forecast, error),
                want);
    }
  }
}

TEST(EstimatedTotalF2, IsInfiniteWhenNoIntervalFromSkipOnIsForecast) {
  const auto family = sketch::make_tabulation_family(4, 1);
  const sketch::KarySketch prototype(family, 64);
  const auto tables = random_tables(prototype, 6);
  sketch::KarySketch forecast = prototype;
  sketch::KarySketch error = prototype;
  // Seasonal Holt-Winters with an 8-interval season never warms up on six.
  ModelConfig shw;
  shw.kind = ModelKind::kSeasonalHoltWinters;
  shw.period = 8;
  EXPECT_TRUE(std::isinf(estimated_total_f2(shw, tables, 0, forecast, error)));
  // EWMA forecasts intervals 1..5: finite up to skip 5, infinite past it.
  EXPECT_TRUE(
      std::isfinite(estimated_total_f2(ewma(), tables, 5, forecast, error)));
  EXPECT_TRUE(
      std::isinf(estimated_total_f2(ewma(), tables, 6, forecast, error)));
  const std::deque<sketch::KarySketch> none;
  EXPECT_TRUE(std::isinf(estimated_total_f2(ewma(), none, 0, forecast, error)));
}

}  // namespace
}  // namespace scd::forecast
