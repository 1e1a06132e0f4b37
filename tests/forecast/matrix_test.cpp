// Compatibility matrix: every forecast model must behave identically across
// every LinearSignal instantiation the library ships — scalar, dense vector,
// 32-bit k-ary sketch, 64-bit k-ary sketch, and the invertible (majority-vote)
// sketch.
// The invariants checked per (model, space):
//   * ready() flips at the same observation count as on scalars,
//   * an all-zero series forecasts (near) zero,
//   * a constant series is eventually forecast (near) exactly,
//   * forecasts are reproducible for identical inputs.
#include <gtest/gtest.h>

#include <cmath>

#include "forecast/model_factory.h"
#include "perflow/dense_vector.h"
#include "sketch/kary_sketch.h"
#include "sketch/mv_sketch.h"

namespace scd::forecast {
namespace {

struct MatrixCase {
  ModelConfig config;
  /// Steady-state forecast for a constant-100 series. 100 for every model
  /// that can represent a level; the zero-mean ARMA(1,1) without constant
  /// settles at (0.5*100 + 0.3*100) / (1 + 0.3) = 80/1.3.
  double const_forecast = 100.0;
};

std::vector<MatrixCase> all_cases() {
  std::vector<MatrixCase> cases;
  MatrixCase m;
  m.config.kind = ModelKind::kMovingAverage;
  m.config.window = 3;
  cases.push_back(m);
  m.config.kind = ModelKind::kSShapedMA;
  m.config.window = 4;
  cases.push_back(m);
  m.config.kind = ModelKind::kEwma;
  m.config.alpha = 0.5;
  cases.push_back(m);
  m.config.kind = ModelKind::kHoltWinters;
  m.config.alpha = 0.5;
  m.config.beta = 0.3;
  cases.push_back(m);
  m.config.kind = ModelKind::kArima0;
  m.config.arima = {.p = 1, .d = 0, .q = 1, .ar = {0.5, 0.0}, .ma = {0.3, 0.0}};
  m.const_forecast = 80.0 / 1.3;
  cases.push_back(m);
  m = MatrixCase{};
  m.config.kind = ModelKind::kArima1;
  m.config.arima = {.p = 1, .d = 1, .q = 0, .ar = {0.5, 0.0}, .ma = {0.0, 0.0}};
  cases.push_back(m);
  m = MatrixCase{};
  m.config.kind = ModelKind::kSeasonalHoltWinters;
  m.config.alpha = 0.4;
  m.config.beta = 0.2;
  m.config.gamma = 0.3;
  m.config.period = 4;
  cases.push_back(m);
  return cases;
}

/// Drives `model` with `count` observations of `signal`, returning the
/// estimate of key 7 in the final forecast (via the space's probe).
template <typename V, typename Probe, typename MakeObs>
void run_matrix_case(const MatrixCase& mcase, const V& prototype,
                     const MakeObs& make_obs, const Probe& probe) {
  const ModelConfig& config = mcase.config;
  SCOPED_TRACE(config.to_string());
  // (1) ready() count matches the scalar reference.
  const auto scalar = make_model<ScalarSignal>(config, ScalarSignal{});
  const auto model = make_model<V>(config, prototype);
  for (int t = 0; t < 12; ++t) {
    ASSERT_EQ(model->ready(), scalar->ready()) << "t=" << t;
    model->observe(make_obs(100.0));
    scalar->observe(ScalarSignal(100.0));
  }
  ASSERT_TRUE(model->ready());

  // (2) constant series: forecast ~ the constant.
  V forecast = prototype;
  model->forecast_into(forecast);
  EXPECT_NEAR(probe(forecast), mcase.const_forecast, 2.0);

  // (3) zero series forecasts ~ zero.
  const auto zero_model = make_model<V>(config, prototype);
  for (int t = 0; t < 12; ++t) zero_model->observe(make_obs(0.0));
  V zero_forecast = prototype;
  zero_model->forecast_into(zero_forecast);
  EXPECT_NEAR(probe(zero_forecast), 0.0, 1.0);

  // (4) reproducibility.
  const auto again = make_model<V>(config, prototype);
  for (int t = 0; t < 12; ++t) again->observe(make_obs(100.0));
  V forecast2 = prototype;
  again->forecast_into(forecast2);
  EXPECT_DOUBLE_EQ(probe(forecast), probe(forecast2));
}

TEST(ModelSpaceMatrix, DenseVector) {
  for (const auto& mcase : all_cases()) {
    const perflow::DenseVector prototype(16);
    run_matrix_case(
        mcase, prototype,
        [](double v) {
          perflow::DenseVector obs(16);
          obs[7] = v;
          return obs;
        },
        [](const perflow::DenseVector& f) { return f[7]; });
  }
}

TEST(ModelSpaceMatrix, KarySketch32) {
  for (const auto& mcase : all_cases()) {
    const auto family = sketch::make_tabulation_family(1, 5);
    const sketch::KarySketch prototype(family, 1024);
    run_matrix_case(
        mcase, prototype,
        [&family](double v) {
          sketch::KarySketch obs(family, 1024);
          obs.update(7, v);
          return obs;
        },
        [](const sketch::KarySketch& f) { return f.estimate(7); });
  }
}

TEST(ModelSpaceMatrix, KarySketch64) {
  for (const auto& mcase : all_cases()) {
    const auto family = sketch::make_cw_family(2, 5);
    const sketch::KarySketch64 prototype(family, 1024);
    const std::uint64_t wide_key = 0xabcdef0123456789ULL;
    run_matrix_case(
        mcase, prototype,
        [&family, wide_key](double v) {
          sketch::KarySketch64 obs(family, 1024);
          obs.update(wide_key, v);
          return obs;
        },
        [wide_key](const sketch::KarySketch64& f) {
          return f.estimate(wide_key);
        });
  }
}

TEST(ModelSpaceMatrix, MvSketch) {
  for (const auto& mcase : all_cases()) {
    const auto family = sketch::make_tabulation_family(3, 5);
    const sketch::MvSketch prototype(family, 512);
    run_matrix_case(
        mcase, prototype,
        [&family](double v) {
          sketch::MvSketch obs(family, 512);
          obs.update(7, v);
          return obs;
        },
        [](const sketch::MvSketch& f) { return f.counters().estimate(7); });
  }
}

}  // namespace
}  // namespace scd::forecast
