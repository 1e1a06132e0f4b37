// Cross-validation of the per-flow truth path and the sketch path on a
// controlled synthetic stream.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "detect/detection.h"
#include "eval/intervalized.h"
#include "eval/metrics.h"
#include "eval/sketch_path.h"
#include "eval/truth.h"
#include "forecast/runner.h"
#include "hash/cw_hash.h"
#include "hash/tabulation_hash.h"
#include "sketch/kary_sketch.h"
#include "traffic/key_extract.h"
#include "traffic/synthetic.h"

namespace scd::eval {
namespace {

std::vector<traffic::FlowRecord> small_trace() {
  traffic::SyntheticConfig config;
  config.seed = 3;
  config.duration_s = 1200.0;  // 20 intervals at 60 s
  config.base_rate = 40.0;
  config.num_hosts = 300;
  config.zipf_exponent = 1.0;
  traffic::AnomalySpec dos;
  dos.kind = traffic::AnomalyKind::kDosAttack;
  dos.start_s = 700.0;
  dos.duration_s = 120.0;
  dos.magnitude = 150.0;
  dos.target_rank = 40;
  config.anomalies.push_back(dos);
  return traffic::SyntheticTraceGenerator(config).generate();
}

forecast::ModelConfig ewma(double alpha = 0.5) {
  forecast::ModelConfig c;
  c.kind = forecast::ModelKind::kEwma;
  c.alpha = alpha;
  return c;
}

/// One configuration of each model the exact-agreement test runs.
std::vector<forecast::ModelConfig> agreement_models() {
  forecast::ModelConfig nshw;
  nshw.kind = forecast::ModelKind::kHoltWinters;
  nshw.alpha = 0.5;
  nshw.beta = 0.3;
  forecast::ModelConfig arima;
  arima.kind = forecast::ModelKind::kArima1;
  arima.arima.p = 1;
  arima.arima.d = 1;
  arima.arima.q = 1;
  arima.arima.ar = {0.5, 0.0};
  arima.arima.ma = {-0.3, 0.0};
  forecast::ModelConfig ma;
  ma.kind = forecast::ModelKind::kMovingAverage;
  ma.window = 3;
  return {ewma(), nshw, arima, ma};
}

/// The bare sketch-level detection loop: a forecast runner over each
/// interval's per-key-summed observed sketch, every key of the interval
/// ranked through ESTIMATE on S_e. compute_sketch_errors must equal it.
template <typename Family>
SketchPathResult reference_loop(const IntervalizedStream& stream,
                                const forecast::ModelConfig& config,
                                const SketchPathOptions& options) {
  using Sketch = sketch::BasicKarySketch<Family>;
  const auto family = std::make_shared<const Family>(options.seed, options.h);
  const Sketch prototype(family, options.k);
  forecast::ForecastRunner<Sketch> runner(config, prototype);

  SketchPathResult result;
  result.intervals.resize(stream.num_intervals());
  for (std::size_t t = 0; t < stream.num_intervals(); ++t) {
    Sketch observed = prototype;
    stream.fill_observed_sketch(t, observed);
    const auto step = runner.step(observed);
    SketchIntervalErrors& out = result.intervals[t];
    if (!step.has_value()) continue;
    out.ready = true;
    out.est_f2 = step->error.estimate_f2();
    if (options.collect_errors) {
      const auto updates = stream.interval(t);
      out.ranked.reserve(updates.size());
      for (const AggregatedUpdate& u : updates) {
        out.ranked.push_back({u.key, step->error.estimate(u.key)});
      }
      detect::sort_by_abs_error(out.ranked);
    }
  }
  return result;
}

SketchPathResult reference_loop_for(const IntervalizedStream& stream,
                                    const forecast::ModelConfig& config,
                                    const SketchPathOptions& options) {
  if (traffic::key_fits_32bit(stream.key_kind())) {
    return reference_loop<hash::TabulationHashFamily>(stream, config, options);
  }
  return reference_loop<hash::CwHashFamily>(stream, config, options);
}

class PathsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    trace_ = new std::vector<traffic::FlowRecord>(small_trace());
    stream_ = new IntervalizedStream(*trace_, 60.0, traffic::KeyKind::kDstIp,
                                     traffic::UpdateKind::kBytes);
  }
  static void TearDownTestSuite() {
    delete stream_;
    delete trace_;
    stream_ = nullptr;
    trace_ = nullptr;
  }
  static std::vector<traffic::FlowRecord>* trace_;
  static IntervalizedStream* stream_;
};

std::vector<traffic::FlowRecord>* PathsTest::trace_ = nullptr;
IntervalizedStream* PathsTest::stream_ = nullptr;

TEST_F(PathsTest, TruthWarmupFollowsModel) {
  const auto truth = compute_perflow_truth(*stream_, ewma());
  ASSERT_EQ(truth.intervals.size(), stream_->num_intervals());
  EXPECT_FALSE(truth.intervals[0].ready);  // EWMA needs one observation
  for (std::size_t t = 1; t < truth.intervals.size(); ++t) {
    EXPECT_TRUE(truth.intervals[t].ready) << t;
  }
}

TEST_F(PathsTest, TruthF2DominatesCandidateErrors) {
  const auto truth = compute_perflow_truth(*stream_, ewma());
  for (const auto& interval : truth.intervals) {
    if (!interval.ready) continue;
    double candidate_f2 = 0.0;
    for (const auto& e : interval.ranked) candidate_f2 += e.error * e.error;
    EXPECT_GE(interval.f2 + 1e-6, candidate_f2);
  }
}

TEST_F(PathsTest, TruthRankedIsSortedDescending) {
  const auto truth = compute_perflow_truth(*stream_, ewma());
  for (const auto& interval : truth.intervals) {
    for (std::size_t i = 1; i < interval.ranked.size(); ++i) {
      EXPECT_GE(std::abs(interval.ranked[i - 1].error),
                std::abs(interval.ranked[i].error));
    }
  }
}

TEST_F(PathsTest, CollectErrorsFalseSkipsRanking) {
  const auto truth = compute_perflow_truth(*stream_, ewma(), false);
  for (const auto& interval : truth.intervals) {
    EXPECT_TRUE(interval.ranked.empty());
  }
  EXPECT_GT(truth.total_f2(2), 0.0);
}

TEST_F(PathsTest, SketchPathWithHugeKMatchesTruth) {
  const auto truth = compute_perflow_truth(*stream_, ewma());
  SketchPathOptions options;
  options.h = 5;
  options.k = 65536;  // far above distinct keys per interval
  const auto sketch = compute_sketch_errors(*stream_, ewma(), options);
  ASSERT_EQ(sketch.intervals.size(), truth.intervals.size());
  for (std::size_t t = 2; t < truth.intervals.size(); ++t) {
    ASSERT_EQ(sketch.intervals[t].ready, truth.intervals[t].ready);
    if (!truth.intervals[t].ready) continue;
    EXPECT_NEAR(sketch.intervals[t].est_f2, truth.intervals[t].f2,
                0.05 * truth.intervals[t].f2 + 1.0)
        << t;
    const double similarity = topn_similarity(truth.intervals[t].ranked,
                                              sketch.intervals[t].ranked, 50);
    EXPECT_GT(similarity, 0.9) << t;
  }
}

TEST_F(PathsTest, SmallKDegradesGracefully) {
  SketchPathOptions big, small;
  big.k = 32768;
  small.k = 64;  // heavy collisions
  const auto truth = compute_perflow_truth(*stream_, ewma());
  const auto s_big = compute_sketch_errors(*stream_, ewma(), big);
  const auto s_small = compute_sketch_errors(*stream_, ewma(), small);
  double sim_big = 0.0, sim_small = 0.0;
  int n = 0;
  for (std::size_t t = 2; t < truth.intervals.size(); ++t) {
    if (!truth.intervals[t].ready) continue;
    sim_big += topn_similarity(truth.intervals[t].ranked,
                               s_big.intervals[t].ranked, 20);
    sim_small += topn_similarity(truth.intervals[t].ranked,
                                 s_small.intervals[t].ranked, 20);
    ++n;
  }
  EXPECT_GT(sim_big / n, sim_small / n);
}

TEST_F(PathsTest, TotalEnergyRespectsWarmup) {
  const auto truth = compute_perflow_truth(*stream_, ewma());
  EXPECT_GE(truth.total_f2(0), truth.total_f2(5));
  EXPECT_DOUBLE_EQ(truth.total_energy(3), std::sqrt(truth.total_f2(3)));
}

TEST_F(PathsTest, SketchTotalEnergyTracksPerFlow) {
  const auto truth = compute_perflow_truth(*stream_, ewma(), false);
  SketchPathOptions options;
  options.k = 8192;
  options.h = 5;
  options.collect_errors = false;
  const auto sketch = compute_sketch_errors(*stream_, ewma(), options);
  const double rel = relative_difference_pct(sketch.total_energy(2),
                                             truth.total_energy(2));
  EXPECT_LT(std::abs(rel), 5.0);  // paper Fig 3: insignificant at K=8192
}

TEST_F(PathsTest, SrcDstPairKeysUseWideFamilyEndToEnd) {
  // 64-bit keys force the Carter-Wegman path through compute_sketch_errors;
  // accuracy against per-flow truth must hold just as for 32-bit keys.
  const IntervalizedStream stream(*trace_, 60.0, traffic::KeyKind::kSrcDstPair,
                                  traffic::UpdateKind::kBytes);
  const auto truth = compute_perflow_truth(stream, ewma());
  SketchPathOptions options;
  options.h = 5;
  options.k = 65536;
  const auto sketch = compute_sketch_errors(stream, ewma(), options);
  double total_similarity = 0.0;
  int n = 0;
  for (std::size_t t = 2; t < stream.num_intervals(); ++t) {
    if (!truth.intervals[t].ready) continue;
    total_similarity += topn_similarity(truth.intervals[t].ranked,
                                        sketch.intervals[t].ranked, 50);
    ++n;
  }
  ASSERT_GT(n, 0);
  EXPECT_GT(total_similarity / n, 0.85);
}

TEST_F(PathsTest, DosAnomalyIsTopRankedInBothPaths) {
  // The injected DoS (intervals ~11-13) must dominate the error ranking.
  const auto truth = compute_perflow_truth(*stream_, ewma());
  SketchPathOptions options;
  options.k = 32768;
  const auto sketch = compute_sketch_errors(*stream_, ewma(), options);
  const std::size_t t = 12;  // attack onset: 700 s / 60 s
  ASSERT_TRUE(truth.intervals[t].ready);
  ASSERT_FALSE(truth.intervals[t].ranked.empty());
  ASSERT_FALSE(sketch.intervals[t].ranked.empty());
  EXPECT_EQ(truth.intervals[t].ranked[0].key,
            sketch.intervals[t].ranked[0].key);
}

TEST_F(PathsTest, SketchPathEqualsTheBareReferenceLoopExactly) {
  const IntervalizedStream pairs(*trace_, 60.0, traffic::KeyKind::kSrcDstPair,
                                 traffic::UpdateKind::kBytes);
  // (H, K): the figures' ranked setup and the grid search's energy setup,
  // the latter at a K small enough to collide.
  const std::pair<std::size_t, std::size_t> shapes[] = {{5, 32768}, {1, 1024}};
  const IntervalizedStream* const streams[] = {stream_, &pairs};
  for (const IntervalizedStream* stream : streams) {
    for (const forecast::ModelConfig& model : agreement_models()) {
      for (const auto& [h, k] : shapes) {
        for (const bool collect : {true, false}) {
          SketchPathOptions options;
          options.h = h;
          options.k = k;
          options.collect_errors = collect;
          SCOPED_TRACE(model.to_string() + " h=" + std::to_string(h) +
                       " k=" + std::to_string(k) +
                       (collect ? " ranked" : " energy") +
                       (stream == stream_ ? " dst" : " pair"));
          const auto want = reference_loop_for(*stream, model, options);
          const auto got = compute_sketch_errors(*stream, model, options);
          ASSERT_EQ(got.intervals.size(), want.intervals.size());
          std::size_t keys_compared = 0;
          for (std::size_t t = 0; t < want.intervals.size(); ++t) {
            const SketchIntervalErrors& w = want.intervals[t];
            const SketchIntervalErrors& g = got.intervals[t];
            ASSERT_EQ(g.ready, w.ready) << t;
            ASSERT_EQ(g.est_f2, w.est_f2) << t;
            if (!(w.est_f2 > 0.0)) {
              // No threshold to rank against: the engine skips the sweep.
              EXPECT_TRUE(g.ranked.empty()) << t;
              continue;
            }
            ASSERT_EQ(g.ranked.size(), w.ranked.size()) << t;
            for (std::size_t i = 0; i < w.ranked.size(); ++i) {
              ASSERT_EQ(g.ranked[i].key, w.ranked[i].key) << t << " " << i;
              ASSERT_EQ(g.ranked[i].error, w.ranked[i].error) << t << " " << i;
            }
            keys_compared += w.ranked.size();
          }
          EXPECT_EQ(keys_compared > 0, collect);
        }
      }
    }
  }
}

TEST_F(PathsTest, FitObjectiveEqualsTheSketchPathsEnergyTotal) {
  // The grid search's objective over tables built once equals the energy
  // total of the sketch path at the grid-search shape (H=1, K=8192).
  SketchPathOptions options;
  options.h = 1;
  options.k = 8192;
  options.collect_errors = false;
  const sketch::KarySketch prototype(
      std::make_shared<const hash::TabulationHashFamily>(options.seed, 1),
      options.k);
  std::vector<sketch::KarySketch> tables(stream_->num_intervals(), prototype);
  for (std::size_t t = 0; t < tables.size(); ++t) {
    stream_->fill_observed_sketch(t, tables[t]);
  }
  sketch::KarySketch forecast = prototype;
  sketch::KarySketch error = prototype;
  for (const forecast::ModelConfig& model : agreement_models()) {
    const auto path = compute_sketch_errors(*stream_, model, options);
    for (const std::size_t warmup : {std::size_t{0}, std::size_t{6}}) {
      EXPECT_EQ(forecast::estimated_total_f2(model, tables, warmup, forecast,
                                             error),
                path.total_f2(warmup))
          << model.to_string() << " warmup=" << warmup;
    }
  }
}

}  // namespace
}  // namespace scd::eval
