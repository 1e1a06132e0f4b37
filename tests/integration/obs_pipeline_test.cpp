// Integration: a short pipeline run must surface through the Prometheus
// text exposition — the text parses, the expected metric families are
// declared, histogram series are internally consistent, and counters move
// by at least what the run fed in (the registry is process-wide, so other
// tests in this binary may have moved them too; deltas are lower bounds).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/pipeline.h"
#include "ingest/parallel_pipeline.h"
#include "obs/exposition.h"
#include "obs/metrics.h"

namespace {

using namespace scd;

struct ParsedExposition {
  std::map<std::string, std::string> family_type;  // name -> counter/gauge/...
  std::map<std::string, std::string> family_help;
  // Full series name (with labels) -> value text.
  std::map<std::string, std::string> samples;
  std::vector<std::string> errors;
};

/// Strict-enough parser for the text exposition format: every line must be
/// a HELP/TYPE comment or a "name[{labels}] value" sample whose family was
/// declared first.
ParsedExposition parse_prometheus(const std::string& text) {
  ParsedExposition out;
  std::istringstream stream(text);
  std::string line;
  while (std::getline(stream, line)) {
    if (line.empty()) {
      out.errors.push_back("blank line");
      continue;
    }
    if (line.rfind("# HELP ", 0) == 0 || line.rfind("# TYPE ", 0) == 0) {
      const bool is_type = line.rfind("# TYPE ", 0) == 0;
      const std::string rest = line.substr(7);
      const std::size_t space = rest.find(' ');
      if (space == std::string::npos || space == 0) {
        out.errors.push_back("malformed comment: " + line);
        continue;
      }
      const std::string name = rest.substr(0, space);
      if (is_type) {
        out.family_type[name] = rest.substr(space + 1);
      } else {
        out.family_help[name] = rest.substr(space + 1);
      }
      continue;
    }
    if (line[0] == '#') {
      out.errors.push_back("unknown comment: " + line);
      continue;
    }
    // Sample line. Split off the value at the last space (label values are
    // quoted, so a last-space split is safe for our exporter).
    const std::size_t space = line.rfind(' ');
    if (space == std::string::npos || space == 0 || space + 1 >= line.size()) {
      out.errors.push_back("malformed sample: " + line);
      continue;
    }
    const std::string series = line.substr(0, space);
    const std::string value = line.substr(space + 1);
    out.samples[series] = value;
    // The series must belong to a declared family: its name up to '{' (and
    // for histograms, minus the _bucket/_sum/_count suffix).
    std::string name = series.substr(0, series.find('{'));
    if (out.family_type.count(name) == 0) {
      for (const char* suffix : {"_bucket", "_sum", "_count"}) {
        const std::string s(suffix);
        if (name.size() > s.size() &&
            name.compare(name.size() - s.size(), s.size(), s) == 0) {
          const std::string base = name.substr(0, name.size() - s.size());
          if (out.family_type.count(base) != 0) name = base;
        }
      }
    }
    if (out.family_type.count(name) == 0) {
      out.errors.push_back("sample without TYPE declaration: " + line);
    }
  }
  return out;
}

std::uint64_t counter_value(const ParsedExposition& parsed,
                            const std::string& series) {
  const auto it = parsed.samples.find(series);
  if (it == parsed.samples.end()) return 0;
  return std::stoull(it->second);
}

TEST(ObsPipelineIntegration, ExpositionRoundTripsThroughAShortRun) {
  const auto before =
      parse_prometheus(obs::to_prometheus(obs::MetricsRegistry::global()));

  core::PipelineConfig config;
  config.interval_s = 10.0;
  config.h = 3;
  config.k = 1024;
  config.threshold = 0.2;
  config.min_consecutive = 1;
  core::ChangeDetectionPipeline pipeline(config);
  const std::uint64_t kRecords = 6 * 40 + 1;
  for (std::size_t t = 0; t < 6; ++t) {
    for (std::uint64_t key = 1; key <= 40; ++key) {
      pipeline.add(key, 100.0, static_cast<double>(t) * 10.0 + 1.0);
    }
  }
  pipeline.add(41, 100.0, 3.0);  // late record: clamped, counted
  pipeline.flush();

  const std::string text = obs::to_prometheus(obs::MetricsRegistry::global());
  const ParsedExposition after = parse_prometheus(text);
  EXPECT_TRUE(after.errors.empty())
      << "first parse error: " << after.errors.front();

  // The advertised metric families exist with the right types.
  const std::map<std::string, std::string> expected_types = {
      {"scd_pipeline_records_total", "counter"},
      {"scd_pipeline_intervals_closed_total", "counter"},
      {"scd_pipeline_detections_total", "counter"},
      {"scd_pipeline_alarms_total", "counter"},
      {"scd_pipeline_keys_replayed_total", "counter"},
      {"scd_pipeline_hysteresis_suppressed_total", "counter"},
      {"scd_pipeline_refits_total", "counter"},
      {"scd_pipeline_out_of_order_total", "counter"},
      {"scd_pipeline_replay_buffer_keys", "gauge"},
      {"scd_pipeline_sketch_bytes", "gauge"},
      {"scd_pipeline_last_alarm_threshold", "gauge"},
      {"scd_pipeline_last_error_l2", "gauge"},
      {"scd_pipeline_stage_seconds", "histogram"},
  };
  for (const auto& [name, type] : expected_types) {
    ASSERT_EQ(after.family_type.count(name), 1u) << name;
    EXPECT_EQ(after.family_type.at(name), type) << name;
    EXPECT_EQ(after.family_help.count(name), 1u) << name;
  }

  // Counters moved by at least what this run contributed.
  const auto delta = [&before, &after](const std::string& series) {
    return counter_value(after, series) - counter_value(before, series);
  };
  EXPECT_GE(delta("scd_pipeline_records_total"), kRecords);
  EXPECT_GE(delta("scd_pipeline_intervals_closed_total"), 6u);
  EXPECT_GE(delta("scd_pipeline_detections_total"), 5u);  // 6 minus warm-up
  EXPECT_GE(delta("scd_pipeline_keys_replayed_total"), 5u * 40u);
  EXPECT_GE(delta("scd_pipeline_out_of_order_total"), 1u);

  // The per-pipeline stats agree with what the run fed.
  const auto stats = pipeline.stats();
  EXPECT_EQ(stats.records, kRecords);
  EXPECT_EQ(stats.out_of_order_records, 1u);
  EXPECT_EQ(stats.keys_replayed, 5u * 40u + 1u);  // post warm-up + late key
  EXPECT_EQ(stats.sketch_bytes, config.h * config.k * sizeof(double));

  // Histogram series are internally consistent per stage: cumulative
  // buckets are non-decreasing and the +Inf bucket equals _count.
  for (const char* stage :
       {"sketch_update", "interval_close", "forecast", "estimate_f2"}) {
    const std::string label = std::string("stage=\"") + stage + "\"";
    // Collect (le, cumulative) pairs and order them numerically — series
    // names sort lexicographically, which scrambles the bounds.
    std::vector<std::pair<double, std::uint64_t>> buckets;
    for (const auto& [series, value] : after.samples) {
      if (series.rfind("scd_pipeline_stage_seconds_bucket{", 0) != 0) continue;
      if (series.find(label) == std::string::npos) continue;
      const std::size_t le_pos = series.find("le=\"");
      ASSERT_NE(le_pos, std::string::npos) << series;
      const std::string le =
          series.substr(le_pos + 4, series.find('"', le_pos + 4) - le_pos - 4);
      const double bound = le == "+Inf"
                               ? std::numeric_limits<double>::infinity()
                               : std::stod(le);
      buckets.emplace_back(bound, std::stoull(value));
    }
    std::sort(buckets.begin(), buckets.end());
    ASSERT_FALSE(buckets.empty()) << stage;
    for (std::size_t i = 1; i < buckets.size(); ++i) {
      EXPECT_GE(buckets[i].second, buckets[i - 1].second)
          << stage << " le=" << buckets[i].first;
    }
    const std::string inf_series =
        "scd_pipeline_stage_seconds_bucket{" + label + ",le=\"+Inf\"}";
    const std::string count_series =
        "scd_pipeline_stage_seconds_count{" + label + "}";
    ASSERT_EQ(after.samples.count(inf_series), 1u) << inf_series;
    ASSERT_EQ(after.samples.count(count_series), 1u) << count_series;
    EXPECT_EQ(after.samples.at(inf_series), after.samples.at(count_series))
        << stage;
    EXPECT_GT(std::stoull(after.samples.at(count_series)), 0u) << stage;
  }

  // And the JSON exporter renders the same registry without blowing up.
  const std::string json = obs::to_json(obs::MetricsRegistry::global());
  EXPECT_NE(json.find("scd_pipeline_stage_seconds"), std::string::npos);
}

TEST(ObsPipelineIntegration, MetricsDisabledPipelineLeavesRegistryUntouched) {
  const auto before =
      parse_prometheus(obs::to_prometheus(obs::MetricsRegistry::global()));
  core::PipelineConfig config;
  config.interval_s = 10.0;
  config.h = 3;
  config.k = 1024;
  config.metrics = false;
  core::ChangeDetectionPipeline pipeline(config);
  for (std::uint64_t key = 1; key <= 100; ++key) {
    pipeline.add(key, 50.0, 1.0);
  }
  pipeline.flush();
  const auto after =
      parse_prometheus(obs::to_prometheus(obs::MetricsRegistry::global()));
  EXPECT_EQ(counter_value(before, "scd_pipeline_records_total"),
            counter_value(after, "scd_pipeline_records_total"));
  // Per-pipeline lifetime stats still work without the global registry.
  EXPECT_EQ(pipeline.stats().records, 100u);
  EXPECT_EQ(pipeline.stats().intervals_closed, 1u);
}

TEST(ObsPipelineIntegration, ParallelIngestSurfacesItsOwnFamilies) {
  core::PipelineConfig config;
  config.interval_s = 10.0;
  config.h = 3;
  config.k = 1024;
  ingest::ParallelConfig parallel;
  parallel.workers = 2;
  parallel.batch_size = 8;
  ingest::ParallelPipeline pipeline(config, parallel);
  for (std::size_t t = 0; t < 4; ++t) {
    for (std::uint64_t key = 1; key <= 40; ++key) {
      pipeline.add(key, 100.0, static_cast<double>(t) * 10.0 + 1.0);
    }
  }
  pipeline.flush();

  const auto parsed =
      parse_prometheus(obs::to_prometheus(obs::MetricsRegistry::global()));
  EXPECT_TRUE(parsed.errors.empty());
  const std::map<std::string, std::string> expected_types = {
      {"scd_ingest_queue_records", "gauge"},
      {"scd_ingest_backpressure_total", "counter"},
      {"scd_ingest_pending_epochs", "gauge"},
      {"scd_ingest_shard_apply_seconds", "histogram"},
  };
  for (const auto& [name, type] : expected_types) {
    ASSERT_EQ(parsed.family_type.count(name), 1u) << name;
    EXPECT_EQ(parsed.family_type.at(name), type) << name;
  }
  // One apply histogram per row worker, each of which applied every chunk
  // (160 records in chunks of 8), and every applied chunk was drained from
  // the queue gauge (it must read 0 after flush).
  for (const char* shard : {"0", "1"}) {
    const std::string series = std::string(
        "scd_ingest_shard_apply_seconds_count{shard=\"") + shard + "\"}";
    ASSERT_EQ(parsed.samples.count(series), 1u) << series;
    EXPECT_GE(std::stoull(parsed.samples.at(series)), 20u) << series;
  }
  const auto queue = parsed.samples.find("scd_ingest_queue_records");
  ASSERT_NE(queue, parsed.samples.end());
  EXPECT_DOUBLE_EQ(std::stod(queue->second), 0.0);
  // Every interval was delivered.
  const auto pending = parsed.samples.find("scd_ingest_pending_epochs");
  ASSERT_NE(pending, parsed.samples.end());
  EXPECT_DOUBLE_EQ(std::stod(pending->second), 0.0);
}

}  // namespace
