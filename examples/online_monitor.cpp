// Online monitoring — the §6 extensions in one program:
//   * kNextInterval key replay (no per-interval key storage beyond a sampled
//     set; changes in interval t are detected from keys arriving in t+1),
//   * key sampling (only 30% of keys are checked),
//   * periodic online re-fitting of the forecast model via grid search over
//     the recent sketch history,
//   * hourly JSON metrics snapshots from the observability layer
//     (obs::PeriodicSnapshot driven by stream time, so replays are
//     deterministic; a live deployment would drive it with wall time),
//   * structured alarm provenance: every alarm is followed by one
//     "PROVENANCE {json}" line carrying the full evidence chain — observed
//     vs forecast estimate, per-row bucket values, threshold, config
//     fingerprint (docs/OBSERVABILITY.md).
//
// With --recovery=invertible the monitor switches to
// single-pass sketch recovery: the forecast-error sketch's heavy buckets
// are named by the current and previous interval's majority votes
// (docs/KEY_RECOVERY.md), so there is no replay pass and no key storage at
// all — the final stats line shows keys_replayed=0.
//
//   ./build/examples/online_monitor [--recovery=replay|invertible]
//                                   [--trace-out FILE]
//                                   [--flight-recorder-dir DIR]
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <string>

#include "common/atomic_file.h"
#include "common/flags.h"
#include "common/strutil.h"
#include "core/pipeline.h"
#include "detect/provenance.h"
#include "obs/exposition.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "traffic/router_profiles.h"
#include "traffic/synthetic.h"

int main(int argc, char** argv) {
  using namespace scd;

  common::FlagParser flags;
  flags.add_flag("recovery",
                 "changed-key recovery mode: replay (two-pass baseline) "
                 "or invertible (docs/KEY_RECOVERY.md)",
                 "replay");
  flags.add_flag("trace-out",
                 "write span trace as Chrome trace-event JSON to FILE", "");
  flags.add_flag("flight-recorder-dir",
                 "arm the flight recorder; dumps land in DIR "
                 "(docs/OBSERVABILITY.md)", "");
  const bool parsed = flags.parse(argc, argv);
  if (flags.help_requested()) {
    // Same contract as detect_cli: --help is informational, so usage goes
    // to stdout and the exit code is 0; unknown flags stay a hard error.
    std::printf("%s", flags.help("online_monitor [flags]").c_str());
    return 0;
  }
  if (!parsed || !flags.positional().empty()) {
    std::fprintf(stderr, "%s%s\n", flags.error().c_str(),
                 flags.help("online_monitor [flags]").c_str());
    return 2;
  }
  const std::string recovery_name = flags.get("recovery");
  core::RecoveryMode recovery = core::RecoveryMode::kReplay;
  if (recovery_name == "invertible") {
    recovery = core::RecoveryMode::kInvertible;
  } else if (recovery_name != "replay") {
    std::fprintf(stderr,
                 "unknown --recovery mode '%s' (want replay or "
                 "invertible)\n",
                 recovery_name.c_str());
    return 2;
  }
  const std::string trace_out = flags.get("trace-out");
  const std::string flightrec_dir = flags.get("flight-recorder-dir");

  const traffic::RouterProfile& profile = traffic::router_by_name("small");
  traffic::SyntheticTraceGenerator generator(profile.config);
  std::printf("streaming router '%s' (4 h) through the online monitor...\n\n",
              profile.name.c_str());
  const auto records = generator.generate();

  core::PipelineConfig config;
  config.interval_s = 300.0;
  config.h = 5;
  config.k = 8192;
  config.model.kind = forecast::ModelKind::kEwma;
  config.model.alpha = 0.2;           // deliberately poor starting point
  config.threshold = 0.1;
  config.replay = core::KeyReplayMode::kNextInterval;
  config.key_sample_rate = 0.3;       // §6: combine with sampling
  config.refit_every = 12;            // re-fit hourly (12 x 5 min)
  config.refit_window = 12;
  config.max_alarms_per_interval = 3;
  config.recovery = recovery;
  if (recovery != core::RecoveryMode::kReplay) {
    // Sketch recovery reads keys out of the error sketch itself, so the
    // replay-tuning knobs do not apply: no deferred detection, no key
    // sampling (validate() enforces both).
    config.replay = core::KeyReplayMode::kCurrentInterval;
    config.key_sample_rate = 1.0;
  }

  if (!trace_out.empty() || !flightrec_dir.empty()) {
    obs::TraceController::global().set_enabled(true);
  }
  std::optional<obs::FlightRecorder> recorder;
  if (!flightrec_dir.empty()) {
    obs::FlightRecorder::Options options;
    options.directory = flightrec_dir;
    recorder.emplace(options);
    recorder->set_config_fingerprint(core::config_fingerprint(config));
    obs::FlightRecorder::set_global(&*recorder);
    obs::FlightRecorder::install_fatal_signal_handlers();
  }

  // Snapshot the process metrics every simulated hour; one JSON line each,
  // ready for a log shipper.
  obs::PeriodicSnapshot snapshots(
      3600.0, obs::PeriodicSnapshot::Format::kJson,
      [](const std::string& json) {
        std::printf("METRICS %s\n", json.c_str());
      });

  core::ChangeDetectionPipeline pipeline(config);
  pipeline.set_alarm_provenance_callback(
      [&recorder](const detect::AlarmProvenance& prov) {
        const std::string json = detect::to_json(prov);
        std::printf("PROVENANCE %s\n", json.c_str());
        if (recorder.has_value()) recorder->observe_provenance(json);
      });
  pipeline.set_report_callback([&pipeline, &snapshots, &recorder](
                                   const core::IntervalReport& r) {
    snapshots.tick(r.end_s);
    if (recorder.has_value()) {
      obs::FlightIntervalSummary summary;
      summary.index = r.index;
      summary.start_s = static_cast<std::uint64_t>(r.start_s);
      summary.end_s = static_cast<std::uint64_t>(r.end_s);
      summary.records = r.records;
      summary.detection_ran = r.detection_ran;
      summary.estimated_error_f2 = r.estimated_error_f2;
      summary.alarm_threshold = r.alarm_threshold;
      summary.alarms = r.alarms.size();
      recorder->observe_interval(summary);
    }
    if (!r.detection_ran) return;
    std::printf("[%5.0f s] keys_checked=%-6zu est|e|=%-10.3g alarms=%zu",
                r.start_s, r.keys_checked,
                std::sqrt(std::max(r.estimated_error_f2, 0.0)),
                r.alarms.size());
    for (const auto& alarm : r.alarms) {
      std::printf("  %s:%+.2gMB",
                  common::ipv4_to_string(static_cast<std::uint32_t>(alarm.key))
                      .c_str(),
                  alarm.error / 1e6);
    }
    std::printf("\n");
  });

  const double alpha_before = pipeline.active_model().alpha;
  for (const auto& r : records) pipeline.add_record(r);
  pipeline.flush();
  const double alpha_after = pipeline.active_model().alpha;

  std::printf("\nonline re-fit: EWMA alpha %.3f -> %.3f\n", alpha_before,
              alpha_after);
  std::printf("metrics snapshots emitted: %zu (one per simulated hour)\n",
              snapshots.snapshots_emitted());
  const core::PipelineStats stats = pipeline.stats();
  if (recovery == core::RecoveryMode::kReplay) {
    std::printf("note: next-interval replay trades one interval of latency "
                "for\nzero key storage; keys that never reappear are missed, "
                "which\nis acceptable for DoS-style targets (§3.3).\n");
  } else {
    std::printf("recovery=%s: keys_replayed=%llu (single pass — changed "
                "keys\nwere read straight out of the error sketch; "
                "candidates swept=%llu,\nkeys recovered=%llu).\n",
                recovery_name.c_str(),
                static_cast<unsigned long long>(stats.keys_replayed),
                static_cast<unsigned long long>(stats.recovery_candidates),
                static_cast<unsigned long long>(stats.keys_recovered));
  }

  if (recorder.has_value()) recorder->flush();
  if (!trace_out.empty()) {
    const std::string chrome =
        obs::to_chrome_trace(obs::TraceController::global().snapshot());
    // Flush buffered PROVENANCE/report lines first so a merged 2>&1
    // capture cannot interleave this notice mid-line.
    std::fflush(stdout);
    std::string write_error;
    if (!common::write_file_atomic(trace_out, chrome, write_error)) {
      std::fprintf(stderr, "trace export failed: %s\n", write_error.c_str());
      return 1;
    }
    std::fprintf(stderr, "trace written to %s\n", trace_out.c_str());
  }
  return 0;
}
