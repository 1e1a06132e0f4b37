// Parallel ingestion: the sharded multi-threaded front-end over the same
// detection pipeline as examples/quickstart.cpp.
//
// W worker threads each own a contiguous range of the sketch's H hash rows
// and apply every record to those rows of one shared table; at every
// interval boundary that table — the serial pipeline's, bit for bit, since
// the rows are independent — flows through the ordinary forecast/detect
// stages. The reports are the single-threaded pipeline's; only the
// per-record UPDATE work is spread across cores. Build & run:
//
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/parallel_ingest
//
// With --checkpoint-dir the front-end snapshots its serial-equivalent state
// at interval barriers (docs/CHECKPOINT.md); kill the process and rerun
// with --restore to resume from the newest valid checkpoint — the remaining
// alarm output matches an uninterrupted run.
#include <cstdio>
#include <optional>
#include <string>

#include "checkpoint/checkpoint.h"
#include "common/atomic_file.h"
#include "common/flags.h"
#include "common/random.h"
#include "ingest/parallel_pipeline.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"

int main(int argc, char** argv) {
  using namespace scd;

  common::FlagParser flags;
  flags.add_flag("checkpoint-dir",
                 "directory for atomic state snapshots (docs/CHECKPOINT.md)",
                 "");
  flags.add_flag("checkpoint-every", "snapshot every N interval barriers",
                 "1");
  flags.add_flag("restore",
                 "resume from the newest valid checkpoint in "
                 "--checkpoint-dir before streaming", "");
  flags.add_flag("trace-out",
                 "write span trace as Chrome trace-event JSON to FILE", "");
  flags.add_flag("flight-recorder-dir",
                 "arm the flight recorder; dumps land in DIR "
                 "(docs/OBSERVABILITY.md)", "");
  const bool parsed = flags.parse(argc, argv);
  if (flags.help_requested()) {
    std::printf("%s", flags.help("parallel_ingest [flags]").c_str());
    return 0;
  }
  if (!parsed || !flags.positional().empty()) {
    std::fprintf(stderr, "%s%s\n", flags.error().c_str(),
                 flags.help("parallel_ingest [flags]").c_str());
    return 2;
  }
  const std::string checkpoint_dir = flags.get("checkpoint-dir");
  const std::string trace_out = flags.get("trace-out");
  const std::string flightrec_dir = flags.get("flight-recorder-dir");
  if (flags.get_bool("restore") && checkpoint_dir.empty()) {
    std::fprintf(stderr, "--restore requires --checkpoint-dir\n");
    return 2;
  }

  // 1. The detection configuration is untouched by parallelism: same
  //    intervals, sketch shape, forecast model, and threshold as quickstart.
  core::PipelineConfig config;
  config.interval_s = 60.0;
  config.h = 5;
  config.k = 32768;
  config.model.kind = forecast::ModelKind::kEwma;
  config.model.alpha = 0.5;
  config.threshold = 0.1;

  // 2. The parallel front-end: 4 row workers, bounded queues (a full
  //    queue blocks the producer — backpressure, never dropped records).
  ingest::ParallelConfig parallel;
  parallel.workers = 4;
  parallel.queue_capacity = 1 << 16;  // records per worker queue
  parallel.batch_size = 512;          // records handed off per queue push

  // Tracing must be live before the row workers run: the spans of interest
  // are theirs (ingest_dequeue, shard_update_batch) and the producer's
  // (interval_close_barrier).
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

  ingest::ParallelPipeline pipeline(config, parallel);

  // Restore precedes set_report_callback: recover() replaces the pipeline
  // wholesale, which would drop callbacks installed earlier.
  double resume_before_s = 0.0;
  if (flags.get_bool("restore")) {
    const checkpoint::RecoverResult recovered =
        checkpoint::recover(checkpoint_dir, pipeline);
    if (recovered.restored) {
      resume_before_s = pipeline.position().next_interval_start_s;
      std::fprintf(stderr,
                   "restored %s (interval %llu); resuming at t >= %.0f s\n",
                   recovered.path.string().c_str(),
                   static_cast<unsigned long long>(recovered.interval_index),
                   resume_before_s);
    } else {
      std::fprintf(stderr, "no valid checkpoint in %s; starting fresh\n",
                   checkpoint_dir.c_str());
    }
  }

  std::optional<checkpoint::CheckpointWriter> writer;
  if (!checkpoint_dir.empty()) {
    checkpoint::CheckpointWriterOptions options;
    options.directory = checkpoint_dir;
    options.every = static_cast<std::size_t>(
        flags.get_int("checkpoint-every").value_or(1));
    writer.emplace(options, config);
    writer->attach(pipeline);
  }

  if (recorder.has_value()) {
    pipeline.set_alarm_provenance_callback(
        [&recorder](const detect::AlarmProvenance& prov) {
          recorder->observe_provenance(detect::to_json(prov));
        });
  }

  pipeline.set_report_callback([&recorder](const core::IntervalReport& report) {
    if (recorder.has_value()) {
      obs::FlightIntervalSummary summary;
      summary.index = report.index;
      summary.start_s = static_cast<std::uint64_t>(report.start_s);
      summary.end_s = static_cast<std::uint64_t>(report.end_s);
      summary.records = report.records;
      summary.detection_ran = report.detection_ran;
      summary.estimated_error_f2 = report.estimated_error_f2;
      summary.alarm_threshold = report.alarm_threshold;
      summary.alarms = report.alarms.size();
      recorder->observe_interval(summary);
    }
    std::printf("interval %2zu  records=%-6llu", report.index,
                static_cast<unsigned long long>(report.records));
    if (!report.detection_ran) {
      std::printf("  (model warming up)\n");
      return;
    }
    std::printf("  alarms=%zu\n", report.alarms.size());
    for (const auto& alarm : report.alarms) {
      std::printf("    ALARM key=%llu  forecast error=%+.0f bytes\n",
                  static_cast<unsigned long long>(alarm.key), alarm.error);
    }
  });

  // 3. Same synthetic stream as quickstart: 2000 steady flows, flow 1337
  //    jumps 40x in minute 7. After a restore, minutes the snapshot already
  //    consumed are skipped (the Rng still replays deterministically from
  //    the start, so the remaining stream is identical).
  common::Rng rng(7);
  for (int minute = 0; minute < 12; ++minute) {
    const double t = minute * 60.0 + 1.0;
    for (std::uint64_t flow = 0; flow < 2000; ++flow) {
      const double bytes = 900.0 + rng.uniform(-200.0, 200.0);
      if (t < resume_before_s) continue;
      pipeline.add(flow, bytes, t);
    }
    if (minute == 7 && t + 1.0 >= resume_before_s) {
      pipeline.add(1337, 40000.0, t + 1.0);
    }
  }
  pipeline.flush();

  // 4. Summarize, including the front-end's own counters.
  std::size_t total_alarms = 0;
  for (const auto& report : pipeline.reports()) {
    total_alarms += report.alarms.size();
  }
  const auto stats = pipeline.parallel_stats();
  std::printf("\n%zu intervals, %zu alarms, %llu records through %zu workers\n",
              pipeline.reports().size(), total_alarms,
              static_cast<unsigned long long>(stats.records),
              parallel.workers);
  std::printf("interval closes: %zu   backpressure waits: %llu\n",
              stats.barriers,
              static_cast<unsigned long long>(stats.backpressure_waits));

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
