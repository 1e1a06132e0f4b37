#include "bench.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <thread>

#include "eval/intervalized.h"
#include "eval/metrics.h"
#include "eval/sketch_path.h"
#include "eval/truth.h"
#include "simd/kernels.h"

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double relative_iqr(const std::vector<double>& v) {
  const double m = median(v);
  if (m == 0.0) return 0.0;
  return (quantile(v, 0.75) - quantile(v, 0.25)) / std::abs(m);
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

void reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return 0.0;
}

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  values_[name] = {value, unit};
}

void print_result(const RunResult& result) {
  std::string line = "{\"correct\": ";
  line += result.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(result.attempted);
  line += ", \"failed\": " + std::to_string(result.failed);
  line += ", \"metrics\": {";
  bool first = true;
  char buf[64];
  for (const auto& [name, vu] : result.metrics.all()) {
    if (!first) line += ", ";
    first = false;
    std::snprintf(buf, sizeof buf, "%.17g", vu.first);
    line += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
            vu.second + "\"}";
  }
  line += "}}";
  std::fflush(stdout);
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

SpanRecorder::SpanRecorder() : origin_(Clock::now()) {
  spans_.reserve(1 << 16);
  constexpr int kCalls = 10000;
  std::vector<double> per_call_ns;
  Clock::time_point last{};
  for (int batch = 0; batch < 9; ++batch) {
    const auto t0 = Clock::now();
    for (int i = 0; i < kCalls; ++i) last = std::max(last, Clock::now());
    per_call_ns.push_back(to_ms(last - t0) * 1e6 / kCalls);
  }
  clock_ns_ = median(per_call_ns);
}

std::uint32_t SpanRecorder::begin(const char* name, std::uint32_t parent) {
  const auto now = Clock::now();
  return add(name, now, now, parent);
}

void SpanRecorder::end(std::uint32_t id) {
  spans_[id].end_ns = ns(Clock::now());
}

std::uint32_t SpanRecorder::add(const char* name, Clock::time_point start,
                                Clock::time_point stop, std::uint32_t parent) {
  spans_.push_back({name, ns(start), ns(stop), parent});
  return static_cast<std::uint32_t>(spans_.size() - 1);
}

std::map<std::string, double> SpanRecorder::self_seconds() const {
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent != kNoParent) {
      child_ns[s.parent] += static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double dur = static_cast<double>(s.end_ns - s.start_ns);
    const double self = std::max(0.0, dur - child_ns[i] - clock_ns_);
    out[s.name] += self * 1e-9;
  }
  return out;
}

void SpanRecorder::write_tsv(const std::filesystem::path& path) const {
  std::ofstream out(path);
  out << "id\tparent\tname\tstart_ns\tend_ns\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << i << '\t'
        << (s.parent == kNoParent ? -1 : static_cast<std::int64_t>(s.parent))
        << '\t' << s.name << '\t' << s.start_ns << '\t' << s.end_ns << '\n';
  }
}

std::vector<double> LagClock::lags_ms() const {
  std::vector<double> out;
  for (std::size_t i = 0; i < handover.size(); ++i) {
    if (handover[i] == Clock::time_point{} ||
        reported[i] == Clock::time_point{}) {
      continue;
    }
    out.push_back(to_ms(reported[i] - handover[i]));
  }
  return out;
}

std::uint64_t compare_reports(const char* what,
                              const std::vector<core::IntervalReport>& got,
                              const std::vector<core::IntervalReport>& want,
                              double rel_tol) {
  std::uint64_t bad = 0;
  auto fail = [&](std::size_t i, const std::string& why) {
    ++bad;
    if (bad <= 10) {
      info("MISMATCH %s interval %zu: %s", what, i, why.c_str());
    }
  };
  if (got.size() != want.size()) {
    info("MISMATCH %s: %zu reports, reference has %zu", what, got.size(),
         want.size());
  }
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (i >= got.size()) {
      fail(i, "missing");
      continue;
    }
    const auto& g = got[i];
    const auto& w = want[i];
    if (g.index != w.index) {
      fail(i, "index " + std::to_string(g.index) + " out of order");
      continue;
    }
    if (g.alarms.size() != w.alarms.size()) {
      fail(i, std::to_string(g.alarms.size()) + " alarms, reference " +
                  std::to_string(w.alarms.size()));
      continue;
    }
    for (std::size_t a = 0; a < w.alarms.size(); ++a) {
      const auto& ga = g.alarms[a];
      const auto& wa = w.alarms[a];
      const double tol = rel_tol * std::max(1.0, std::abs(wa.error));
      if (ga.key != wa.key || std::abs(ga.error - wa.error) > tol) {
        fail(i, "alarm " + std::to_string(a) + " differs");
        break;
      }
    }
  }
  // Reports past the reference's end are duplicates or phantoms.
  bad += got.size() > want.size() ? got.size() - want.size() : 0;
  return bad;
}

double anomaly_recall(const std::vector<core::IntervalReport>& reports,
                      const std::vector<eval::LabeledAnomaly>& labels,
                      double interval_s) {
  if (labels.empty()) return 0.0;
  std::size_t hit = 0;
  for (const auto& label : labels) {
    bool found = false;
    for (const auto& r : reports) {
      if (!(r.start_s < label.end_s + interval_s && r.end_s > label.start_s)) {
        continue;
      }
      for (const auto& a : r.alarms) {
        if ((a.key & 0xffffffffULL) == label.target_key) found = true;
      }
    }
    hit += found ? 1 : 0;
  }
  return static_cast<double>(hit) / static_cast<double>(labels.size());
}

double topn_similarity(const std::vector<traffic::FlowRecord>& records,
                       double interval_s, traffic::KeyKind key_kind,
                       const forecast::ModelConfig& model, std::size_t h,
                       std::size_t k, std::uint64_t hash_seed,
                       std::size_t warmup, std::size_t n) {
  const eval::IntervalizedStream stream(records, interval_s, key_kind,
                                        traffic::UpdateKind::kBytes);
  const auto truth = eval::compute_perflow_truth(stream, model);
  eval::SketchPathOptions options;
  options.h = h;
  options.k = k;
  options.seed = hash_seed;
  const auto path = eval::compute_sketch_errors(stream, model, options);
  double sum = 0.0;
  std::size_t count = 0;
  for (std::size_t t = warmup; t < stream.num_intervals(); ++t) {
    const auto& pf = truth.intervals[t];
    const auto& sk = path.intervals[t];
    if (!pf.ready || !sk.ready || pf.ranked.size() < n) continue;
    sum += eval::topn_similarity(pf.ranked, sk.ranked, n);
    ++count;
  }
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

void fill_end_to_end(const EndToEnd& e, RunResult& result) {
  std::vector<double> rate, p50, p90, cpu;
  std::size_t lag_samples = 0;
  for (const Pass& p : e.passes) {
    const double mrec = static_cast<double>(p.records) * 1e-6;
    rate.push_back(static_cast<double>(p.records) / p.seconds);
    p50.push_back(quantile(p.lags_ms, 0.5));
    p90.push_back(quantile(p.lags_ms, 0.9));
    cpu.push_back(p.cpu_s / mrec);
    lag_samples = p.lags_ms.size();
  }
  Metrics& m = result.metrics;
  m.set("records_per_s", median(rate), "1/s");
  m.set("report_lag_p50_ms", median(p50), "ms");
  m.set("report_lag_p90_ms", median(p90), "ms");
  m.set("setup_s", median(e.setup_reps_s), "s");
  m.set("peak_rss_mb", e.peak_rss_mb, "MB");
  m.set("cpu_s_per_mrec", median(cpu), "s/Mrec");
  m.set("anomaly_recall", e.anomaly_recall, "ratio");
  const double ok =
      result.attempted == 0
          ? 0.0
          : static_cast<double>(result.attempted - result.failed) /
                static_cast<double>(result.attempted);
  m.set("report_ok_ratio", ok, "ratio");
  m.set("topn_similarity", e.topn_similarity, "ratio");

  // Spread over the passes (and set-up repetitions) next to each median.
  info("timed phase: %zu passes of %llu records, %zu lag samples per pass",
       e.passes.size(),
       static_cast<unsigned long long>(e.passes.front().records), lag_samples);
  auto spread = [](const char* name, const std::vector<double>& v) {
    info("  %-18s median %-12.6g iqr/median %.3f over %zu", name, median(v),
         relative_iqr(v), v.size());
  };
  std::string per_pass;
  for (double r : rate) {
    per_pass += " " + std::to_string(static_cast<long long>(r));
  }
  info("  records_per_s by pass:%s", per_pass.c_str());
  std::string per_rep;
  for (double s : e.setup_reps_s) per_rep += " " + std::to_string(s);
  info("  setup_s by repetition (the first is cold):%s", per_rep.c_str());
  spread("records_per_s", rate);
  spread("report_lag_p50_ms", p50);
  spread("report_lag_p90_ms", p90);
  spread("cpu_s_per_mrec", cpu);
  spread("setup_s", e.setup_reps_s);
}

void print_host_facts() {
  const long l2 = sysconf(_SC_LEVEL2_CACHE_SIZE);
  info("host: nproc=%u isa=%s l2_bytes=%ld",
       std::thread::hardware_concurrency(),
       scd::simd::isa_name(scd::simd::active_isa()), l2);
}

double host_random_read_ns() {
  std::vector<std::uint64_t> buffer(std::size_t{1} << 22);
  for (std::size_t i = 0; i < buffer.size(); ++i) buffer[i] = i;
  constexpr std::size_t kReads = std::size_t{1} << 23;
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  std::uint64_t sum = 0;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < kReads; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    sum += buffer[x & (buffer.size() - 1)];
  }
  const double ns = seconds_since(t0) * 1e9 / static_cast<double>(kReads);
  static volatile std::uint64_t sink = 0;  // keeps the reads alive
  sink = sink + sum;
  return ns;
}

void info(const char* fmt, ...) {
  std::printf("# ");
  va_list ap;
  va_start(ap, fmt);
  std::vprintf(fmt, ap);
  va_end(ap);
  std::printf("\n");
}

}  // namespace perfbench
