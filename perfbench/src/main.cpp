// Benchmark entry point: runs one workload in this process and prints its
// result as the last line of stdout.
//
//   scd_perfbench --workload <edge_replay|core_sharded_mv|fleet_ckpt>
//                 --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
//                 [--smoke]
//
// --seconds is the length of the timed phase: whole passes over the input
// repeat until that much timed work has elapsed (at least three). --smoke
// shrinks the inputs, for checking the metric set rather than speed.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "bench.h"
#include "workloads.h"

int main(int argc, char** argv) {
  using namespace perfbench;
  RunArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    if (a == "--smoke") {
      args.smoke = true;
    } else if (v == nullptr) {
      std::fprintf(stderr, "missing value for %s\n", a.c_str());
      return 2;
    } else if (a == "--workload") {
      args.workload = v, ++i;
    } else if (a == "--seed") {
      args.seed = std::strtoull(v, nullptr, 10), ++i;
    } else if (a == "--seconds") {
      args.seconds = std::strtod(v, nullptr), ++i;
    } else if (a == "--trace") {
      args.trace = std::string(v) == "1", ++i;
    } else if (a == "--work-dir") {
      args.work_dir = v, ++i;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", a.c_str());
      return 2;
    }
  }
  if (args.work_dir.empty() || args.seconds <= 0.0) {
    std::fprintf(stderr, "--work-dir and a positive --seconds are required\n");
    return 2;
  }
  try {
    std::filesystem::create_directories(args.work_dir);
    print_host_facts();
    // Before any input exists, so that the buffer stays out of peak_rss_mb.
    const double read_ns_before = host_random_read_ns();
    RunResult result;
    if (args.workload == "edge_replay") {
      result = run_edge_replay(args);
    } else if (args.workload == "core_sharded_mv") {
      result = run_core_sharded_mv(args);
    } else if (args.workload == "fleet_ckpt") {
      result = run_fleet_ckpt(args);
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
      return 2;
    }
    info("host random read: %.2f ns before the run, %.2f ns after",
         read_ns_before, host_random_read_ns());
    print_result(result);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "benchmark failed: %s\n", e.what());
    return 1;
  }
  return 0;
}
