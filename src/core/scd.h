// Umbrella header: the library's public surface in one include.
//
//   #include "core/scd.h"
//
// pulls in the pipeline API, the multi-resolution wrapper, the sketch and
// forecasting primitives, traffic I/O and synthesis, and the evaluation
// utilities. Individual headers remain includable for finer-grained builds.
#pragma once

#include "common/flags.h"
#include "common/random.h"
#include "common/stats.h"
#include "common/strutil.h"
#include "core/multi_resolution.h"
#include "core/pipeline.h"
#include "core/sketch_binding.h"
#include "ingest/parallel_pipeline.h"
#include "detect/detection.h"
#include "detect/space_saving.h"
#include "eval/intervalized.h"
#include "eval/metrics.h"
#include "eval/sketch_path.h"
#include "eval/truth.h"
#include "forecast/model_factory.h"
#include "forecast/runner.h"
#include "gridsearch/grid_search.h"
#include "sketch/count_sketch.h"
#include "sketch/kary_sketch.h"
#include "sketch/serialize.h"
#include "traffic/csv_import.h"
#include "traffic/packetize.h"
#include "traffic/router_profiles.h"
#include "traffic/synthetic.h"
#include "traffic/trace_io.h"
