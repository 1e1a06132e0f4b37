// Seed-corpus generator for the fuzz harnesses.
//
// Usage: make_fuzz_corpus <output-dir>
//
// Writes wire/, sketch/, checkpoint/ and engine/ subdirectories, each seeded
// with valid encodings produced by the real encoders plus truncated and
// bit-flipped variants — so coverage starts inside the parsers' deep paths
// instead of dying at the magic check, and the gcc corpus-replay smoke
// exercises both accept and every typed-reject branch.
#include <bit>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "checkpoint/checkpoint.h"
#include "core/pipeline.h"
#include "engine_state_configs.h"
#include "ingest/parallel_pipeline.h"
#include "net/wire.h"
#include "sketch/kary_sketch.h"
#include "sketch/mv_sketch.h"
#include "sketch/serialize.h"

namespace {

void write_seed(const std::filesystem::path& dir, const std::string& name,
                const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(dir / name, std::ios::binary);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) {
    std::fprintf(stderr, "make_fuzz_corpus: write failed: %s\n",
                 (dir / name).string().c_str());
    std::exit(1);
  }
}

/// Emits `bytes` plus the standard mutations every parser must reject
/// cleanly: a truncation inside the header, a truncation inside the body,
/// and a single flipped byte (CRC violation).
void write_variants(const std::filesystem::path& dir, const std::string& stem,
                    const std::vector<std::uint8_t>& bytes) {
  write_seed(dir, stem + ".bin", bytes);
  if (bytes.size() > 4) {
    write_seed(dir, stem + "-trunc-header.bin",
               {bytes.begin(), bytes.begin() + 4});
    write_seed(dir, stem + "-trunc-body.bin",
               {bytes.begin(), bytes.end() - 1});
  }
  if (!bytes.empty()) {
    std::vector<std::uint8_t> flipped = bytes;
    flipped[flipped.size() / 2] ^= 0x40;
    write_seed(dir, stem + "-bitflip.bin", flipped);
  }
}

/// A state snapshot taken at the close of interval 6 of a stream with a
/// key that ramps up over several intervals, so the snapshot holds alarms'
/// streaks, model state and (for deferred detection) a pending report.
template <typename Pipeline, typename... Args>
std::vector<std::uint8_t> snapshot_of(const Args&... args) {
  Pipeline pipeline(args...);
  std::vector<std::uint8_t> state;
  pipeline.set_interval_close_callback([&](std::size_t closed) {
    if (closed == 6) state = pipeline.save_state();
  });
  for (std::uint64_t t = 0; t < 9; ++t) {
    const double start = 10.0 * static_cast<double>(t);
    for (std::uint64_t key = 1; key <= 24; ++key) {
      pipeline.add(key, 100.0 + static_cast<double>((key * 7 + t) % 11),
                   start + 1.0);
    }
    if (t >= 3) {
      pipeline.add(99, 3000.0 * static_cast<double>(t - 2), start + 2.0);
    }
  }
  pipeline.flush();
  return state;
}

/// `state` with the cell just before the trailing 8-byte sentinel set to
/// `value`: the last register of the refit history (key replay) or the last
/// vote of the previous interval (invertible). A NaN there must be a typed
/// reject.
std::vector<std::uint8_t> patch_last_cell(std::vector<std::uint8_t> state,
                                          double value) {
  const auto bits = std::bit_cast<std::uint64_t>(value);
  const std::size_t at = state.size() - 16;
  for (std::size_t i = 0; i < 8; ++i) {
    state[at + i] = static_cast<std::uint8_t>(bits >> (8 * i));
  }
  return state;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: make_fuzz_corpus <output-dir>\n");
    return 2;
  }
  const std::filesystem::path root(argv[1]);
  const std::filesystem::path wire_dir = root / "wire";
  const std::filesystem::path sketch_dir = root / "sketch";
  const std::filesystem::path ckpt_dir = root / "checkpoint";
  const std::filesystem::path engine_dir = root / "engine";
  std::filesystem::create_directories(wire_dir);
  std::filesystem::create_directories(sketch_dir);
  std::filesystem::create_directories(ckpt_dir);
  std::filesystem::create_directories(engine_dir);

  // A small but non-trivial sketch, shared by the sketch and wire seeds.
  scd::sketch::FamilyRegistry registry;
  scd::sketch::KarySketch sketch(registry.tabulation(7, 3), 64);
  for (std::uint64_t key = 1; key <= 32; ++key) {
    sketch.update(key * 2654435761u, static_cast<double>(key));
  }
  const std::vector<std::uint8_t> packet = scd::sketch::sketch_to_bytes(sketch);
  write_variants(sketch_dir, "seed-packet", packet);

  // Invertible-family packet: same header layout, different kind byte, plus
  // the trailing candidate/vote arrays — seeds the vote-state validation
  // branches (non-finite vote, out-of-domain candidate) past the magic and
  // dimension checks.
  scd::sketch::MvSketch mv_sketch(registry.tabulation(7, 3), 64);
  for (std::uint64_t key = 1; key <= 32; ++key) {
    mv_sketch.update((key * 2654435761u) & 0xffffffffu,
                     static_cast<double>(key));
  }
  write_variants(sketch_dir, "seed-mv-packet",
                 scd::sketch::mv_sketch_to_bytes(mv_sketch));

  // Wire seeds: a Hello, a Bye, and an IntervalData carrying the packet.
  scd::net::FrameHeader hello;
  hello.type = scd::net::MessageType::kHello;
  hello.node_id = 3;
  hello.config_fingerprint = 0x1122334455667788ull;
  write_variants(wire_dir, "seed-hello", scd::net::encode_frame(hello, {}));

  scd::net::FrameHeader bye;
  bye.type = scd::net::MessageType::kBye;
  bye.node_id = 3;
  write_variants(wire_dir, "seed-bye", scd::net::encode_frame(bye, {}));

  scd::net::IntervalPayload payload;
  payload.start_s = 60.0;
  payload.len_s = 60.0;
  payload.records = 32;
  payload.sketch_packet = packet;
  payload.keys = {1, 2, 3, 5, 8, 13};
  const std::vector<std::uint8_t> payload_bytes =
      scd::net::encode_interval_payload(payload);
  write_variants(wire_dir, "seed-payload", payload_bytes);

  scd::net::FrameHeader data;
  data.type = scd::net::MessageType::kIntervalData;
  data.node_id = 3;
  data.interval_index = 17;
  data.config_fingerprint = 0x1122334455667788ull;
  write_variants(wire_dir, "seed-interval",
                 scd::net::encode_frame(data, payload_bytes));

  // Checkpoint seeds: the one payload kind over distinct payloads, one of
  // them a real snapshot written by the sharded front end, and a frame of
  // the retired kind 2, which the parser must reject.
  write_variants(ckpt_dir, "seed-serial",
                 scd::checkpoint::encode_checkpoint_frame(
                     scd::checkpoint::PayloadKind::kSerial,
                     0xfeedface12345678ull, 42, packet));
  write_variants(ckpt_dir, "seed-sharded",
                 scd::checkpoint::encode_checkpoint_frame(
                     scd::checkpoint::PayloadKind::kSerial,
                     0xfeedface12345678ull, 6,
                     snapshot_of<scd::ingest::ParallelPipeline>(
                         scd_fuzz::replay_config(),
                         scd_fuzz::parallel_config())));
  write_variants(ckpt_dir, "seed-retired-kind2",
                 scd::checkpoint::encode_checkpoint_frame(
                     static_cast<scd::checkpoint::PayloadKind>(2),
                     0xfeedface12345678ull, 43, {0x01, 0x02, 0x03}));

  // Engine-state seeds: real snapshots of each pipeline the harness
  // restores into, and two with a non-finite table cell, which the
  // restore must reject.
  const std::vector<std::uint8_t> replay_state =
      snapshot_of<scd::core::ChangeDetectionPipeline>(
          scd_fuzz::replay_config());
  const std::vector<std::uint8_t> invertible_state =
      snapshot_of<scd::core::ChangeDetectionPipeline>(
          scd_fuzz::invertible_config());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  write_variants(engine_dir, "seed-replay", replay_state);
  write_seed(engine_dir, "seed-replay-nan-register.bin",
             patch_last_cell(replay_state, nan));
  write_variants(engine_dir, "seed-invertible", invertible_state);
  write_seed(engine_dir, "seed-invertible-nan-vote.bin",
             patch_last_cell(invertible_state, nan));
  write_variants(engine_dir, "seed-parallel",
                 snapshot_of<scd::ingest::ParallelPipeline>(
                     scd_fuzz::replay_config(), scd_fuzz::parallel_config()));

  std::printf("make_fuzz_corpus: seeded %s\n", root.string().c_str());
  return 0;
}
