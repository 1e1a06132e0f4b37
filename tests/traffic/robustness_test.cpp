// Robustness/fuzz-style tests: untrusted bytes into the trace and CSV
// readers must throw or return cleanly — never crash, hang, or fabricate
// unbounded data.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/random.h"
#include "sketch/serialize.h"
#include "traffic/csv_import.h"
#include "traffic/trace_io.h"

namespace scd::traffic {
namespace {

std::string temp_file(const std::string& name, const std::string& bytes) {
  const auto dir = std::filesystem::temp_directory_path() / "scd_fuzz";
  std::filesystem::create_directories(dir);
  const auto path = (dir / name).string();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return path;
}

TEST(TraceReaderFuzz, RandomBytesNeverCrash) {
  scd::common::Rng rng(1);
  for (int trial = 0; trial < 50; ++trial) {
    std::string bytes(rng.next_below(500), '\0');
    for (auto& b : bytes) b = static_cast<char>(rng.next_below(256));
    const auto path = temp_file("rand.bin", bytes);
    try {
      TraceReader reader(path);
      FlowRecord r;
      int guard = 0;
      while (reader.next(r) && ++guard < 100000) {
      }
    } catch (const std::runtime_error&) {
      // expected for malformed headers
    }
    std::remove(path.c_str());
  }
}

TEST(TraceReaderFuzz, ValidHeaderHugeCountDoesNotFabricate) {
  // Header claims 2^40 records but the body is empty: the reader must
  // refuse the file at open rather than invent (or silently drop) data.
  std::string bytes;
  const auto put32 = [&bytes](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) bytes.push_back(static_cast<char>(v >> (8 * i)));
  };
  put32(kTraceMagic);
  put32(kTraceVersion);
  for (int i = 0; i < 8; ++i) bytes.push_back(i == 5 ? '\x01' : '\0');  // 2^40
  const auto path = temp_file("huge.scdt", bytes);
  try {
    TraceReader reader(path);
    ADD_FAILURE() << "trace with a missing body opened";
  } catch (const TraceError& e) {
    EXPECT_EQ(e.kind(), TraceErrorKind::kTruncatedBody) << e.what();
  }
  std::remove(path.c_str());
}

TEST(CsvFuzz, RandomTextLinesThrowOrParse) {
  scd::common::Rng rng(2);
  const char charset[] = "0123456789.,abcxyz-# \t";
  for (int trial = 0; trial < 100; ++trial) {
    std::string text;
    for (int i = 0; i < 200; ++i) {
      text.push_back(charset[rng.next_below(sizeof(charset) - 1)]);
      if (rng.bernoulli(0.05)) text.push_back('\n');
    }
    std::istringstream in(text);
    try {
      const auto records = read_flow_csv(in);
      EXPECT_LE(records.size(), 200u);
    } catch (const std::runtime_error&) {
      // expected for malformed rows after the first data line
    }
  }
}

TEST(SketchDeserializeFuzz, RandomBytesNeverCrash) {
  scd::common::Rng rng(3);
  sketch::FamilyRegistry registry;
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<std::uint8_t> bytes(rng.next_below(300));
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next_below(256));
    EXPECT_THROW((void)sketch::sketch_from_bytes(bytes, registry),
                 std::runtime_error);
  }
}

TEST(SketchDeserializeFuzz, CorruptedValidSketchEitherThrowsOrLoads) {
  const auto family = sketch::make_tabulation_family(1, 3);
  sketch::KarySketch original(family, 256);
  original.update(1, 5.0);
  auto bytes = sketch::sketch_to_bytes(original);
  scd::common::Rng rng(4);
  for (int trial = 0; trial < 100; ++trial) {
    auto mutated = bytes;
    mutated[rng.next_below(mutated.size())] ^=
        static_cast<std::uint8_t>(1 + rng.next_below(255));
    sketch::FamilyRegistry registry;
    try {
      const auto sketch = sketch::sketch_from_bytes(mutated, registry);
      EXPECT_EQ(sketch.width() & (sketch.width() - 1), 0u);  // sane dims
    } catch (const std::runtime_error&) {
      // corrupted header detected
    }
  }
}

}  // namespace
}  // namespace scd::traffic
