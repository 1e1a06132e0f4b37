#include "eval/trace_cache.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "traffic/synthetic.h"
#include "traffic/trace_io.h"

namespace scd::eval {
namespace {

// The cache directory is read from $SCD_TRACE_DIR per call, so tests can
// redirect it; the in-process memo is keyed by profile name, so each test
// uses a unique name.
class TraceCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() / "scd_cache_test").string();
    std::filesystem::create_directories(dir_);
    ASSERT_EQ(setenv("SCD_TRACE_DIR", dir_.c_str(), 1), 0);
  }
  void TearDown() override {
    unsetenv("SCD_TRACE_DIR");
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  traffic::RouterProfile tiny_profile(const std::string& name) {
    traffic::RouterProfile profile;
    profile.name = name;
    profile.config.seed = 77;
    profile.config.duration_s = 30.0;
    profile.config.base_rate = 20.0;
    profile.config.num_hosts = 100;
    return profile;
  }

  std::string dir_;
};

TEST_F(TraceCacheTest, GeneratesAndPersists) {
  const auto profile = tiny_profile("cache_t1");
  const auto& records = cached_trace(profile);
  EXPECT_GT(records.size(), 100u);
  EXPECT_TRUE(std::filesystem::exists(dir_ + "/cache_t1.scdt"));
}

TEST_F(TraceCacheTest, SecondCallReturnsSameObject) {
  const auto profile = tiny_profile("cache_t2");
  const auto& first = cached_trace(profile);
  const auto& second = cached_trace(profile);
  EXPECT_EQ(&first, &second);  // in-process memoization
}

TEST_F(TraceCacheTest, CorruptedFileIsRegenerated) {
  const auto profile = tiny_profile("cache_t3");
  // Pre-place a corrupt file where the cache would read it.
  {
    std::ofstream out(dir_ + "/cache_t3.scdt", std::ios::binary);
    out << "garbage";
  }
  const auto& records = cached_trace(profile);
  EXPECT_GT(records.size(), 100u);  // regenerated despite the bad file
}

TEST_F(TraceCacheTest, TornFileIsRegenerated) {
  // A cache file cut off mid-record must not load as a shorter trace: the
  // reader rejects it at open and the cache regenerates the full trace.
  const auto profile = tiny_profile("cache_t4");
  const auto full = traffic::SyntheticTraceGenerator(profile.config).generate();
  const std::string path = dir_ + "/cache_t4.scdt";
  traffic::write_trace(path, full);
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 20);
  EXPECT_EQ(cached_trace(profile).size(), full.size());
}

TEST_F(TraceCacheTest, DirOverrideIsHonored) {
  EXPECT_EQ(trace_cache_dir(), dir_);
}

}  // namespace
}  // namespace scd::eval
