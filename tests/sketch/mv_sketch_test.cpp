// BasicMvSketch: counter-table equivalence with the k-ary sketch, the
// majority-vote recovery invariant, linear-signal operations on the vote
// state, and the serialized format's typed reject paths
// (docs/KEY_RECOVERY.md).
#include "sketch/mv_sketch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <random>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "common/random.h"
#include "sketch/kary_sketch.h"
#include "sketch/serialize.h"

namespace scd::sketch {
namespace {

constexpr std::size_t kH = 5;
constexpr std::size_t kK = 1024;

MvSketch make_sketch(std::uint64_t seed = 7) {
  return MvSketch(make_tabulation_family(seed, kH), kK);
}

TEST(MvSketch, CounterTableIsBitIdenticalToKarySketch) {
  const auto family = make_tabulation_family(11, kH);
  KarySketch kary(family, kK);
  MvSketch mv(family, kK);
  common::Rng rng(3);
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t key = rng.next_below(1u << 30);
    const double u = rng.uniform(-100, 1000);
    kary.update(key, u);
    mv.update(key, u);
  }
  const auto a = kary.registers();
  const auto b = mv.registers();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
  EXPECT_EQ(kary.estimate_f2(), mv.estimate_f2());
  for (std::uint64_t key = 0; key < 3000; key += 61) {
    EXPECT_EQ(kary.estimate(key), mv.counters().estimate(key));
  }
}

TEST(MvSketch, RecoversSinglePlantedHeavyKey) {
  MvSketch sketch = make_sketch();
  common::Rng rng(4);
  for (int i = 0; i < 5000; ++i) {
    sketch.update(rng.next_below(1u << 24), 1.0);
  }
  sketch.update(0xdeadbeef, 100000.0);
  const auto recovered = sketch.recover_heavy_keys(50000.0);
  ASSERT_EQ(recovered.size(), 1u);
  EXPECT_EQ(recovered.front().key, 0xdeadbeefu);
  EXPECT_NEAR(recovered.front().value, 100000.0, 5000.0);
}

TEST(MvSketch, RecoversNegativeChanges) {
  MvSketch sketch = make_sketch();
  common::Rng rng(5);
  for (int i = 0; i < 5000; ++i) {
    sketch.update(rng.next_below(1u << 24), 1.0);
  }
  sketch.update(1234567, -80000.0);
  const auto recovered = sketch.recover_heavy_keys(40000.0);
  ASSERT_EQ(recovered.size(), 1u);
  EXPECT_EQ(recovered.front().key, 1234567u);
  EXPECT_LT(recovered.front().value, -70000.0);
}

TEST(MvSketch, RecoversMultipleHeavyKeysSortedByMagnitude) {
  MvSketch sketch = make_sketch();
  common::Rng rng(6);
  for (int i = 0; i < 20000; ++i) {
    sketch.update(rng.next_below(1u << 24), 1.0);
  }
  sketch.update(111, 300000.0);
  sketch.update(222, -200000.0);
  sketch.update(333, 100000.0);
  std::size_t swept = 0;
  const auto recovered = sketch.recover_heavy_keys(50000.0, &swept);
  ASSERT_EQ(recovered.size(), 3u);
  EXPECT_GE(swept, 3u);  // pre-verification candidates include the heavies
  EXPECT_EQ(recovered[0].key, 111u);
  EXPECT_EQ(recovered[1].key, 222u);
  EXPECT_EQ(recovered[2].key, 333u);
}

TEST(MvSketch, QuietSketchRecoversNothing) {
  const MvSketch sketch = make_sketch();
  EXPECT_TRUE(sketch.recover_heavy_keys(0.0).empty());
  EXPECT_TRUE(sketch.recover_heavy_keys(10.0).empty());
}

TEST(MvSketch, ThresholdZeroSweepsEveryVotedBucket) {
  MvSketch sketch = make_sketch();
  sketch.update(42, 10.0);
  std::size_t swept = 0;
  const auto recovered = sketch.recover_heavy_keys(0.0, &swept);
  EXPECT_EQ(swept, 1u);  // one distinct candidate across its h buckets
  ASSERT_EQ(recovered.size(), 1u);
  EXPECT_EQ(recovered.front().key, 42u);
}

TEST(MvSketch, MajorityCandidateSurvivesAnyUpdateOrder) {
  // The invariant recover_heavy_keys and the sharded property test rely on:
  // a key holding a strict majority of a bucket's absolute mass is the
  // bucket's final candidate under every permutation of the update stream.
  std::vector<Record> records;
  common::Rng rng(8);
  for (int i = 0; i < 3000; ++i) {
    records.push_back({rng.next_below(1u << 24), 1.0});
  }
  records.push_back({777, 1.0e6});
  const auto run = [&](const std::vector<Record>& stream) {
    MvSketch s = make_sketch(12);
    s.update_batch(stream);
    return s.recover_heavy_keys(1000.0);
  };
  const auto baseline = run(records);
  ASSERT_EQ(baseline.size(), 1u);
  EXPECT_EQ(baseline.front().key, 777u);
  std::mt19937_64 shuffle_rng(99);
  for (int round = 0; round < 3; ++round) {
    std::shuffle(records.begin(), records.end(), shuffle_rng);
    const auto shuffled = run(records);
    ASSERT_EQ(shuffled.size(), baseline.size());
    EXPECT_EQ(shuffled.front().key, baseline.front().key);
    EXPECT_EQ(shuffled.front().value, baseline.front().value);
  }
}

TEST(MvSketch, CombineRecoversKeysFromBothParts) {
  const auto family = make_tabulation_family(13, kH);
  MvSketch a(family, kK), b(family, kK);
  common::Rng rng(9);
  for (int i = 0; i < 2000; ++i) {
    (i % 2 ? a : b).update(rng.next_below(1u << 24), 1.0);
  }
  a.update(1001, 500000.0);
  b.update(2002, 400000.0);
  const std::vector<const MvSketch*> parts{&a, &b};
  const std::vector<double> coeffs{1.0, 1.0};
  const MvSketch merged = MvSketch::combine(coeffs, parts);
  const auto recovered = merged.recover_heavy_keys(100000.0);
  ASSERT_EQ(recovered.size(), 2u);
  EXPECT_EQ(recovered[0].key, 1001u);
  EXPECT_EQ(recovered[1].key, 2002u);
}

/// Two observed intervals over the same background; `changed` gets
/// `volume` extra in `after` when positive, in `before` when negative.
struct TwoIntervals {
  MvSketch before;
  MvSketch after;
  KarySketch error;  // after - before, counters only
};

TwoIntervals two_intervals(std::uint64_t changed, double volume) {
  const auto family = make_tabulation_family(14, kH);
  TwoIntervals t{MvSketch(family, kK), MvSketch(family, kK),
                 KarySketch(family, kK)};
  common::Rng rng(10);
  for (int i = 0; i < 3000; ++i) {
    const std::uint64_t key = rng.next_below(1u << 24);
    const double u = rng.uniform(1, 100);
    t.before.update(key, u);
    t.after.update(key, u);  // unchanged background
  }
  (volume > 0 ? t.after : t.before).update(changed, std::abs(volume));
  t.error = t.after.counters();
  t.error.add_scaled(t.before.counters(), -1.0);
  return t;
}

TEST(MvSketch, ErrorSketchRecoversChangedKey) {
  // The change-detection use: S_e = S_o - S_f is a plain k-ary sketch in
  // which the unchanged traffic cancels; the observed sketch's votes name
  // the key behind the bucket that stands out.
  const TwoIntervals t = two_intervals(31337, 250000.0);
  const MvSketch* const sources[] = {&t.after};
  const auto recovered =
      recover_heavy_keys<hash::TabulationHashFamily>(t.error, 100000.0,
                                                     sources);
  ASSERT_EQ(recovered.size(), 1u);
  EXPECT_EQ(recovered.front().key, 31337u);
  EXPECT_EQ(recovered.front().value, t.error.estimate(31337));
}

TEST(MvSketch, PreviousVotesRecoverVanishedKey) {
  // A key that stopped sending holds no votes in the current interval; only
  // the previous interval's sketch names it.
  const TwoIntervals t = two_intervals(31337, -250000.0);
  const MvSketch* const current_only[] = {&t.after};
  std::size_t swept = 0;
  EXPECT_TRUE(recover_heavy_keys<hash::TabulationHashFamily>(
                  t.error, 100000.0, current_only, &swept)
                  .empty());
  const MvSketch* const both[] = {&t.after, &t.before};
  const auto recovered = recover_heavy_keys<hash::TabulationHashFamily>(
      t.error, 100000.0, both, &swept);
  ASSERT_EQ(recovered.size(), 1u);
  EXPECT_EQ(recovered.front().key, 31337u);
  EXPECT_LT(recovered.front().value, -100000.0);
  EXPECT_GE(swept, 1u);
}

TEST(MvSketch, RecoveryRejectsForeignSources) {
  const TwoIntervals t = two_intervals(31337, 250000.0);
  const MvSketch other(make_tabulation_family(99, kH), kK);
  const MvSketch* const sources[] = {&t.after, &other};
  EXPECT_THROW((void)recover_heavy_keys<hash::TabulationHashFamily>(
                   t.error, 100000.0, sources),
               std::invalid_argument);
}

TEST(MvSketch, ScaleZeroClearsVoteState) {
  MvSketch sketch = make_sketch();
  sketch.update(55, 1000.0);
  sketch.scale(0.0);
  EXPECT_TRUE(sketch.recover_heavy_keys(0.0).empty());
  for (const double v : sketch.votes()) EXPECT_EQ(v, 0.0);
  for (const double r : sketch.registers()) EXPECT_EQ(r, 0.0);
}

TEST(MvSketch, StructuralMisuseThrows) {
  const auto family = make_tabulation_family(15, kH);
  EXPECT_THROW(MvSketch(nullptr, kK), std::invalid_argument);
  EXPECT_THROW(MvSketch(family, 3), std::invalid_argument);       // not pow2
  EXPECT_THROW(MvSketch(family, 1u << 17), std::invalid_argument);
  MvSketch a(family, kK);
  MvSketch b(make_tabulation_family(16, kH), kK);
  EXPECT_THROW(a.add_scaled(b, 1.0), std::invalid_argument);
  EXPECT_THROW(a.load_registers(std::vector<double>(3)),
               std::invalid_argument);
  EXPECT_THROW(a.load_aux(std::vector<std::uint64_t>(3),
                          std::vector<double>(3)),
               std::invalid_argument);
  const std::vector<const MvSketch*> parts{&a, &b};
  const std::vector<double> coeffs{1.0, 1.0};
  EXPECT_THROW((void)MvSketch::combine(coeffs, parts), std::invalid_argument);
  EXPECT_THROW((void)MvSketch::combine({}, {}), std::invalid_argument);
}

TEST(MvSketch, Mv64HandlesFullKeyDomain) {
  MvSketch64 sketch(std::make_shared<const hash::CwHashFamily>(17, kH), kK);
  common::Rng rng(11);
  for (int i = 0; i < 3000; ++i) {
    sketch.update(rng.next_u64(), 1.0);
  }
  const std::uint64_t heavy = 0xfeedfacecafebeefULL;
  sketch.update(heavy, 200000.0);
  const auto recovered = sketch.recover_heavy_keys(100000.0);
  ASSERT_EQ(recovered.size(), 1u);
  EXPECT_EQ(recovered.front().key, heavy);
}

// ---- serialization -------------------------------------------------------

MvSketch make_populated_mv(std::uint64_t family_seed, std::uint64_t data_seed) {
  MvSketch sketch = make_sketch(family_seed);
  common::Rng rng(data_seed);
  for (int i = 0; i < 800; ++i) {
    sketch.update(rng.next_below(1u << 30), rng.uniform(-100, 1000));
  }
  sketch.update(424242, 500000.0);
  return sketch;
}

TEST(MvSketchSerialize, RoundTripPreservesFullState) {
  const MvSketch original = make_populated_mv(18, 1);
  FamilyRegistry registry;
  const MvSketch restored =
      mv_sketch_from_bytes(mv_sketch_to_bytes(original), registry);
  ASSERT_EQ(restored.depth(), original.depth());
  ASSERT_EQ(restored.width(), original.width());
  const auto regs_a = original.registers();
  const auto regs_b = restored.registers();
  for (std::size_t i = 0; i < regs_a.size(); ++i) {
    EXPECT_EQ(regs_a[i], regs_b[i]);
  }
  const auto cand_a = original.candidates();
  const auto cand_b = restored.candidates();
  const auto vote_a = original.votes();
  const auto vote_b = restored.votes();
  for (std::size_t i = 0; i < cand_a.size(); ++i) {
    EXPECT_EQ(cand_a[i], cand_b[i]);
    EXPECT_EQ(vote_a[i], vote_b[i]);
  }
  // The property that matters: recovery is unchanged by the round trip.
  const auto ra = original.recover_heavy_keys(100000.0);
  const auto rb = restored.recover_heavy_keys(100000.0);
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].key, rb[i].key);
    EXPECT_EQ(ra[i].value, rb[i].value);
  }
}

TEST(MvSketchSerialize, Mv64RoundTrip) {
  MvSketch64 original(std::make_shared<const hash::CwHashFamily>(19, kH), 512);
  original.update(0xfeedfacecafebeefULL, 12345.0);
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  write_sketch(buffer, original);
  FamilyRegistry registry;
  const MvSketch64 restored = read_mv_sketch64(buffer, registry);
  const auto recovered = restored.recover_heavy_keys(1000.0);
  ASSERT_EQ(recovered.size(), 1u);
  EXPECT_EQ(recovered.front().key, 0xfeedfacecafebeefULL);
}

TEST(MvSketchSerialize, KaryReaderRejectsMvKindAsFamilyMismatch) {
  // The aggregator's typed-reject path: a node shipping invertible-family
  // packets to a k-ary reader gets kFamilyMismatch, not a crash or a
  // mis-parse.
  const auto bytes = mv_sketch_to_bytes(make_populated_mv(20, 2));
  FamilyRegistry registry;
  try {
    (void)sketch_from_bytes(bytes, registry);
    FAIL() << "kary reader accepted an invertible-family payload";
  } catch (const SerializeError& e) {
    EXPECT_EQ(e.kind(), SerializeErrorKind::kFamilyMismatch);
  }
}

TEST(MvSketchSerialize, MvReaderRejectsKaryKindAsFamilyMismatch) {
  KarySketch kary(make_tabulation_family(21, kH), kK);
  kary.update(1, 2.0);
  const auto bytes = sketch_to_bytes(kary);
  FamilyRegistry registry;
  try {
    (void)mv_sketch_from_bytes(bytes, registry);
    FAIL() << "mv reader accepted a k-ary payload";
  } catch (const SerializeError& e) {
    EXPECT_EQ(e.kind(), SerializeErrorKind::kFamilyMismatch);
  }
}

TEST(MvSketchSerialize, NegativeVoteIsTypedCorruption) {
  auto bytes = mv_sketch_to_bytes(make_populated_mv(22, 3));
  // Votes are the trailing h*k doubles; make the last one negative.
  const double poison = -1.0;
  std::uint64_t bits = 0;
  std::memcpy(&bits, &poison, sizeof(bits));
  for (int i = 0; i < 8; ++i) {
    bytes[bytes.size() - 8 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(bits >> (8 * i));
  }
  FamilyRegistry registry;
  try {
    (void)mv_sketch_from_bytes(bytes, registry);
    FAIL() << "negative vote accepted";
  } catch (const SerializeError& e) {
    EXPECT_EQ(e.kind(), SerializeErrorKind::kCorruptRegisters);
  }
}

TEST(MvSketchSerialize, CandidateOutsideKeyDomainIsTypedCorruption) {
  auto bytes = mv_sketch_to_bytes(make_populated_mv(23, 4));
  // Candidates are h*k u64s between the registers and the votes; poison the
  // top byte of the FIRST candidate so it exceeds the 32-bit key domain.
  const std::size_t cells = kH * kK;
  const std::size_t header = 4 + 4 + 1 + 8 + 4 + 4;
  const std::size_t first_candidate = header + cells * 8;
  bytes[first_candidate + 7] = 0xff;
  FamilyRegistry registry;
  try {
    (void)mv_sketch_from_bytes(bytes, registry);
    FAIL() << "out-of-domain candidate accepted";
  } catch (const SerializeError& e) {
    EXPECT_EQ(e.kind(), SerializeErrorKind::kCorruptRegisters);
  }
}

TEST(MvSketchSerialize, TruncatedAuxStateIsTyped) {
  const auto bytes = mv_sketch_to_bytes(make_populated_mv(24, 5));
  // Cut inside the candidate/vote section (past the registers).
  const std::size_t cells = kH * kK;
  const std::size_t header = 4 + 4 + 1 + 8 + 4 + 4;
  const std::size_t cut = header + cells * 8 + cells * 4;
  const std::vector<std::uint8_t> truncated(bytes.begin(),
                                            bytes.begin() + cut);
  FamilyRegistry registry;
  try {
    (void)mv_sketch_from_bytes(truncated, registry);
    FAIL() << "truncated aux state accepted";
  } catch (const SerializeError& e) {
    EXPECT_EQ(e.kind(), SerializeErrorKind::kTruncated);
  }
}

TEST(MvSketch, SwapTablesExchangeStateAndCheckTheSize) {
  MvSketch s = make_populated_mv(25, 6);
  const std::vector<double> registers(s.registers().begin(),
                                      s.registers().end());
  const std::vector<std::uint64_t> candidates(s.candidates().begin(),
                                              s.candidates().end());
  const std::vector<double> votes(s.votes().begin(), s.votes().end());
  std::vector<double> r(kH * kK, 0.0);
  std::vector<std::uint64_t> c(kH * kK, 0);
  std::vector<double> v(kH * kK - 1, 0.0);
  EXPECT_THROW(s.swap_aux(c, v), std::invalid_argument);
  std::vector<double> short_r(kH * kK + 1, 0.0);
  EXPECT_THROW(s.swap_registers(short_r), std::invalid_argument);
  v.push_back(0.0);
  s.swap_registers(r);
  s.swap_aux(c, v);
  EXPECT_EQ(r, registers);
  EXPECT_EQ(c, candidates);
  EXPECT_EQ(v, votes);
  EXPECT_TRUE(std::all_of(s.votes().begin(), s.votes().end(),
                          [](double x) { return x == 0.0; }));
  EXPECT_DOUBLE_EQ(s.counters().sum(), 0.0);
}

TEST(MvSketchSerialize, TrailingBytesAreTyped) {
  auto bytes = mv_sketch_to_bytes(make_populated_mv(25, 6));
  bytes.push_back(0);
  FamilyRegistry registry;
  try {
    (void)mv_sketch_from_bytes(bytes, registry);
    FAIL() << "trailing bytes accepted";
  } catch (const SerializeError& e) {
    EXPECT_EQ(e.kind(), SerializeErrorKind::kTrailingBytes);
  }
}

}  // namespace
}  // namespace scd::sketch
