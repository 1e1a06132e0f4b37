// Binding of traffic key kinds and recovery modes to sketch types.
//
// The tabulation fast path hashes 32-bit keys only; a 64-bit key kind
// (kSrcDstPair) fed through KarySketch would be truncated and two distinct
// keys would silently collide. with_sketch_type is the one runtime dispatch
// every front end uses (the serial engine and the sharded workers must
// accumulate the same sketch type); the aliases below give compile-time
// callers (tools that instantiate sketches directly for a fixed key kind)
// the same guarantee as a type-level mapping plus a static_assert-able
// predicate.
#pragma once

#include <type_traits>

#include "core/pipeline.h"
#include "sketch/kary_sketch.h"
#include "sketch/mv_sketch.h"
#include "traffic/key_extract.h"

namespace scd::core {

/// Calls `make.template operator()<SketchT>()` with the sketch type that
/// `recovery` x the key width of `key_kind` selects: KarySketch(64) for
/// replay, MvSketch(64) for invertible recovery, the 64-bit variant when
/// the key kind does not fit 32 bits.
template <typename Make>
void with_sketch_type(RecoveryMode recovery, traffic::KeyKind key_kind,
                      Make&& make) {
  const bool key32 = traffic::key_fits_32bit(key_kind);
  switch (recovery) {
    case RecoveryMode::kReplay:
      if (key32) {
        make.template operator()<sketch::KarySketch>();
      } else {
        make.template operator()<sketch::KarySketch64>();
      }
      break;
    case RecoveryMode::kInvertible:
      if (key32) {
        make.template operator()<sketch::MvSketch>();
      } else {
        make.template operator()<sketch::MvSketch64>();
      }
      break;
  }
}

/// The sketch type that covers `Kind`'s key domain without truncation.
template <traffic::KeyKind Kind>
using SketchForKeyKind =
    std::conditional_t<traffic::key_fits_32bit(Kind), sketch::KarySketch,
                       sketch::KarySketch64>;

/// The invertible (majority-vote) sketch covering `Kind`'s key domain.
/// Mirrors SketchForKeyKind for callers selecting RecoveryMode::kInvertible
/// at compile time.
template <traffic::KeyKind Kind>
using MvSketchForKeyKind =
    std::conditional_t<traffic::key_fits_32bit(Kind), sketch::MvSketch,
                       sketch::MvSketch64>;

/// True when `SketchT`'s hash family hashes every key `Kind` can produce.
/// static_assert this wherever a sketch type is chosen by hand.
template <typename SketchT, traffic::KeyKind Kind>
inline constexpr bool kSketchCoversKeyKind =
    SketchT::kKeyBits >= (traffic::key_fits_32bit(Kind) ? 32u : 64u);

static_assert(kSketchCoversKeyKind<sketch::KarySketch,
                                   traffic::KeyKind::kDstIp>);
static_assert(kSketchCoversKeyKind<sketch::KarySketch64,
                                   traffic::KeyKind::kSrcDstPair>);
static_assert(!kSketchCoversKeyKind<sketch::KarySketch,
                                    traffic::KeyKind::kSrcDstPair>,
              "64-bit key kinds must bind to KarySketch64");
static_assert(kSketchCoversKeyKind<sketch::MvSketch,
                                   traffic::KeyKind::kDstIp>);
static_assert(kSketchCoversKeyKind<sketch::MvSketch64,
                                   traffic::KeyKind::kSrcDstPair>);
static_assert(!kSketchCoversKeyKind<sketch::MvSketch,
                                    traffic::KeyKind::kSrcDstPair>,
              "64-bit key kinds must bind to MvSketch64");

}  // namespace scd::core
