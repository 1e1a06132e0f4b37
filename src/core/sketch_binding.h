// Compile-time binding of traffic key kinds to sketch types.
//
// The tabulation fast path hashes 32-bit keys only; a 64-bit key kind
// (kSrcDstPair) fed through KarySketch would be truncated and two distinct
// keys would silently collide. The pipeline dispatches at runtime via
// traffic::key_fits_32bit; this header gives compile-time callers (tools
// that instantiate sketches directly for a fixed key kind) the same
// guarantee as a type-level mapping plus a static_assert-able predicate.
#pragma once

#include <type_traits>

#include "sketch/kary_sketch.h"
#include "sketch/mv_sketch.h"
#include "traffic/key_extract.h"

namespace scd::core {

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
