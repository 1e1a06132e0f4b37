#!/usr/bin/env python3
"""scd_lint — project-invariant linter for the sketch-change-detection repo.

Enforces invariants that clang-tidy cannot express because they are about
THIS codebase's contracts, not C++ in general:

  throw-not-assert   Public mutating sketch APIs that validate structure
                     (combine/add_scaled/load_registers and the sketch
                     constructors) must throw std::invalid_argument, never
                     rely on assert() alone — an unchecked mismatch is an
                     out-of-bounds access in release builds.

  kkeybits-binding   A file that hand-picks a sketch type while working with
                     traffic KeyKinds must bind the choice through
                     core/sketch_binding.h (SketchForKeyKind or a
                     kSketchCoversKeyKind static_assert) so 64-bit key kinds
                     can never silently truncate through a 32-bit family.

  metric-docs        Every `scd_*` metric name registered in src/ must be
                     documented in docs/OBSERVABILITY.md, and every
                     documented name must still exist in code.

  include-hygiene    src/ files that use a core project type must include
                     its canonical header directly instead of relying on a
                     transitive include.

  simd-isolation     Only src/simd itself may include the per-ISA kernel
                     files (simd/kernels_scalar.h, simd/kernels_avx2.h,
                     simd/kernels_avx512.h, simd/kernels_body.inc).
                     Everyone else goes through the dispatching
                     simd/kernels.h, so ISA selection stays a single
                     process-wide decision and no caller can bypass the
                     cpuid / SCD_SIMD gate.

  mutex-wrapper      src/ code must use the annotated scd::common::Mutex /
                     MutexLock / CondVar wrappers (common/mutex.h), never
                     raw std::mutex / std::lock_guard / std::condition_
                     variable — the raw types carry no thread-safety
                     capability, so clang's -Wthread-safety cannot see
                     through them. Also pins the annotation contract on the
                     concurrency-critical types (BoundedQueue, ShardSet):
                     stripping an SCD_GUARDED_BY / SCD_REQUIRES from them
                     fails this rule even on toolchains without clang.

  mo-rationale       Every explicit relaxed/acquire/release/acq_rel/consume
                     memory order argument must carry a `// mo:` rationale
                     comment: on the same line, or above it within the same
                     contiguous block of lines (a blank line ends coverage,
                     and coverage reaches at most twenty lines down). Default
                     (seq_cst) ordering needs no comment; the weakened ones
                     are exactly where a future reader needs to know which
                     reordering was proven harmless.

  lock-order-doc     The lock-acquisition-order table in
                     docs/CONCURRENCY.md and the SCD_ACQUIRED_BEFORE
                     annotations in src/ must agree in BOTH directions:
                     every annotated edge needs a table row, and every
                     table row needs a live annotation. A stale doc about
                     lock order is worse than none.

  byte-codec         src/ code must not hand-roll little-endian codecs: a
                     shift by `8 * i` (or `i * 8`) is the signature of a
                     per-byte pack/unpack loop, and every such loop lives
                     in common/bytes.h (store_le / load_le, ByteWriter,
                     ByteReader). One bounds-checked codec means one place
                     to get truncation, endianness and speed right.

  interval-cutter    src/ code must not hand-roll the stream clock: counting
                     a late record (`++...out_of_order...`, `+= 1`, or an
                     `out_of_order...inc(` on a metric) or a gap-close loop
                     (`while (t >= start + len) close...(`) is the signature
                     of a private interval cutter, and the one cutter lives
                     in core/interval_cutter.h. Every front end binning
                     records through it is what keeps their intervals equal.

  stage-timer        src/ code times a stage with obs::ScopedTimer, whose
                     one clock reading feeds the stage's slot, histogram and
                     span: common::Stopwatch outside src/common/ and
                     src/obs/ is the signature of a second measurement of
                     the same stage. The deleted compile-time observability
                     switches (SCD_OBS_ENABLED, SCD_TRACE_ENABLED,
                     SCD_OBS_ONLY) may not reappear anywhere under src/; the
                     one off switch is at runtime.

Waivers: append `// scd-lint: allow(<rule>)` to the offending line (or the
line directly above it); `// scd-lint: allow-file(<rule>)` within the first
30 lines of a file waives the rule for the whole file.

Exit status: 0 when clean, 1 when violations were found, 2 on usage error.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

# --------------------------------------------------------------------------
# Rule configuration
# --------------------------------------------------------------------------

# (relative file, method signature prefix) pairs whose bodies must validate
# with `throw`. The signature prefix is matched at the start of a trimmed
# line (possibly after decorators like [[nodiscard]] static).
THROW_CHECKED_METHODS = {
    "src/sketch/kary_sketch.h": [
        "BasicKarySketch(FamilyPtr",
        "void add_scaled(",
        "static BasicKarySketch combine(",
        "void load_registers(",
    ],
    "src/sketch/count_sketch.h": [
        "BasicCountSketch(FamilyPtr",
        "BasicCountMinSketch(FamilyPtr",
    ],
}

# A "hand-picked sketch" is a direct declaration/construction of a concrete
# sketch alias rather than the SketchForKeyKind mapping.
SKETCH_HAND_PICK = re.compile(
    r"\b(?:sketch::)?(?:KarySketch64|KarySketch)\s+\w+\s*[({]"
)
KEYKIND_USE = re.compile(r"\bKeyKind::")
BINDING_EVIDENCE = re.compile(
    r"core/sketch_binding\.h|SketchForKeyKind|kSketchCoversKeyKind"
)

METRIC_LITERAL = re.compile(r'"(scd_[a-z0-9_]+)"')
METRIC_DOC_ROW = re.compile(r"^\|\s*`(scd_[a-z0-9_]+)`")
METRIC_DOC_PATH = "docs/OBSERVABILITY.md"

# Canonical headers for core project types: using the type in src/ requires
# including its header directly (the type's own header is exempt).
INCLUDE_CANON = [
    (re.compile(r"\bBasicKarySketch\b|\bKarySketch64\b|\bKarySketch\b"),
     "sketch/kary_sketch.h"),
    (re.compile(r"\bBasicCount(?:Min)?Sketch\b|\bCount(?:Min)?Sketch\b"),
     "sketch/count_sketch.h"),
    (re.compile(r"\bMetricsRegistry\b"), "obs/metrics.h"),
    (re.compile(r"\bcommon::(?:Mutex|MutexLock|CondVar)\b"),
     "common/mutex.h"),
    (re.compile(r"\bBoundedQueue\b"), "ingest/bounded_queue.h"),
    (re.compile(r"\bShardSet(?:Base)?\b"), "ingest/shard_set.h"),
    (re.compile(r"\bKeyKind\b"), "traffic/key_extract.h"),
    (re.compile(r"\bFlowRecord\b"), "traffic/flow_record.h"),
    (re.compile(r"\bTabulationHashFamily\b"), "hash/tabulation_hash.h"),
    (re.compile(r"\bCwHashFamily\b"), "hash/cw_hash.h"),
    (re.compile(r"\bFamilyRegistry\b|\bSerializeError\b"),
     "sketch/serialize.h"),
    (re.compile(r"\bChangeDetectionPipeline\b|\bIntervalBatch\b"),
     "core/pipeline.h"),
    (re.compile(r"\bsimd::(?:scale|axpy|dot|sum_squares|hsum|active_isa|"
                r"isa_name|cpu_supports_avx2|IsaLevel)\b"),
     "simd/kernels.h"),
]

ALL_RULES = ("throw-not-assert", "kkeybits-binding", "metric-docs",
             "include-hygiene", "simd-isolation", "mutex-wrapper",
             "mo-rationale", "lock-order-doc", "byte-codec",
             "interval-cutter", "stage-timer")

# ---- byte-codec ----
# A shift by a multiple of a loop index: `v >> (8 * i)`, `b << (i * 8)`.
BYTE_SHIFT = re.compile(
    r"(?:<<|>>)\s*\(?\s*(?:8\s*\*\s*[A-Za-z_]\w*|[A-Za-z_]\w*\s*\*\s*8)\b")
BYTE_CODEC_HOME = "src/common/bytes.h"

# ---- interval-cutter ----
# Counting a late record, or closing intervals up to a record's time.
CUTTER_SIGNATURES = [
    (re.compile(r"\+\+\s*[\w.>\-]*out_of_order\w*"
                r"|\bout_of_order\w*\s*(?:\+\+|\+=\s*1\b)"
                r"|\bout_of_order\w*\s*(?:\.|->)\s*inc\s*\("),
     "hand-rolled late-record clamp"),
    (re.compile(r"\bwhile\s*\([^;{}]*>=[^;{}]*\+[^;{}]*\)\s*\{?\s*"
                r"[\w.>\-]*close\w*\s*\("),
     "hand-rolled gap-close loop"),
]
INTERVAL_CUTTER_HOME = "src/core/interval_cutter.h"

# ---- stage-timer ----
OBS_BUILD_SWITCH = re.compile(
    r"\bSCD_(?:OBS_ENABLED|TRACE_ENABLED|OBS_ONLY)\b")
STOPWATCH_USE = re.compile(r"\bcommon\s*::\s*Stopwatch\b")
STOPWATCH_HOMES = ("src/common/", "src/obs/")

# ---- mutex-wrapper ----
# The raw synchronization vocabulary that bypasses the annotated wrappers.
RAW_SYNC_TYPE = re.compile(
    r"\bstd\s*::\s*(mutex|shared_mutex|recursive_mutex|timed_mutex|"
    r"recursive_timed_mutex|shared_timed_mutex|condition_variable|"
    r"condition_variable_any|lock_guard|scoped_lock|unique_lock|"
    r"shared_lock)\b")
# The wrapper's own implementation is the one place raw types may live.
MUTEX_WRAPPER_HOME = "src/common/mutex.h"

# Thread-safety annotations that must stay on the concurrency-critical
# types. Each entry: file -> list of (anchor, regex, description). The regex
# runs on comment-stripped text; `[^;{]*?` spans a multi-line declarator
# without escaping the declaration. This keeps the compile-time contract
# checkable even on toolchains without clang's -Wthread-safety (the clang CI
# leg enforces the full analysis; this pins the named load-bearing
# annotations everywhere).
ANNOTATION_CONTRACT = {
    "src/ingest/bounded_queue.h": [
        ("items_", r"\bitems_\s+SCD_GUARDED_BY\(mutex_\)",
         "items_ must be declared SCD_GUARDED_BY(mutex_)"),
        ("closed_", r"\bclosed_\s+SCD_GUARDED_BY\(mutex_\)",
         "closed_ must be declared SCD_GUARDED_BY(mutex_)"),
    ],
    "src/ingest/shard_set.h": [
        # The epoch ledger, the merge error and the epoch-table ring share
        # the set's one lock; workers reach a ring slot only through the
        # locked helpers.
        ("closes_",
         r"\bcloses_\s+SCD_GUARDED_BY\(epoch_mutex_\)",
         "closes_ must be declared SCD_GUARDED_BY(epoch_mutex_)"),
        ("merge_error_",
         r"\bmerge_error_\s+SCD_GUARDED_BY\(epoch_mutex_\)",
         "merge_error_ must be declared SCD_GUARDED_BY(epoch_mutex_)"),
        ("ring_", r"\bring_\s+SCD_GUARDED_BY\(epoch_mutex_\)",
         "ring_ must be declared SCD_GUARDED_BY(epoch_mutex_)"),
        ("epoch_table_locked",
         r"\bepoch_table_locked\s*\([^;{]*?"
         r"SCD_REQUIRES\(epoch_mutex_\)",
         "epoch_table_locked must declare SCD_REQUIRES(epoch_mutex_)"),
        ("finish_epoch_locked",
         r"\bfinish_epoch_locked\s*\([^;{]*?"
         r"SCD_REQUIRES\(epoch_mutex_\)",
         "finish_epoch_locked must declare SCD_REQUIRES(epoch_mutex_)"),
        ("epoch_ready_locked",
         r"\bepoch_ready_locked\s*\([^;{]*?"
         r"SCD_REQUIRES\(epoch_mutex_\)",
         "epoch_ready_locked must declare SCD_REQUIRES(epoch_mutex_)"),
        ("take_epoch_locked",
         r"\btake_epoch_locked\s*\([^;{]*?"
         r"SCD_REQUIRES\(epoch_mutex_\)",
         "take_epoch_locked must declare SCD_REQUIRES(epoch_mutex_)"),
    ],
}

# ---- mo-rationale ----
EXPLICIT_MEMORY_ORDER = re.compile(
    r"\bmemory_order(?:_|::\s*)(relaxed|acquire|release|acq_rel|consume)\b")
MO_COMMENT = re.compile(r"//.*\bmo:")

# ---- lock-order-doc ----
ACQUIRED_BEFORE = re.compile(
    r"\b(\w+)\s+SCD_ACQUIRED_BEFORE\(\s*(\w+)\s*\)")
ACQUIRED_AFTER = re.compile(
    r"\b(\w+)\s+SCD_ACQUIRED_AFTER\(\s*(\w+)\s*\)")
LOCK_ORDER_DOC_PATH = "docs/CONCURRENCY.md"
# Table rows: | `first` | `second` | `src/...` | rationale |
LOCK_ORDER_DOC_ROW = re.compile(
    r"^\|\s*`(\w+)`\s*\|\s*`(\w+)`\s*\|\s*`([^`]+)`\s*\|")

# The only simd header non-simd code may include; everything else under
# simd/ is an implementation detail of the dispatch.
SIMD_CANONICAL_HEADER = "simd/kernels.h"

WAIVER = re.compile(r"//\s*scd-lint:\s*allow\(([a-z-]+)\)")
FILE_WAIVER = re.compile(r"//\s*scd-lint:\s*allow-file\(([a-z-]+)\)")


class Violation:
    def __init__(self, path: str, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(text: str) -> str:
    """Blanks out comments and string literals, preserving line structure so
    line numbers computed on the result match the original file."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            out.append("".join(ch if ch == "\n" else " "
                               for ch in text[i:j]))
            i = j
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            out.append(quote + " " * (j - i - 2) + (quote if j - i >= 2 else ""))
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def line_of(text: str, offset: int) -> int:
    return text.count("\n", 0, offset) + 1


def waived(lines: list[str], lineno: int, rule: str) -> bool:
    """True when the 1-based line, or the line above it, carries a waiver."""
    for idx in (lineno - 1, lineno - 2):
        if 0 <= idx < len(lines) and any(
                m.group(1) == rule for m in WAIVER.finditer(lines[idx])):
            return True
    return False


def file_waived(lines: list[str], rule: str) -> bool:
    head = lines[:30]
    return any(m.group(1) == rule
               for line in head for m in FILE_WAIVER.finditer(line))


# --------------------------------------------------------------------------
# throw-not-assert
# --------------------------------------------------------------------------

def extract_body(text: str, sig_offset: int) -> str | None:
    """Returns the brace-enclosed body following a signature starting at
    sig_offset (which must point at or before the parameter list's opening
    paren): the body is the first `{` at paren depth 0."""
    depth_paren = 0
    i = sig_offset
    n = len(text)
    while i < n:
        c = text[i]
        if c == "(":
            depth_paren += 1
        elif c == ")":
            depth_paren -= 1
        elif c == "{" and depth_paren == 0:
            start = i
            depth = 0
            while i < n:
                if text[i] == "{":
                    depth += 1
                elif text[i] == "}":
                    depth -= 1
                    if depth == 0:
                        return text[start:i + 1]
                i += 1
            return None
        elif c == ";" and depth_paren == 0:
            return None  # declaration only
        i += 1
    return None


def check_throw_not_assert(root: Path) -> list[Violation]:
    violations = []
    for rel, methods in THROW_CHECKED_METHODS.items():
        path = root / rel
        if not path.is_file():
            continue
        raw = path.read_text()
        lines = raw.splitlines()
        text = strip_comments_and_strings(raw)
        if file_waived(lines, "throw-not-assert"):
            continue
        for sig in methods:
            offset = text.find(sig)
            if offset == -1:
                violations.append(Violation(
                    rel, 1, "throw-not-assert",
                    f"expected public API '{sig}...' not found "
                    "(update THROW_CHECKED_METHODS if it was renamed)"))
                continue
            lineno = line_of(text, offset)
            if waived(lines, lineno, "throw-not-assert"):
                continue
            body = extract_body(text, offset)
            if body is None:
                continue  # declaration without body (e.g. forward decl)
            has_throw = re.search(r"\bthrow\b", body) is not None
            has_assert = re.search(r"\bassert\s*\(", body) is not None
            if not has_throw:
                what = ("validates with assert() only"
                        if has_assert else "performs no validation")
                violations.append(Violation(
                    rel, lineno, "throw-not-assert",
                    f"'{sig}...' {what}; structural misuse must throw "
                    "std::invalid_argument in all build types"))
    return violations


# --------------------------------------------------------------------------
# kkeybits-binding
# --------------------------------------------------------------------------

def check_kkeybits_binding(root: Path, files: list[Path]) -> list[Violation]:
    violations = []
    for path in files:
        rel = path.relative_to(root).as_posix()
        if rel == "src/core/sketch_binding.h":
            continue
        raw = path.read_text()
        lines = raw.splitlines()
        if file_waived(lines, "kkeybits-binding"):
            continue
        text = strip_comments_and_strings(raw)
        if not KEYKIND_USE.search(text):
            continue
        match = SKETCH_HAND_PICK.search(text)
        if match is None:
            continue
        # Binding evidence must appear in the raw file (the include line).
        if BINDING_EVIDENCE.search(raw):
            continue
        lineno = line_of(text, match.start())
        if waived(lines, lineno, "kkeybits-binding"):
            continue
        violations.append(Violation(
            rel, lineno, "kkeybits-binding",
            "hand-picks a sketch type while using KeyKind; bind the choice "
            "through core/sketch_binding.h (SketchForKeyKind or a "
            "kSketchCoversKeyKind static_assert)"))
    return violations


# --------------------------------------------------------------------------
# metric-docs
# --------------------------------------------------------------------------

def check_metric_docs(root: Path, src_files: list[Path]) -> list[Violation]:
    violations = []
    registered: dict[str, tuple[str, int]] = {}
    for path in src_files:
        rel = path.relative_to(root).as_posix()
        raw = path.read_text()
        lines = raw.splitlines()
        for m in METRIC_LITERAL.finditer(raw):
            lineno = line_of(raw, m.start())
            if waived(lines, lineno, "metric-docs"):
                continue
            registered.setdefault(m.group(1), (rel, lineno))

    doc_path = root / METRIC_DOC_PATH
    documented: dict[str, int] = {}
    if doc_path.is_file():
        for idx, line in enumerate(doc_path.read_text().splitlines(), 1):
            m = METRIC_DOC_ROW.match(line.strip())
            if m:
                documented.setdefault(m.group(1), idx)
    elif registered:
        violations.append(Violation(
            METRIC_DOC_PATH, 1, "metric-docs",
            "metrics are registered in code but the doc file is missing"))
        return violations

    for name, (rel, lineno) in sorted(registered.items()):
        if name not in documented:
            violations.append(Violation(
                rel, lineno, "metric-docs",
                f"metric '{name}' is registered here but not documented in "
                f"{METRIC_DOC_PATH}"))
    for name, lineno in sorted(documented.items()):
        if name not in registered:
            violations.append(Violation(
                METRIC_DOC_PATH, lineno, "metric-docs",
                f"metric '{name}' is documented but no longer registered "
                "anywhere under src/"))
    return violations


# --------------------------------------------------------------------------
# include-hygiene
# --------------------------------------------------------------------------

INCLUDE_LINE = re.compile(r'^\s*#\s*include\s*"([^"]+)"', re.MULTILINE)


def check_include_hygiene(root: Path, src_files: list[Path]) -> list[Violation]:
    violations = []
    for path in src_files:
        rel = path.relative_to(root).as_posix()
        raw = path.read_text()
        lines = raw.splitlines()
        if file_waived(lines, "include-hygiene"):
            continue
        text = strip_comments_and_strings(raw)
        includes = set(INCLUDE_LINE.findall(raw))
        for pattern, header in INCLUDE_CANON:
            if rel == f"src/{header}":
                continue
            match = pattern.search(text)
            if match is None or header in includes:
                continue
            lineno = line_of(text, match.start())
            if waived(lines, lineno, "include-hygiene"):
                continue
            violations.append(Violation(
                rel, lineno, "include-hygiene",
                f"uses '{match.group(0)}' without including \"{header}\" "
                "directly (transitive-include reliance)"))
    return violations


# --------------------------------------------------------------------------
# simd-isolation
# --------------------------------------------------------------------------

def check_simd_isolation(root: Path, files: list[Path]) -> list[Violation]:
    violations = []
    for path in files:
        rel = path.relative_to(root).as_posix()
        if rel.startswith("src/simd/"):
            continue  # the kernel layer wires its own backends together
        raw = path.read_text()
        lines = raw.splitlines()
        if file_waived(lines, "simd-isolation"):
            continue
        for m in INCLUDE_LINE.finditer(raw):
            header = m.group(1)
            if not header.startswith("simd/") or header == SIMD_CANONICAL_HEADER:
                continue
            lineno = line_of(raw, m.start())
            if waived(lines, lineno, "simd-isolation"):
                continue
            violations.append(Violation(
                rel, lineno, "simd-isolation",
                f"includes per-ISA kernel header \"{header}\"; callers must "
                f"go through \"{SIMD_CANONICAL_HEADER}\" so the runtime "
                "dispatch (cpuid + SCD_SIMD) stays authoritative"))
    return violations


# --------------------------------------------------------------------------
# mutex-wrapper
# --------------------------------------------------------------------------

def check_mutex_wrapper(root: Path, src_files: list[Path]) -> list[Violation]:
    violations = []
    for path in src_files:
        rel = path.relative_to(root).as_posix()
        if rel == MUTEX_WRAPPER_HOME:
            continue
        raw = path.read_text()
        lines = raw.splitlines()
        if file_waived(lines, "mutex-wrapper"):
            continue
        text = strip_comments_and_strings(raw)
        for m in RAW_SYNC_TYPE.finditer(text):
            lineno = line_of(text, m.start())
            if waived(lines, lineno, "mutex-wrapper"):
                continue
            violations.append(Violation(
                rel, lineno, "mutex-wrapper",
                f"raw std::{m.group(1)} bypasses the annotated wrappers; "
                "use scd::common::Mutex / MutexLock / CondVar "
                "(common/mutex.h) so -Wthread-safety sees the capability"))
        contract = ANNOTATION_CONTRACT.get(rel)
        if not contract:
            continue
        for anchor, pattern, description in contract:
            if re.search(pattern, text):
                continue
            offset = text.find(anchor)
            lineno = line_of(text, offset) if offset != -1 else 1
            if waived(lines, lineno, "mutex-wrapper"):
                continue
            violations.append(Violation(
                rel, lineno, "mutex-wrapper",
                f"thread-safety annotation contract broken: {description}"))
    return violations


# --------------------------------------------------------------------------
# byte-codec
# --------------------------------------------------------------------------

def check_byte_codec(root: Path, src_files: list[Path]) -> list[Violation]:
    violations = []
    for path in src_files:
        rel = path.relative_to(root).as_posix()
        if rel == BYTE_CODEC_HOME:
            continue
        raw = path.read_text()
        lines = raw.splitlines()
        if file_waived(lines, "byte-codec"):
            continue
        text = strip_comments_and_strings(raw)
        for m in BYTE_SHIFT.finditer(text):
            lineno = line_of(text, m.start())
            if waived(lines, lineno, "byte-codec"):
                continue
            violations.append(Violation(
                rel, lineno, "byte-codec",
                "hand-rolled little-endian byte loop; use common/bytes.h "
                "(store_le / load_le, ByteWriter, ByteReader)"))
    return violations


# --------------------------------------------------------------------------
# interval-cutter
# --------------------------------------------------------------------------

def check_interval_cutter(root: Path, src_files: list[Path]) -> list[Violation]:
    violations = []
    for path in src_files:
        rel = path.relative_to(root).as_posix()
        if rel == INTERVAL_CUTTER_HOME:
            continue
        raw = path.read_text()
        lines = raw.splitlines()
        if file_waived(lines, "interval-cutter"):
            continue
        text = strip_comments_and_strings(raw)
        for pattern, what in CUTTER_SIGNATURES:
            for m in pattern.finditer(text):
                lineno = line_of(text, m.start())
                if waived(lines, lineno, "interval-cutter"):
                    continue
                violations.append(Violation(
                    rel, lineno, "interval-cutter",
                    f"{what}; bin records through core/interval_cutter.h "
                    "(IntervalCutter::place / next)"))
    return violations


# --------------------------------------------------------------------------
# stage-timer
# --------------------------------------------------------------------------

def check_stage_timer(root: Path, src_files: list[Path]) -> list[Violation]:
    violations = []
    for path in src_files:
        rel = path.relative_to(root).as_posix()
        raw = path.read_text()
        lines = raw.splitlines()
        if file_waived(lines, "stage-timer"):
            continue
        # The switch is flagged in comments too: a comment promising a
        # compile-time off switch describes a build that no longer exists.
        findings = [(m, raw, "compile-time observability switch; the one "
                     "off switch is PipelineConfig::metrics (and its "
                     "siblings) at runtime")
                    for m in OBS_BUILD_SWITCH.finditer(raw)]
        if not rel.startswith(STOPWATCH_HOMES):
            text = strip_comments_and_strings(raw)
            findings += [(m, text, "second clock on a stage; time it with "
                          "obs::ScopedTimer (obs/scoped_timer.h), whose one "
                          "reading feeds the slot, histogram and span")
                         for m in STOPWATCH_USE.finditer(text)]
        for m, text, message in findings:
            lineno = line_of(text, m.start())
            if waived(lines, lineno, "stage-timer"):
                continue
            violations.append(Violation(rel, lineno, "stage-timer", message))
    return violations


# --------------------------------------------------------------------------
# mo-rationale
# --------------------------------------------------------------------------

def check_mo_rationale(root: Path, src_files: list[Path]) -> list[Violation]:
    violations = []
    for path in src_files:
        rel = path.relative_to(root).as_posix()
        raw = path.read_text()
        lines = raw.splitlines()
        if file_waived(lines, "mo-rationale"):
            continue
        text = strip_comments_and_strings(raw)
        for m in EXPLICIT_MEMORY_ORDER.finditer(text):
            lineno = line_of(text, m.start())
            if waived(lines, lineno, "mo-rationale"):
                continue
            # Covered when the same line carries `// mo:`, or a line above
            # it does within the same contiguous block: walk upward through
            # non-blank lines (at most twenty), so one rationale covers an
            # adjacent cluster of orderings but never drifts across a
            # paragraph break. Comments live in `lines`, the unstripped
            # source.
            covered = False
            for idx in range(lineno - 1, max(-1, lineno - 21), -1):
                if idx < 0 or (idx != lineno - 1 and not lines[idx].strip()):
                    break
                if MO_COMMENT.search(lines[idx]):
                    covered = True
                    break
            if covered:
                continue
            violations.append(Violation(
                rel, lineno, "mo-rationale",
                f"memory_order_{m.group(1)} without a '// mo:' rationale "
                "comment (same line or the contiguous lines above); every "
                "weakened ordering must say why the reordering is safe"))
    return violations


# --------------------------------------------------------------------------
# lock-order-doc
# --------------------------------------------------------------------------

def collect_lock_order_edges(
        root: Path, src_files: list[Path]) -> list[tuple[str, str, str, int]]:
    """Returns (earlier, later, rel_file, lineno) edges from annotations."""
    edges = []
    for path in src_files:
        rel = path.relative_to(root).as_posix()
        if rel == "src/common/thread_annotations.h":
            continue  # macro definitions, not uses
        raw = path.read_text()
        lines = raw.splitlines()
        if file_waived(lines, "lock-order-doc"):
            continue
        text = strip_comments_and_strings(raw)
        for m in ACQUIRED_BEFORE.finditer(text):
            lineno = line_of(text, m.start())
            if waived(lines, lineno, "lock-order-doc"):
                continue
            edges.append((m.group(1), m.group(2), rel, lineno))
        for m in ACQUIRED_AFTER.finditer(text):
            lineno = line_of(text, m.start())
            if waived(lines, lineno, "lock-order-doc"):
                continue
            edges.append((m.group(2), m.group(1), rel, lineno))
    return edges


def check_lock_order_doc(root: Path, src_files: list[Path]) -> list[Violation]:
    violations = []
    edges = collect_lock_order_edges(root, src_files)

    doc_path = root / LOCK_ORDER_DOC_PATH
    documented: list[tuple[str, str, str, int]] = []
    if doc_path.is_file():
        for idx, line in enumerate(doc_path.read_text().splitlines(), 1):
            m = LOCK_ORDER_DOC_ROW.match(line.strip())
            if m and m.group(1) != "first":  # skip the header row
                documented.append((m.group(1), m.group(2), m.group(3), idx))
    elif edges:
        violations.append(Violation(
            LOCK_ORDER_DOC_PATH, 1, "lock-order-doc",
            "SCD_ACQUIRED_BEFORE annotations exist but the lock-order doc "
            "is missing"))
        return violations

    doc_keys = {(e, l, f) for e, l, f, _ in documented}
    code_keys = {(e, l, f) for e, l, f, _ in edges}
    for earlier, later, rel, lineno in edges:
        if (earlier, later, rel) not in doc_keys:
            violations.append(Violation(
                rel, lineno, "lock-order-doc",
                f"lock-order edge {earlier} -> {later} is annotated here "
                f"but missing from the {LOCK_ORDER_DOC_PATH} table "
                f"(expected row: | `{earlier}` | `{later}` | `{rel}` | ...)"))
    for earlier, later, rel, lineno in documented:
        if (earlier, later, rel) not in code_keys:
            violations.append(Violation(
                LOCK_ORDER_DOC_PATH, lineno, "lock-order-doc",
                f"documented lock-order edge {earlier} -> {later} "
                f"({rel}) has no matching SCD_ACQUIRED_BEFORE annotation "
                "in code; the table is stale"))
    return violations


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------

def collect(root: Path, subdirs: list[str]) -> list[Path]:
    files = []
    for sub in subdirs:
        base = root / sub
        if base.is_dir():
            files.extend(p for p in sorted(base.rglob("*"))
                         if p.suffix in (".h", ".cpp") and p.is_file())
    return files


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).parent.parent,
                        help="repository root to lint (default: repo root)")
    parser.add_argument("--rules", action="store_true",
                        help="list rule ids and exit")
    args = parser.parse_args(argv)

    if args.rules:
        for rule in ALL_RULES:
            print(rule)
        return 0

    root = args.root.resolve()
    if not root.is_dir():
        print(f"scd_lint: no such directory: {root}", file=sys.stderr)
        return 2

    src_files = collect(root, ["src"])
    binding_files = src_files + collect(root, ["examples", "bench"])

    violations: list[Violation] = []
    violations += check_throw_not_assert(root)
    violations += check_kkeybits_binding(root, binding_files)
    violations += check_metric_docs(root, src_files)
    violations += check_include_hygiene(root, src_files)
    violations += check_simd_isolation(root, binding_files)
    violations += check_mutex_wrapper(root, src_files)
    violations += check_mo_rationale(root, src_files)
    violations += check_lock_order_doc(root, src_files)
    violations += check_byte_codec(root, src_files)
    violations += check_interval_cutter(root, src_files)
    violations += check_stage_timer(root, src_files)

    for v in violations:
        print(v)
    if violations:
        print(f"scd_lint: {len(violations)} violation(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
