#!/usr/bin/env python3
"""Fixture tests for scripts/scd_lint.py.

Each fixture under tests/tooling/fixtures/ is a miniature repo root with one
seeded violation (or, for `clean`, waived would-be violations). The tests
assert that each rule fires exactly on its seed — right rule, right file,
right count — and nowhere else, then that the real repository lints clean.

Run directly or via ctest (registered as tooling.scd_lint).
"""

import io
import contextlib
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
FIXTURES = Path(__file__).resolve().parent / "fixtures"

sys.path.insert(0, str(REPO_ROOT / "scripts"))
import scd_lint  # noqa: E402


def run_lint(root: Path):
    """Runs the linter against `root`, returning (exit_code, output_lines)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = scd_lint.main(["--root", str(root)])
    lines = [l for l in buf.getvalue().splitlines() if l.strip()]
    return code, lines


class FixtureTest(unittest.TestCase):
    def assert_single_violation(self, fixture: str, rule: str, path: str):
        code, lines = run_lint(FIXTURES / fixture)
        self.assertEqual(code, 1, f"{fixture}: expected exit 1, got {code}: {lines}")
        findings = [l for l in lines if not l.startswith("scd_lint:")]
        self.assertEqual(
            len(findings), 1,
            f"{fixture}: expected exactly one finding, got: {findings}")
        self.assertIn(f"[{rule}]", findings[0])
        self.assertTrue(
            findings[0].startswith(f"{path}:"),
            f"{fixture}: finding anchored to wrong file: {findings[0]}")

    def test_throw_not_assert_fires_on_assert_only_api(self):
        self.assert_single_violation(
            "throw-not-assert", "throw-not-assert", "src/sketch/kary_sketch.h")

    def test_kkeybits_binding_fires_on_unbound_hand_pick(self):
        self.assert_single_violation(
            "kkeybits-binding", "kkeybits-binding", "src/detector.cpp")

    def test_metric_docs_fires_on_undocumented_metric(self):
        self.assert_single_violation(
            "metric-docs-undocumented", "metric-docs",
            "src/obs/widget_metrics.cpp")

    def test_metric_docs_fires_on_stale_doc_row(self):
        self.assert_single_violation(
            "metric-docs-stale", "metric-docs", "docs/OBSERVABILITY.md")

    def test_include_hygiene_fires_on_transitive_include(self):
        self.assert_single_violation(
            "include-hygiene", "include-hygiene", "src/ingest/loader.cpp")

    def test_simd_isolation_fires_on_per_isa_include(self):
        self.assert_single_violation(
            "simd-isolation", "simd-isolation", "src/ingest/fast_path.cpp")

    def test_simd_isolation_fires_on_avx512_include(self):
        self.assert_single_violation(
            "simd-isolation-avx512", "simd-isolation",
            "src/detect/wide_sweep.cpp")

    def test_mutex_wrapper_fires_on_raw_std_mutex(self):
        self.assert_single_violation(
            "mutex-wrapper", "mutex-wrapper", "src/worker.cpp")

    def test_mo_rationale_fires_on_uncommented_order(self):
        self.assert_single_violation(
            "mo-rationale", "mo-rationale", "src/counter.h")

    def test_lock_order_doc_fires_on_undocumented_edge(self):
        self.assert_single_violation(
            "lock-order-doc-undocumented", "lock-order-doc", "src/state.h")

    def test_lock_order_doc_fires_on_stale_row(self):
        self.assert_single_violation(
            "lock-order-doc-stale", "lock-order-doc", "docs/CONCURRENCY.md")

    def test_byte_codec_fires_on_hand_rolled_loop(self):
        self.assert_single_violation(
            "byte-codec", "byte-codec", "src/net/packet.cpp")

    def test_interval_cutter_fires_on_hand_rolled_clamp(self):
        self.assert_single_violation(
            "interval-cutter", "interval-cutter", "src/ingest/feeder.cpp")

    def test_stage_timer_fires_on_second_clock(self):
        self.assert_single_violation(
            "stage-timer", "stage-timer", "src/ingest/merger.cpp")

    def test_waivers_silence_every_rule(self):
        code, lines = run_lint(FIXTURES / "clean")
        self.assertEqual(code, 0, f"clean fixture not clean: {lines}")
        self.assertEqual(lines, [])

    def test_rules_listing_matches_contract(self):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = scd_lint.main(["--rules"])
        self.assertEqual(code, 0)
        self.assertEqual(
            buf.getvalue().split(),
            ["throw-not-assert", "kkeybits-binding", "metric-docs",
             "include-hygiene", "simd-isolation", "mutex-wrapper",
             "mo-rationale", "lock-order-doc", "byte-codec",
             "interval-cutter", "stage-timer"])

    def test_missing_root_is_a_usage_error(self):
        code, _ = run_lint(REPO_ROOT / "tests" / "tooling" / "no-such-dir")
        self.assertEqual(code, 2)

    def test_real_repository_lints_clean(self):
        code, lines = run_lint(REPO_ROOT)
        self.assertEqual(code, 0, f"repository has lint debt: {lines}")


class AnnotationContractTest(unittest.TestCase):
    """Live demonstration: stripping any single load-bearing thread-safety
    annotation from the REAL BoundedQueue / ShardSet headers must fail the
    lint (and therefore scripts/check.sh), even without clang."""

    def lint_with_stripped(self, rel: str, annotation: str | None,
                           after: str = ""):
        """Copies the real `rel` into a scratch repo root with `annotation`
        removed from the first occurrence of `after + annotation` (None =
        copy untouched), then lints that root."""
        source = (REPO_ROOT / rel).read_text()
        if annotation is not None:
            self.assertIn(after + annotation, source,
                          f"{rel} no longer carries {after}{annotation}; "
                          "update ANNOTATION_CONTRACT and this test together")
            source = source.replace(after + annotation, after, 1)
        with tempfile.TemporaryDirectory() as tmp:
            target = Path(tmp) / rel
            target.parent.mkdir(parents=True)
            target.write_text(source)
            # Neither copied header declares a lock-order edge today; should
            # one appear, give the scratch root a doc table covering exactly
            # the edges the copy carries so `lock-order-doc` stays out of
            # these mutex-wrapper assertions.
            rows = [
                f"| `{m.group(1)}` | `{m.group(2)}` | `{rel}` | scratch |"
                for m in scd_lint.ACQUIRED_BEFORE.finditer(source)
            ]
            if rows:
                doc = Path(tmp) / scd_lint.LOCK_ORDER_DOC_PATH
                doc.parent.mkdir(parents=True)
                doc.write_text("\n".join(rows) + "\n")
            return run_lint(Path(tmp))

    def assert_contract_break(self, rel: str, annotation: str,
                              after: str = ""):
        code, lines = self.lint_with_stripped(rel, annotation, after)
        self.assertEqual(code, 1, f"stripping {annotation} from {rel} "
                         f"went unnoticed: {lines}")
        findings = [l for l in lines if "[mutex-wrapper]" in l]
        self.assertTrue(
            any("annotation contract broken" in l for l in findings),
            f"expected an annotation-contract finding, got: {lines}")

    def test_unstripped_copies_lint_clean(self):
        # Control: the same scratch-copy machinery with nothing stripped
        # produces no findings, so the assertions below isolate the strip.
        for rel in ("src/ingest/bounded_queue.h", "src/ingest/shard_set.h"):
            code, lines = self.lint_with_stripped(rel, None)
            self.assertEqual(code, 0, f"{rel} scratch copy not clean: {lines}")

    def test_stripping_guarded_by_from_bounded_queue_fails(self):
        self.assert_contract_break(
            "src/ingest/bounded_queue.h", " SCD_GUARDED_BY(mutex_)")

    def test_stripping_guarded_by_from_shard_set_fails(self):
        self.assert_contract_break(
            "src/ingest/shard_set.h", " SCD_GUARDED_BY(epoch_mutex_)")

    def test_stripping_ring_guard_from_shard_set_fails(self):
        # The epoch-table ring shares the ledger's one lock; strip that
        # guard from the ring_ declaration only.
        self.assert_contract_break(
            "src/ingest/shard_set.h", " SCD_GUARDED_BY(epoch_mutex_)",
            after="ring_")

    def test_stripping_requires_from_shard_set_fails(self):
        # The leading newline+indent pins the match to the declaration,
        # not the prose mention of the macro in the header comment.
        self.assert_contract_break(
            "src/ingest/shard_set.h", "\n      SCD_REQUIRES(epoch_mutex_)")


if __name__ == "__main__":
    unittest.main(verbosity=2)
