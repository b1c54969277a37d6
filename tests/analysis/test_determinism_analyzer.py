#!/usr/bin/env python3
"""Fixture-corpus tests for the D-rules of tools/lint/check_invariants.py,
plus the registry coverage test over both self-test files.

Every ``// MUST-FLAG(Dx)`` annotation in tests/analysis/fixtures/*.cpp names
one line the checker must report under rule Dx; every unannotated line must
stay silent. The comparison is exact in both directions, so a rule that stops
firing AND a rule that starts over-reporting both fail the suite.

The builtin backend is always exercised. The libclang backend runs as a
second case when python3-clang + libclang are importable (as in CI); it must
produce the *same* finding set — the backends share scope rules and
classifiers by construction, and this test is what keeps them aligned.

Fixtures carry an ``// analyzer-fixture: path=...`` header that assigns each
file a virtual repo path, which is how scope rules (owner modules, bench
timing, the rng home) are exercised from the tests tree.

Runs under plain unittest (stdlib only): ``python3 test_determinism_analyzer.py``.
"""

from __future__ import annotations

import json
import pathlib
import re
import subprocess
import sys
import tempfile
import unittest

HERE = pathlib.Path(__file__).resolve().parent
REPO = HERE.parents[1]
CHECKER = REPO / "tools" / "lint" / "check_invariants.py"
FIXTURES = HERE / "fixtures"
TREE_TESTS = HERE / "test_invariant_linter.py"

MARK_RE = re.compile(r"MUST-(FLAG|PASS)\((\w+)\)")


def expected_findings() -> set:
    exp = set()
    for f in sorted(FIXTURES.glob("*.cpp")):
        for lineno, line in enumerate(f.read_text().splitlines(), 1):
            exp.update((rule, f.name, lineno)
                       for kind, rule in MARK_RE.findall(line) if kind == "FLAG")
    return exp


def run_checker(backend: str):
    rules = ",".join(sorted({rule for rule, _f, _l in expected_findings()}))
    with tempfile.TemporaryDirectory() as td:
        out = pathlib.Path(td) / "report.json"
        proc = subprocess.run(
            [sys.executable, str(CHECKER), "--repo", str(REPO),
             "--fixtures", str(FIXTURES), "--rules", rules, "--backend", backend,
             "--json", str(out)],
            capture_output=True, text=True, timeout=300,
        )
        report = json.loads(out.read_text()) if out.is_file() else None
        return proc, report


def libclang_available() -> bool:
    try:
        import clang.cindex  # type: ignore  # noqa: F401
        clang.cindex.Index.create()
        return True
    except Exception:
        return False


class DeterminismFixtures(unittest.TestCase):
    maxDiff = None

    def _check_backend(self, backend: str) -> None:
        proc, report = run_checker(backend)
        self.assertIsNotNone(report, f"no JSON report produced:\n{proc.stderr}")
        self.assertEqual(report["backend"], backend,
                         f"requested backend not used:\n{proc.stderr}")
        got = {(f["rule"], f["file"], f["line"]) for f in report["findings"]}
        exp = expected_findings()
        self.assertTrue(exp, "fixture corpus has no MUST-FLAG annotations")
        missing = exp - got
        spurious = got - exp
        self.assertFalse(missing,
                         f"[{backend}] must-flag cases did not fire: {sorted(missing)}")
        self.assertFalse(spurious,
                         f"[{backend}] must-pass lines were flagged: {sorted(spurious)}")
        self.assertEqual(proc.returncode, 1,
                         "checker must exit 1 when findings exist")

    def test_builtin_backend(self) -> None:
        self._check_backend("builtin")

    def test_libclang_backend(self) -> None:
        if not libclang_available():
            self.skipTest("python3-clang / libclang not available in this container")
        self._check_backend("libclang")

    def test_every_rule_has_flag_and_pass_coverage(self) -> None:
        """Each registered rule needs a MUST-FLAG and a MUST-PASS case in the
        fixture corpus or the synthetic trees of test_invariant_linter.py."""
        sys.path.insert(0, str(CHECKER.parent))
        try:
            import check_invariants
        finally:
            sys.path.pop(0)
        sources = [*sorted(FIXTURES.glob("*.cpp")), TREE_TESTS]
        marks = set(MARK_RE.findall("\n".join(p.read_text() for p in sources)))
        self.assertTrue(check_invariants.RULES)
        for rid in check_invariants.RULES:
            with self.subTest(rule=rid):
                self.assertIn(("FLAG", rid), marks, f"{rid} has no must-flag case")
                self.assertIn(("PASS", rid), marks, f"{rid} has no must-pass case")


if __name__ == "__main__":
    unittest.main(verbosity=2)
