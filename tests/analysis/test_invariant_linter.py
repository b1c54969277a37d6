#!/usr/bin/env python3
"""Synthetic-tree tests for tools/lint/check_invariants.py: the R-rules,
inline waivers and the CLI.

Each test materialises a minimal repo tree in a tempdir and runs the checker
on it with ``--rules``. ``MUST-FLAG(<rule>)`` on a line names a finding the
run must report on that line (``WAIVER`` for a waiver finding); every other
line must stay silent, so a rule that stops firing and one that starts
over-reporting both fail. ``MUST-PASS(<rule>)`` marks a conforming look-alike
(guard idiom, waiver, out-of-scope path) for the registry coverage test in
test_determinism_analyzer.py.

Stdlib-only; runs under plain unittest: ``python3 test_invariant_linter.py``.
"""

from __future__ import annotations

import json
import pathlib
import re
import subprocess
import sys
import tempfile
import textwrap
import unittest

REPO = pathlib.Path(__file__).resolve().parents[2]
CHECKER = REPO / "tools" / "lint" / "check_invariants.py"

# R2 checks every configured guard and reports missing guard files, so
# synthetic trees must stub the full guarded set (empty files define no
# classes and therefore produce no findings of their own).
EPOCH_GUARD_FILES = ("src/net/sharded_probing.hpp", "src/net/sharded_probing.cpp")

MUST_FLAG_RE = re.compile(r"MUST-FLAG\((\w+)\)")


def run_checker(root, rules: str):
    with tempfile.TemporaryDirectory() as td:
        out = pathlib.Path(td) / "report.json"
        proc = subprocess.run(
            [sys.executable, str(CHECKER), "--repo", str(root), "--rules", rules,
             "--json", str(out)],
            capture_output=True, text=True, timeout=120,
        )
        report = json.loads(out.read_text()) if out.is_file() else None
    return proc, report


class InvariantCheckerTrees(unittest.TestCase):
    maxDiff = None

    def check_tree(self, rules: str, files: dict, git: bool = False,
                   expect: frozenset = frozenset()) -> subprocess.CompletedProcess:
        """Run ``rules`` over the tree; the findings must be exactly the
        MUST-FLAG lines plus ``expect``."""
        files = {rel: textwrap.dedent(content) for rel, content in files.items()}
        expected = set(expect) | {
            (m.group(1), rel, lineno)
            for rel, content in files.items()
            for lineno, line in enumerate(content.splitlines(), 1)
            for m in MUST_FLAG_RE.finditer(line)}
        with tempfile.TemporaryDirectory() as td:
            root = pathlib.Path(td)
            for rel, content in files.items():
                (root / rel).parent.mkdir(parents=True, exist_ok=True)
                (root / rel).write_text(content)
            if git:
                subprocess.run(["git", "-C", td, "init", "-q"], check=True)
                subprocess.run(["git", "-C", td, "add", "-f", "."], check=True)
            proc, report = run_checker(root, rules)
        self.assertIsNotNone(report, proc.stderr)
        got = {(f["rule"], f["file"], f["line"]) for f in report["findings"]}
        self.assertEqual(got, expected, proc.stdout + proc.stderr)
        self.assertEqual(proc.returncode, 1 if expected else 0, proc.stderr)
        return proc

    # --- R2 -------------------------------------------------------------

    def test_r2_flags_unbumped_epoch_mutation(self) -> None:
        files = {rel: "" for rel in EPOCH_GUARD_FILES}
        files["src/net/sharded_probing.cpp"] = """\
            #include "net/sharded_probing.hpp"
            void ShardedProbing::observe(NodeId s, double t) {  // MUST-FLAG(R2)
              session_time_[s] = t;    // mutates guarded state, no epoch bump
            }
            void ShardedProbing::reset(NodeId s) {  // MUST-PASS(R2): bumps the epoch
              avail_total_[s] = 0.0;
              probe_epoch_[s] += 1;
            }
            // lint-exempt(epoch): scratch mirror, not published to readers
            void ShardedProbing::mirror(NodeId s) {  // MUST-PASS(R2)
              avail_total_[s] = 0.0;
            }
        """
        proc = self.check_tree("R2", files)
        self.assertIn("ShardedProbing::observe", proc.stdout)

    def test_r2_guards_sharded_probing_in_source_and_header(self) -> None:
        files = {rel: "" for rel in EPOCH_GUARD_FILES}
        files["src/net/sharded_probing.cpp"] = """\
            #include "net/sharded_probing.hpp"
            void ShardedProbing::forget(NodeId s, std::size_t slot) {  // MUST-FLAG(R2)
              session_time_[s * degree + slot] = kNeverObserved;
            }
            void ShardedProbing::restart(NodeId s, std::size_t slot) {  // MUST-PASS(R2)
              session_time_[s * degree + slot] = kNeverObserved;
              ++probe_epoch_[s];
            }
        """
        # Out-of-class templates live in the header; they are scanned too.
        files["src/net/sharded_probing.hpp"] = """\
            #pragma once
            template <class ObservedAlive>
            void ShardedProbing::probe_with(NodeId s, ObservedAlive&& f) {  // MUST-FLAG(R2)
              avail_total_[s] = f(s) ? 1.0 : 0.0;
            }
        """
        proc = self.check_tree("R2", files)
        self.assertIn("ShardedProbing::forget", proc.stdout)
        self.assertIn("ShardedProbing::probe_with", proc.stdout)

    def test_r2_reports_a_guard_row_naming_a_missing_member(self) -> None:
        # A row listing a member its class no longer has checks nothing for
        # it; the self-check reports the row at the class declaration.
        files = {rel: "" for rel in EPOCH_GUARD_FILES}
        files["src/net/sharded_probing.hpp"] = """\
            #pragma once
            class ShardedProbing {  // MUST-FLAG(R2): avail_total_ was renamed away
             private:
              std::vector<double> session_time_;
              std::vector<double> denominator_;
              std::vector<std::uint64_t> probe_epoch_;
            };
        """
        proc = self.check_tree("R2", files)
        self.assertIn("EPOCH_GUARDS row ShardedProbing guards avail_total_", proc.stdout)
        # A member named only in the source file still counts as present.
        files["src/net/sharded_probing.cpp"] = """\
            #include "net/sharded_probing.hpp"
            double ShardedProbing::total(NodeId s) const { return avail_total_[s]; }
        """
        files["src/net/sharded_probing.hpp"] = """\
            #pragma once
            class ShardedProbing {  // MUST-PASS(R2): every guarded member is named
             private:
              std::vector<double> session_time_;
              std::vector<std::uint64_t> probe_epoch_;
            };
        """
        self.check_tree("R2", files)

    def test_r2_reports_missing_guard_files(self) -> None:
        proc = self.check_tree("R2", {"src/net/sharded_probing.hpp": ""},
                               expect=frozenset(("R2", f, 1) for f in EPOCH_GUARD_FILES[1:]))
        self.assertIn("guarded file missing", proc.stdout)

    # --- R3 -------------------------------------------------------------

    def test_r3_flags_tracked_build_artifacts(self) -> None:
        self.check_tree("R3", {"build/CMakeCache.txt": "# stale  MUST-FLAG(R3)\n",
                               "src/a.cpp": "int x;\n"}, git=True)

    def test_r3_clean_outside_git(self) -> None:
        self.check_tree("R3", {"build/CMakeCache.txt": "# not tracked  MUST-PASS(R3)\n"})

    # --- R4 -------------------------------------------------------------

    def test_r4_flags_unguarded_pending_lambda(self) -> None:
        self.check_tree("R4", {
            "src/net/conn.cpp": """\
                #include <memory>
                struct Pending { bool finished = false; };
                struct Conn {
                  std::shared_ptr<Pending> p;
                  void on_timer();
                  void arm();
                  void schedule_in(double, void*);
                };
                void Conn::on_timer() {
                  if (p->finished) return;
                }
                void Conn::arm() {
                  schedule_in(1.0, [p = p] { p->finished = true; });   // MUST-PASS(R4): inline guard
                  schedule_in(2.0, [p = p] { on_timer(); });           // MUST-PASS(R4): guarded callee
                  schedule_in(3.0, [p = p] { p->finished = false; p = nullptr; });
                  schedule_in(4.0, [p = p] { delete p.get(); });       // MUST-FLAG(R4)
                }
            """,
        })

    # --- R5 -------------------------------------------------------------

    def test_r5_flags_unguarded_state_transition(self) -> None:
        proc = self.check_tree("R5", {
            "src/payment/settlement.cpp": """\
                struct S { int state = 0; };
                struct SettlementEngine {
                  void close(S& s);
                  void expire(S& s);
                  bool is_terminal(int) const;
                };
                void SettlementEngine::close(S& s) {
                  if (is_terminal(s.state)) return;
                  s.state = 2;           // MUST-PASS(R5): first-wins guarded
                }
                void SettlementEngine::expire(S& s) {
                  s.state = 3;           // MUST-FLAG(R5)
                }
            """,
        })
        self.assertIn("SettlementEngine::expire", proc.stdout)

    # --- R7 -------------------------------------------------------------

    def test_r7_flags_direct_bench_artifact_ofstream(self) -> None:
        self.check_tree("R7", {
            "bench/report.cpp": """\
                #include <fstream>
                void write_report() {
                  std::ofstream out("BENCH_report.json");  // MUST-FLAG(R7)
                  out << "{}";
                }
            """,
        })

    def test_r7_honours_exemption_and_ignores_unrelated_streams(self) -> None:
        self.check_tree("R7", {
            "src/harness/writer.cpp": """\
                #include <fstream>
                bool atomic_write(const char* ckpt_path) {
                  // lint-exempt(atomic-write): this IS the atomic helper's temp write leg
                  std::ofstream out(ckpt_path);  // MUST-PASS(R7)
                  return bool(out);
                }
            """,
            "src/harness/log.cpp": """\
                #include <fstream>
                void append_log() {
                  std::ofstream out("debug.log");  // not a results artifact
                  out << "hello";
                }
            """,
        })

    def test_r7_comment_mentions_do_not_trip_the_context_match(self) -> None:
        self.check_tree("R7", {
            "examples/notes.cpp": """\
                #include <fstream>
                // This log sits next to prose about the checkpoint design and the
                // BENCH_sweep.json artifact, but writes neither.
                void trace() {
                  std::ofstream out("trace.txt");
                  out << "x";
                }
            """,
        })

    # --- R8 -------------------------------------------------------------

    def test_r8_flags_direct_partition_mutation(self) -> None:
        self.check_tree("R8", {
            "src/model.cpp": """\
                struct Engine { void submit_claim(int); };
                struct Bank { void transfer(int, int, long); };
                struct Part { Engine engine; Bank bank; };
                struct Plane {
                  Part& partition(unsigned);
                  const Part& partition_view(unsigned) const;
                };
                void bad(Plane& plane) {
                  plane.partition(2).engine.submit_claim(7);    // MUST-FLAG(R8)
                  plane.partition(0).bank.transfer(1, 2, 100);  // MUST-FLAG(R8)
                }
                void affirmed(Plane& plane) {
                  // lint-exempt(bank-partition): negative test drives a replay
                  plane.partition(1).engine.submit_claim(7);  // MUST-PASS(R8)
                }
                void reads(const Plane& plane) {
                  (void)plane.partition_view(2).engine;  // routed read accessor
                }
            """,
        })

    def test_r8_ignores_tests_dir_and_comment_mentions(self) -> None:
        self.check_tree("R8", {
            "tests/payment/test_replay.cpp": """\
                struct Engine { void submit_claim(int); };
                struct Part { Engine engine; };
                Part& partition(unsigned);
                void drive() { partition(1).engine.submit_claim(9); }  // MUST-PASS(R8)
            """,
            "src/notes.cpp": """\
                // prose: partition(b).engine.submit_claim(...) is forbidden here
                int x;
            """,
        })

    # --- R9 -------------------------------------------------------------

    def test_r9_flags_raw_sockets_outside_transport(self) -> None:
        self.check_tree("R9", {
            "examples/side_channel.cpp": """\
                #include <sys/socket.h>
                int bad() {
                  int fd = ::socket(AF_INET, SOCK_STREAM, 0);  // MUST-FLAG(R9)
                  ::send(fd, "x", 1, 0);                       // MUST-FLAG(R9)
                  return fd;
                }
                void fine() {
                  auto f = std::bind(&bad);       // std::bind is not ::bind
                  transport::connect(1, 2);       // qualified name, not a syscall
                }
                int affirmed(int fd, char* buf) {
                  // lint-exempt(transport): hostile-peer fixture reads the raw FIN
                  return ::recv(fd, buf, 1, 0);  // MUST-PASS(R9)
                }
            """,
            "src/transport/tcp_impl.cpp": """\
                #include <sys/socket.h>
                int owner() { return ::socket(AF_INET, SOCK_STREAM, 0); }  // MUST-PASS(R9)
            """,
        })

    def test_r9_waiver_requires_a_reason(self) -> None:
        self.check_tree("R9", {
            "tests/net/test_probe.cpp": """\
                // MUST-FLAG(WAIVER) lint-exempt(transport):
                int fd = ::socket(0, 0, 0);  // MUST-FLAG(R9)
            """,
        })

    # --- waivers --------------------------------------------------------

    def test_waivers_must_be_known_reasoned_and_used(self) -> None:
        """A waiver with an unknown tag, with no reason, or that covers no
        finding of its selected rule in a file that rule scans is a finding;
        waivers of unselected rules and out-of-scope files are not judged."""
        self.check_tree("D2,R9", {
            "src/core/w.cpp": """\
                #include <cstdlib>
                int a = 0;  // lint-exempt(determinism): nothing to waive here  MUST-FLAG(WAIVER)
                int b = 0;  // MUST-FLAG(WAIVER) lint-exempt(no-such-rule): unknown tag
                int c = std::rand();  // MUST-FLAG(D2) MUST-FLAG(WAIVER) lint-exempt(determinism):
                int d = std::rand();  // lint-exempt(determinism): harness-seeded libc draw
                // lint-exempt(bank-partition): R8 is not selected, so this is not judged
                int e = 0;
            """,
            "tests/w.cpp": "int f = 0;  // lint-exempt(determinism): D2 does not scan tests/\n",
        })

    # --- CLI ------------------------------------------------------------

    def test_rules_flag_rejects_unknown_ids(self) -> None:
        for rid in ("R99", "R1", "R6"):  # R1 folded into D2, R6 into D4
            with self.subTest(rule=rid), tempfile.TemporaryDirectory() as td:
                proc, _report = run_checker(td, rid)
                self.assertEqual(proc.returncode, 2)
                self.assertIn("unknown rule id", proc.stderr)

    def test_rule_selection_is_isolated(self) -> None:
        """A D2 violation must not surface when only D4 is requested."""
        self.check_tree("D4", {"src/core/bad.cpp": "#include <random>\nstd::random_device rd;\n"})


if __name__ == "__main__":
    unittest.main(verbosity=2)
