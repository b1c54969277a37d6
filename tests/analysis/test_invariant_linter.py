#!/usr/bin/env python3
"""Regression tests for tools/lint/check_invariants.py (rules R1-R9).

Each test materialises a minimal synthetic repo tree in a tempdir containing
one violating site and one conforming site for a single rule, then runs the
linter with ``--rules Rx`` against that tree. This pins down both directions:
the rule keeps firing on the bad shape, and the documented escape hatches
(waiver comments, guard idioms) keep working on the good shape.

Stdlib-only; runs under plain unittest: ``python3 test_invariant_linter.py``.
"""

from __future__ import annotations

import pathlib
import subprocess
import sys
import tempfile
import textwrap
import unittest

REPO = pathlib.Path(__file__).resolve().parents[2]
LINTER = REPO / "tools" / "lint" / "check_invariants.py"

# R2 runs every configured guard and reports missing guard files, so synthetic
# trees must stub the full guarded set (empty files define no classes and
# therefore produce no findings of their own).
EPOCH_GUARD_FILES = (
    "src/core/history.hpp", "src/core/history.cpp",
    "src/net/probing.hpp", "src/net/probing.cpp",
    "src/core/suspicion.hpp", "src/core/suspicion.cpp",
    "src/net/sharded_probing.hpp", "src/net/sharded_probing.cpp",
)


def make_tree(files: dict) -> tempfile.TemporaryDirectory:
    td = tempfile.TemporaryDirectory()
    root = pathlib.Path(td.name)
    for rel, content in files.items():
        p = root / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(textwrap.dedent(content))
    return td


def run_linter(root, rules: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(LINTER), "--repo", str(root), "--rules", rules],
        capture_output=True, text=True, timeout=120,
    )


class InvariantLinterRules(unittest.TestCase):
    maxDiff = None

    def assert_findings(self, proc, tag: str, expected: int) -> None:
        lines = [ln for ln in proc.stdout.splitlines() if f"[{tag}]" in ln]
        self.assertEqual(
            len(lines), expected,
            f"expected {expected} [{tag}] finding(s), got:\n{proc.stdout}{proc.stderr}")
        self.assertEqual(proc.returncode, 1 if expected else 0, proc.stderr)

    # --- R1 -------------------------------------------------------------

    def test_r1_flags_entropy_and_honours_waiver(self) -> None:
        with make_tree({
            "src/core/bad.cpp": """\
                #include <random>
                #include <chrono>
                void f() {
                  std::random_device rd;
                  auto t = std::chrono::steady_clock::now();
                }
            """,
            "src/core/good.cpp": """\
                // prose mentioning rand() in a comment must not trip R1
                #include <chrono>
                void g() {
                  auto t = std::chrono::steady_clock::now();  // lint-allow(determinism): wall-time only feeds a log banner
                }
            """,
        }) as root:
            proc = run_linter(root, "R1")
            self.assert_findings(proc, "determinism", 2)
            self.assertIn("src/core/bad.cpp:4:", proc.stdout)
            self.assertIn("src/core/bad.cpp:5:", proc.stdout)

    def test_r1_ignores_out_of_scope_dirs(self) -> None:
        with make_tree({
            "tools/bench_timer.cpp": "#include <chrono>\nauto t = std::chrono::steady_clock::now();\n",
        }) as root:
            self.assert_findings(run_linter(root, "R1"), "determinism", 0)

    # --- R2 -------------------------------------------------------------

    def test_r2_flags_unbumped_epoch_mutation(self) -> None:
        files = {rel: "" for rel in EPOCH_GUARD_FILES}
        files["src/core/history.cpp"] = """\
            #include "core/history.hpp"
            void HistoryProfile::record(int v) {
              ring_[head_] = v;        // mutates guarded state, no epoch bump
            }
            void HistoryProfile::reset() {
              head_ = 0;
              ++epoch_;                // conforming: bumps the monotone epoch
            }
            // lint-exempt(epoch): scratch mirror, not published to caches
            void HistoryProfile::mirror(int v) {
              ring_[0] = v;
            }
        """
        with make_tree(files) as root:
            proc = run_linter(root, "R2")
            self.assert_findings(proc, "epoch", 1)
            self.assertIn("HistoryProfile::record", proc.stdout)

    def test_r2_reports_missing_guard_files(self) -> None:
        with make_tree({"src/core/history.hpp": ""}) as root:
            proc = run_linter(root, "R2")
            self.assertEqual(proc.returncode, 1)
            self.assertIn("guarded file missing", proc.stdout)

    # --- R3 -------------------------------------------------------------

    def test_r3_flags_tracked_build_artifacts(self) -> None:
        with make_tree({"build/CMakeCache.txt": "# stale\n",
                        "src/a.cpp": "int x;\n"}) as root:
            subprocess.run(["git", "-C", str(root), "init", "-q"], check=True)
            subprocess.run(["git", "-C", str(root), "add", "-f", "."], check=True)
            proc = run_linter(root, "R3")
            self.assert_findings(proc, "tracked-artifact", 1)
            self.assertIn("build/CMakeCache.txt", proc.stdout)

    def test_r3_clean_outside_git(self) -> None:
        with make_tree({"build/CMakeCache.txt": "# not tracked anywhere\n"}) as root:
            self.assert_findings(run_linter(root, "R3"), "tracked-artifact", 0)

    # --- R4 -------------------------------------------------------------

    def test_r4_flags_unguarded_pending_lambda(self) -> None:
        with make_tree({
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
                  schedule_in(1.0, [p = p] { p->finished = true; });   // guarded inline
                  schedule_in(2.0, [p = p] { on_timer(); });           // guarded callee
                  schedule_in(3.0, [p = p] { p->finished = false; p = nullptr; });
                  schedule_in(4.0, [p = p] { delete p.get(); });       // unguarded
                }
            """,
        }) as root:
            proc = run_linter(root, "R4")
            self.assert_findings(proc, "finished-guard", 1)
            self.assertIn("src/net/conn.cpp:16:", proc.stdout)

    # --- R5 -------------------------------------------------------------

    def test_r5_flags_unguarded_state_transition(self) -> None:
        with make_tree({
            "src/payment/settlement.cpp": """\
                struct S { int state = 0; };
                struct SettlementEngine {
                  void close(S& s);
                  void expire(S& s);
                  bool is_terminal(int) const;
                };
                void SettlementEngine::close(S& s) {
                  if (is_terminal(s.state)) return;
                  s.state = 2;           // conforming: first-wins guarded
                }
                void SettlementEngine::expire(S& s) {
                  s.state = 3;           // unguarded re-terminalisation
                }
            """,
        }) as root:
            proc = run_linter(root, "R5")
            self.assert_findings(proc, "settlement-state", 1)
            self.assertIn("SettlementEngine::expire", proc.stdout)

    # --- R6 -------------------------------------------------------------

    def test_r6_flags_direct_cross_shard_schedule(self) -> None:
        with make_tree({
            "src/model.cpp": """\
                struct Sim { void schedule_in(double, void*); };
                Sim& shard(unsigned);
                void bad(unsigned target) {
                  shard(target).schedule_in(1.0, nullptr);
                }
                void affirmed(unsigned self) {
                  // lint-exempt(cross-shard): self is this shard's own index by construction
                  shard(self).schedule_in(1.0, nullptr);
                }
            """,
        }) as root:
            proc = run_linter(root, "R6")
            self.assert_findings(proc, "cross-shard", 1)
            self.assertIn("src/model.cpp:4:", proc.stdout)

    # --- R7 -------------------------------------------------------------

    def test_r7_flags_direct_bench_artifact_ofstream(self) -> None:
        with make_tree({
            "bench/report.cpp": """\
                #include <fstream>
                void write_report() {
                  std::ofstream out("BENCH_report.json");
                  out << "{}";
                }
            """,
        }) as root:
            proc = run_linter(root, "R7")
            self.assert_findings(proc, "atomic-write", 1)
            self.assertIn("bench/report.cpp:3:", proc.stdout)

    def test_r7_honours_exemption_and_ignores_unrelated_streams(self) -> None:
        with make_tree({
            "src/harness/writer.cpp": """\
                #include <fstream>
                bool atomic_write(const char* ckpt_path) {
                  // lint-exempt(atomic-write): this IS the atomic helper's temp write leg
                  std::ofstream out(ckpt_path);
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
        }) as root:
            self.assert_findings(run_linter(root, "R7"), "atomic-write", 0)

    def test_r7_comment_mentions_do_not_trip_the_context_match(self) -> None:
        with make_tree({
            "examples/notes.cpp": """\
                #include <fstream>
                // This log sits next to prose about the checkpoint design and the
                // BENCH_sweep.json artifact, but writes neither.
                void trace() {
                  std::ofstream out("trace.txt");
                  out << "x";
                }
            """,
        }) as root:
            self.assert_findings(run_linter(root, "R7"), "atomic-write", 0)

    # --- R8 -------------------------------------------------------------

    def test_r8_flags_direct_partition_mutation(self) -> None:
        with make_tree({
            "src/model.cpp": """\
                struct Engine { void submit_claim(int); };
                struct Bank { void transfer(int, int, long); };
                struct Part { Engine engine; Bank bank; };
                struct Plane {
                  Part& partition(unsigned);
                  const Part& partition_view(unsigned) const;
                };
                void bad(Plane& plane) {
                  plane.partition(2).engine.submit_claim(7);
                  plane.partition(0).bank.transfer(1, 2, 100);
                }
                void affirmed(Plane& plane) {
                  // lint-exempt(bank-partition): negative test drives a replay
                  plane.partition(1).engine.submit_claim(7);
                }
                void reads(const Plane& plane) {
                  (void)plane.partition_view(2).engine;  // routed read accessor
                }
            """,
        }) as root:
            proc = run_linter(root, "R8")
            self.assert_findings(proc, "bank-partition", 2)
            self.assertIn("src/model.cpp:9:", proc.stdout)
            self.assertIn("src/model.cpp:10:", proc.stdout)

    def test_r8_ignores_tests_dir_and_comment_mentions(self) -> None:
        with make_tree({
            "tests/payment/test_replay.cpp": """\
                struct Engine { void submit_claim(int); };
                struct Part { Engine engine; };
                Part& partition(unsigned);
                void drive() { partition(1).engine.submit_claim(9); }
            """,
            "src/notes.cpp": """\
                // prose: partition(b).engine.submit_claim(...) is forbidden here
                int x;
            """,
        }) as root:
            self.assert_findings(run_linter(root, "R8"), "bank-partition", 0)

    # --- R9 -------------------------------------------------------------

    def test_r9_flags_raw_sockets_outside_transport(self) -> None:
        with make_tree({
            "examples/side_channel.cpp": """\
                #include <sys/socket.h>
                int bad() {
                  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
                  ::send(fd, "x", 1, 0);
                  return fd;
                }
                void fine() {
                  auto f = std::bind(&bad);       // std::bind is not ::bind
                  transport::connect(1, 2);       // qualified name, not a syscall
                }
                int affirmed(int fd, char* buf) {
                  // lint-exempt(transport): hostile-peer fixture reads the raw FIN
                  return ::recv(fd, buf, 1, 0);
                }
            """,
            "src/transport/tcp_impl.cpp": """\
                #include <sys/socket.h>
                int owner() { return ::socket(AF_INET, SOCK_STREAM, 0); }
            """,
        }) as root:
            proc = run_linter(root, "R9")
            self.assert_findings(proc, "raw-socket", 2)
            self.assertIn("examples/side_channel.cpp:3:", proc.stdout)
            self.assertIn("examples/side_channel.cpp:4:", proc.stdout)

    def test_r9_waiver_requires_a_reason(self) -> None:
        with make_tree({
            "tests/net/test_probe.cpp": """\
                // lint-exempt(transport):
                int fd = ::socket(0, 0, 0);
            """,
        }) as root:
            self.assert_findings(run_linter(root, "R9"), "raw-socket", 1)

    # --- CLI ------------------------------------------------------------

    def test_rules_flag_rejects_unknown_ids(self) -> None:
        with make_tree({}) as root:
            proc = run_linter(root, "R99")
            self.assertEqual(proc.returncode, 2)
            self.assertIn("unknown rule id", proc.stderr)

    def test_rule_selection_is_isolated(self) -> None:
        """An R1 violation must not surface when only R6 is requested."""
        with make_tree({
            "src/core/bad.cpp": "#include <random>\nstd::random_device rd;\n",
        }) as root:
            proc = run_linter(root, "R6")
            self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)


if __name__ == "__main__":
    unittest.main(verbosity=2)
