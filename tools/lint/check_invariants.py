#!/usr/bin/env python3
"""Project-specific invariant linter (stdlib only — runs anywhere Python 3.8+ does).

Rule families that clang-tidy cannot express, keyed to contracts this
codebase actually depends on:

R1 determinism
    ``src/core``, ``src/sim``, ``src/net``, ``src/harness``, ``src/fault``,
    ``src/payment`` and ``src/transport`` must be bitwise-deterministic
    in the scenario seed: every figure in EXPERIMENTS.md assumes that replaying
    a seed replays the run — including every bank-fault stream of the chaos
    sweep. Any ambient-entropy source — ``rand()``,
    ``std::random_device``, wall-clock reads — silently breaks that, usually
    without failing a test. Such calls are banned in those trees; randomness
    must come from ``sim::rng::Stream`` and time from ``Simulator::now()``.
    (TcpTransport's poll loop genuinely runs on wall time — its one clock
    read carries a ``lint-allow(determinism)`` waiver naming that fact.)

R2 epoch contract
    PR 1 made the decision stack cache edge qualities and memoised lookahead
    values, invalidated *only* by comparing monotone epochs published by
    ``core::HistoryProfile`` and ``net::ProbingEstimator``. A mutating method
    that forgets to bump the epoch produces stale-cache reads that corrupt
    results while every unit test of the mutated class still passes. The rule:
    any non-const member function of a guarded class whose body touches
    guarded state must also touch the epoch counter (or carry an explicit
    ``// lint-exempt(epoch): <reason>`` on the line above its definition).

R3 clean tree
    No ``build*`` trees, ``compile_commands.json``, or CTest bookkeeping may
    ever be tracked by git; stale tracked artifacts shadow fresh builds and
    poison review diffs.

R4 finished guard
    The async setup / data-phase runners keep per-connection state alive via
    ``shared_ptr<Pending>`` captured by scheduled closures. Any such closure
    that fires after the connection resolved (stale ack timer, backoff
    retry, keepalive echo) must first check the ``finished`` flag (plus its
    generation counters) or delegate to a method that does — otherwise a
    resolved connection gets double-completed or a dead path re-formed. The
    rule: in any file mentioning ``shared_ptr<Pending>``, every
    ``schedule_in``/``schedule_at`` lambda capturing ``p`` must mention
    ``finished`` in its body, or call a method whose out-of-class definition
    opens with a finished guard. Waive with
    ``// lint-exempt(finished): <reason>`` on or above the call line.

R5 settlement state transitions
    The settlement lifecycle (``payment::SettlementEngine``) moves escrow
    money exactly once per settlement, enforced by first-wins checks: a
    terminal settlement (Closed/Abandoned/Expired) never transitions again.
    A transition site added without that check re-terminalises on a replayed
    close/abandon or a racing deadline sweep — a double payout the tests only
    catch if a schedule happens to race. The rule: every assignment to a
    settlement ``state`` inside a ``SettlementEngine`` member body must be
    dominated by an ``is_terminal(...)`` check earlier in the same body.
    Waive with ``// lint-exempt(settlement-state): <reason>`` above the site.

R7 atomic artifacts
    Crash tolerance of the results plane (DESIGN.md §3.12) rests on every
    BENCH_*.json / CSV / checkpoint artifact reaching disk through
    ``harness::atomic_write_file`` (write temp + rename): a direct
    ``std::ofstream`` onto such a path can be torn by a crash mid-write,
    and a torn checkpoint silently restarts a sweep while a torn BENCH
    file poisons downstream plots. The rule: in ``src/``, ``bench/`` and
    ``examples/``, an ``ofstream`` whose nearby code mentions a results
    artifact (``BENCH_``, ``.ckpt``, checkpoint paths) must carry
    ``// lint-exempt(atomic-write): <reason>`` — the only legitimate
    holder is the atomic helper's own temp-file write leg.

R6 mailbox discipline
    The sharded engine's race-freedom rests on one rule: within a window a
    shard may only schedule onto *its own* Simulator; any effect on another
    shard must go through ``ShardedSimulator::post`` so it is buffered and
    delivered at the window barrier. ``shard(x).schedule_*`` from model code
    compiles fine either way and is bitwise-correct at K = 1, so a direct
    cross-shard schedule is exactly the bug no test at K = 1 can see — and at
    K > 1 it is a data race on the peer's event queue. The rule: in ``src/``
    and ``bench/``, any ``shard(...).schedule_in/at`` call site must carry
    ``// lint-exempt(cross-shard): <reason>`` on or above the line affirming
    the target shard is the caller's own. (Engine internals index
    ``shards_[...]`` directly and model code routes through owner-checked
    helpers, so a clean tree has zero such sites.)

R8 bank-partition ownership
    The sharded settlement plane (``payment::ShardedSettlementPlane``) routes
    every settlement to one bank partition by settlement key; the engine's
    replay protection and the batched MAC verification only see traffic that
    arrives through the plane's routed entry points (open_settlement /
    submit_aggregated_claim / close_settlement / expire_due). Model or bench
    code that reaches into ``partition(b).engine`` / ``partition(b).bank``
    directly bypasses both — a receipt redeemed that way is invisible to the
    owning engine's redeemed-MAC map and only the merge reconciliation can
    catch it. The rule: in ``src/``, ``bench/`` and ``examples/``, any
    ``partition(...).engine.*(...)`` or ``partition(...).bank.*(...)`` call
    must carry ``// lint-exempt(bank-partition): <reason>`` on or above the
    line (read-only access belongs on ``partition_view(...)``, which the
    rule deliberately does not match).

R9 raw-socket confinement
    The transport plane (``src/transport``) owns every socket in the tree:
    its codec is the single place frames are framed, checksummed and
    length-checked, its reject path is the single place malformed bytes are
    counted, and its Bye/heartbeat split is the single place liveness is
    decided. A raw ``::socket`` / ``::send`` / ``::recv`` call anywhere else
    is a second, unframed wire — invisible to the malformed-frame counters,
    the suspicion feed and the chaos driver's conservation audit. The rule:
    in ``src/``, ``bench/``, ``examples/`` and ``tests/``, any
    global-namespace BSD socket call (``::socket``, ``::send``, ``::recv``,
    ``::sendto``, ``::recvfrom``, ``::connect``, ``::accept``, ``::bind``,
    ``::listen``) outside ``src/transport/`` must carry
    ``// lint-exempt(transport): <reason>`` on or above the line — the only
    legitimate holders are deliberate hostile-peer tests that inject raw
    bytes past the codec on purpose.

Exit status: 0 when clean, 1 with one ``file:line: [rule] message`` per finding.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import subprocess
import sys
from typing import Iterator, List, Optional, Tuple

# --------------------------------------------------------------------------
# R1 configuration
# --------------------------------------------------------------------------

DETERMINISM_DIRS = ("src/core", "src/sim", "src/net", "src/harness", "src/fault",
                    "src/payment", "src/transport")

# Patterns are matched against comment- and string-stripped source, so prose
# like "initialised to rand(0, T)" in a doc comment never trips them.
DETERMINISM_BANNED: List[Tuple[re.Pattern, str]] = [
    (re.compile(r"\bstd\s*::\s*random_device\b"), "std::random_device (ambient entropy)"),
    (re.compile(r"(?<!\w)(?<!::)random_device\b"), "random_device (ambient entropy)"),
    (re.compile(r"\bstd\s*::\s*rand\b"), "std::rand"),
    (re.compile(r"(?<![\w:])s?rand\s*\("), "rand()/srand()"),
    (re.compile(r"\bsystem_clock\b"), "wall clock (system_clock)"),
    (re.compile(r"\bsteady_clock\b"), "wall clock (steady_clock)"),
    (re.compile(r"\bhigh_resolution_clock\b"), "wall clock (high_resolution_clock)"),
    (re.compile(r"\bgettimeofday\s*\("), "gettimeofday()"),
    (re.compile(r"\bclock_gettime\s*\("), "clock_gettime()"),
    (re.compile(r"(?<![\w:])time\s*\(\s*(?:NULL|nullptr|0)?\s*\)"), "time()"),
    (re.compile(r"(?<![\w:.>])clock\s*\(\s*\)"), "clock()"),
]

# An inline waiver must name the rule and give a reason; a bare marker is
# rejected so suppressions stay auditable.
ALLOW_RE = re.compile(r"lint-allow\(determinism\):\s*\S")

# --------------------------------------------------------------------------
# R2 configuration — the guarded classes and their cache-contract state.
# --------------------------------------------------------------------------

EPOCH_GUARDS = [
    {
        "cls": "HistoryProfile",
        "files": ("src/core/history.hpp", "src/core/history.cpp"),
        "state": ("ring_", "head_", "counts_"),
        "epoch": re.compile(r"(\+\+\s*epoch_|epoch_\s*(\[[^]]*\]\s*)?(\+\+|\+=|=))"),
    },
    {
        "cls": "ProbingEstimator",
        "files": ("src/net/probing.hpp", "src/net/probing.cpp"),
        "state": ("session_time_", "total_"),
        "epoch": re.compile(r"(\+\+\s*epoch_|epoch_\s*(\[[^]]*\]\s*)?(\+\+|\+=|=))"),
    },
    {
        "cls": "SuspicionTracker",
        "files": ("src/core/suspicion.hpp", "src/core/suspicion.cpp"),
        "state": ("counts_",),
        "epoch": re.compile(r"(\+\+\s*epoch_|epoch_\s*(\[[^]]*\]\s*)?(\+\+|\+=|=))"),
    },
    {
        # The sharded probing estimator publishes per-node epochs consumed by
        # ShardedEdgeQuality — same contract, SoA form.
        "cls": "ShardedProbing",
        "files": ("src/net/sharded_probing.hpp", "src/net/sharded_probing.cpp"),
        "state": ("session_time_", "avail_total_"),
        "epoch": re.compile(
            r"(\+\+\s*probe_epoch_|probe_epoch_\s*(\[[^]]*\]\s*)?(\+\+|\+=|=))"),
    },
]

EXEMPT_RE = re.compile(r"lint-exempt\(epoch\):\s*\S")

# --------------------------------------------------------------------------
# Source mangling helpers
# --------------------------------------------------------------------------


def strip_comments_and_strings(text: str, keep_strings: bool = False) -> str:
    """Replace comments and (unless ``keep_strings``) string/char literals
    with spaces, preserving line structure so reported line numbers stay
    valid. R7 keeps literals: artifact names live inside them."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            out.append("".join(ch if ch == "\n" else " " for ch in text[i:j]))
            i = j
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            out.append(text[i:j] if keep_strings else " " * (j - i))
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def iter_source_files(repo: pathlib.Path, subdirs) -> Iterator[pathlib.Path]:
    for sub in subdirs:
        base = repo / sub
        if not base.is_dir():
            continue
        for ext in ("*.hpp", "*.h", "*.cpp", "*.cc"):
            yield from sorted(base.rglob(ext))


def match_brace_block(text: str, open_idx: int) -> int:
    """Index one past the matching ``}`` for the ``{`` at ``open_idx``."""
    depth = 0
    for i in range(open_idx, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return i + 1
    return len(text)


# --------------------------------------------------------------------------
# R1 — determinism
# --------------------------------------------------------------------------


def check_determinism(repo: pathlib.Path) -> List[str]:
    findings = []
    for path in iter_source_files(repo, DETERMINISM_DIRS):
        raw = path.read_text(encoding="utf-8", errors="replace")
        raw_lines = raw.splitlines()
        stripped = strip_comments_and_strings(raw)
        for lineno, line in enumerate(stripped.splitlines(), start=1):
            for pat, what in DETERMINISM_BANNED:
                if not pat.search(line):
                    continue
                original = raw_lines[lineno - 1] if lineno <= len(raw_lines) else ""
                if ALLOW_RE.search(original):
                    continue
                rel = path.relative_to(repo)
                findings.append(
                    f"{rel}:{lineno}: [determinism] {what} is banned in "
                    f"{'/'.join(rel.parts[:2])}; draw from sim::rng::Stream / "
                    f"Simulator::now() instead"
                )
    return findings


# --------------------------------------------------------------------------
# R2 — epoch contract
# --------------------------------------------------------------------------

# Qualified out-of-class definition: ``ret Class::name(...) [const] ... {``.
def iter_method_definitions(stripped: str, cls: str) -> Iterator[Tuple[str, int, int, bool]]:
    """Yield (method_name, body_start, body_end, is_const) for every
    out-of-class member definition of ``cls`` in ``stripped`` text."""
    for m in re.finditer(rf"\b{cls}\s*::\s*(~?\w+)\s*\(", stripped):
        name = m.group(1)
        # Find the parameter list's closing paren.
        close = match_paren(stripped, m.end() - 1)
        if close is None:
            continue
        # Scan the trailer up to '{' or ';' (declaration / deleted).
        brace = None
        trailer_end = None
        for i in range(close, len(stripped)):
            if stripped[i] == "{":
                brace = i
                trailer_end = i
                break
            if stripped[i] == ";":
                break
        if brace is None:
            continue
        trailer = stripped[close:trailer_end]
        is_const = re.search(r"\bconst\b", trailer) is not None
        end = match_brace_block(stripped, brace)
        # Include the constructor init list (between ) and {) in the body
        # span: state initialisation there is pre-publication and exempt,
        # but we skip constructors entirely anyway.
        yield name, brace, end, is_const


def match_paren(text: str, open_idx: int) -> Optional[int]:
    depth = 0
    for i in range(open_idx, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return i + 1
    return None


def check_epoch_contract(repo: pathlib.Path) -> List[str]:
    findings = []
    for guard in EPOCH_GUARDS:
        cls = guard["cls"]
        state_res = [re.compile(rf"\b{re.escape(f)}\b") for f in guard["state"]]
        for rel in guard["files"]:
            path = repo / rel
            if not path.is_file():
                findings.append(f"{rel}:1: [epoch] guarded file missing — update tools/lint "
                                f"if {cls} moved")
                continue
            raw = path.read_text(encoding="utf-8", errors="replace")
            stripped = strip_comments_and_strings(raw)
            for name, start, end, is_const in iter_method_definitions(stripped, cls):
                if is_const or name == cls or name == f"~{cls}":
                    continue
                body = stripped[start:end]
                touches_state = any(r.search(body) for r in state_res)
                if not touches_state:
                    continue
                if guard["epoch"].search(body):
                    continue
                def_line = stripped.count("\n", 0, start) + 1
                # Exemption comment on the line(s) just above the definition
                # header (search a few lines back in the ORIGINAL text).
                raw_lines = raw.splitlines()
                header_line = stripped.count("\n", 0, raw.find(f"{cls}::{name}"))
                context = "\n".join(raw_lines[max(0, header_line - 2):header_line + 1])
                if EXEMPT_RE.search(context):
                    continue
                findings.append(
                    f"{rel}:{def_line}: [epoch] {cls}::{name} mutates guarded state "
                    f"({', '.join(guard['state'])}) without bumping the monotone epoch; "
                    f"stale-epoch caches (core/edge_quality, core/decision_scratch) would "
                    f"serve corrupt values. Bump the epoch or annotate the definition "
                    f"with // lint-exempt(epoch): <reason>"
                )
    return findings


# --------------------------------------------------------------------------
# R4 — finished guard on scheduled Pending closures
# --------------------------------------------------------------------------

PENDING_FILE_RE = re.compile(r"shared_ptr\s*<\s*Pending\s*>")
SCHEDULE_CALL_RE = re.compile(r"\bschedule_(?:in|at)\s*\(")
FINISHED_EXEMPT_RE = re.compile(r"lint-exempt\(finished\):\s*\S")
CAPTURES_P_RE = re.compile(r"(?<![\w.])p\b")


def guarded_callees(stripped: str) -> set:
    """Method names whose out-of-class definition opens with a finished guard
    (``if (...finished...)`` as the body's first statement)."""
    names = set()
    for m in re.finditer(r"\b\w+\s*::\s*(\w+)\s*\(", stripped):
        close = match_paren(stripped, m.end() - 1)
        if close is None:
            continue
        brace = None
        for i in range(close, len(stripped)):
            if stripped[i] == "{":
                brace = i
                break
            if stripped[i] == ";":
                break
        if brace is None:
            continue
        body_head = stripped[brace + 1:match_brace_block(stripped, brace)].lstrip()
        if re.match(r"if\s*\([^)]*\bfinished\b", body_head):
            names.add(m.group(1))
    return names


def check_finished_guards(repo: pathlib.Path) -> List[str]:
    findings = []
    for path in iter_source_files(repo, ("src",)):
        raw = path.read_text(encoding="utf-8", errors="replace")
        stripped = strip_comments_and_strings(raw)
        if not PENDING_FILE_RE.search(stripped):
            continue
        callees = guarded_callees(stripped)
        raw_lines = raw.splitlines()
        for m in SCHEDULE_CALL_RE.finditer(stripped):
            open_paren = m.end() - 1
            close = match_paren(stripped, open_paren)
            if close is None:
                continue
            call = stripped[open_paren:close]
            lb = call.find("[")
            if lb == -1:
                continue  # no lambda argument
            rb = call.find("]", lb)
            if rb == -1 or not CAPTURES_P_RE.search(call[lb + 1:rb]):
                continue  # lambda does not capture the Pending pointer
            body_open = call.find("{", rb)
            if body_open == -1:
                continue
            body = call[body_open:match_brace_block(call, body_open)]
            if re.search(r"\bfinished\b", body):
                continue
            if any(cm.group(1) in callees
                   for cm in re.finditer(r"\b(\w+)\s*\(", body)):
                continue
            lineno = stripped.count("\n", 0, m.start()) + 1
            context = "\n".join(raw_lines[max(0, lineno - 2):lineno])
            if FINISHED_EXEMPT_RE.search(context):
                continue
            rel = path.relative_to(repo)
            findings.append(
                f"{rel}:{lineno}: [finished-guard] scheduled lambda captures the "
                f"shared Pending state but neither checks `finished` nor calls a "
                f"method that opens with a finished guard; a stale firing would "
                f"act on a resolved connection. Guard the body or annotate the "
                f"call with // lint-exempt(finished): <reason>"
            )
    return findings


# --------------------------------------------------------------------------
# R5 — settlement state transitions are first-wins guarded
# --------------------------------------------------------------------------

SETTLEMENT_FILE = "src/payment/settlement.cpp"
SETTLEMENT_CLASS = "SettlementEngine"
# An assignment to a settlement `state` field (s.state = ..., state = ...),
# excluding comparisons. Matched against stripped text inside member bodies.
STATE_ASSIGN_RE = re.compile(r"\bstate\s*=(?!=)")
SETTLEMENT_EXEMPT_RE = re.compile(r"lint-exempt\(settlement-state\):\s*\S")


def check_settlement_transitions(repo: pathlib.Path) -> List[str]:
    """Every SettlementState transition site inside a SettlementEngine member
    body must be dominated by a first-wins ``is_terminal(...)`` check earlier
    in the same body — the guard that makes close/abandon/expiry idempotent
    and keeps finalize() the single money-moving site."""
    findings = []
    path = repo / SETTLEMENT_FILE
    if not path.is_file():
        return [f"{SETTLEMENT_FILE}:1: [settlement-state] guarded file missing — "
                f"update tools/lint if {SETTLEMENT_CLASS} moved"]
    raw = path.read_text(encoding="utf-8", errors="replace")
    stripped = strip_comments_and_strings(raw)
    raw_lines = raw.splitlines()
    for name, start, end, _is_const in iter_method_definitions(stripped, SETTLEMENT_CLASS):
        body = stripped[start:end]
        for m in STATE_ASSIGN_RE.finditer(body):
            if "is_terminal" in body[:m.start()]:
                continue
            lineno = stripped.count("\n", 0, start + m.start()) + 1
            context = "\n".join(raw_lines[max(0, lineno - 2):lineno])
            if SETTLEMENT_EXEMPT_RE.search(context):
                continue
            findings.append(
                f"{SETTLEMENT_FILE}:{lineno}: [settlement-state] "
                f"{SETTLEMENT_CLASS}::{name} assigns a settlement state without a "
                f"preceding is_terminal() first-wins check in the same body; an "
                f"unguarded transition can re-terminalise a settlement and move its "
                f"escrow money twice. Check is_terminal first or annotate the site "
                f"with // lint-exempt(settlement-state): <reason>"
            )
    return findings


# --------------------------------------------------------------------------
# R6 — cross-shard scheduling must go through the window mailbox
# --------------------------------------------------------------------------

SHARD_SCHEDULE_DIRS = ("src", "bench")
SHARD_SCHEDULE_RE = re.compile(r"\bshard\s*\([^()]*\)\s*\.\s*schedule_(?:in|at)\s*\(")
CROSS_SHARD_EXEMPT_RE = re.compile(r"lint-exempt\(cross-shard\):\s*\S")


def check_shard_mailbox_discipline(repo: pathlib.Path) -> List[str]:
    """Flag every ``shard(...).schedule_in/at`` call in src/ and bench/: the
    compiler cannot tell a shard-local schedule from a cross-shard one, and
    only the former is legal inside a window (the latter is a data race at
    K > 1 that K = 1 tests cannot catch). Route cross-shard effects through
    ``ShardedSimulator::post``; affirm genuinely shard-local sites with
    ``// lint-exempt(cross-shard): <reason>``."""
    findings = []
    for path in iter_source_files(repo, SHARD_SCHEDULE_DIRS):
        raw = path.read_text(encoding="utf-8", errors="replace")
        stripped = strip_comments_and_strings(raw)
        raw_lines = raw.splitlines()
        for m in SHARD_SCHEDULE_RE.finditer(stripped):
            lineno = stripped.count("\n", 0, m.start()) + 1
            context = "\n".join(raw_lines[max(0, lineno - 2):lineno])
            if CROSS_SHARD_EXEMPT_RE.search(context):
                continue
            rel = path.relative_to(repo)
            findings.append(
                f"{rel}:{lineno}: [cross-shard] direct shard(...).schedule_* "
                f"bypasses the window mailbox; a cross-shard target races the "
                f"peer's event queue at K > 1 (and no K = 1 test can see it). "
                f"Use ShardedSimulator::post(src, dst, at, fn), or annotate a "
                f"provably shard-local site with "
                f"// lint-exempt(cross-shard): <reason>"
            )
    return findings


# --------------------------------------------------------------------------
# R7 — results artifacts go through the atomic write helper
# --------------------------------------------------------------------------

ATOMIC_WRITE_DIRS = ("src", "bench", "examples")
OFSTREAM_RE = re.compile(r"\bofstream\b")
# Artifact-ish context near the stream: a BENCH json name, a checkpoint
# path/variable, or a .ckpt file. Matched on comment-stripped text with
# string literals PRESERVED (the artifact name usually lives in a literal).
ARTIFACT_CONTEXT_RE = re.compile(r"BENCH_|\.ckpt\b|[Cc]heckpoint|ckpt_path")
ATOMIC_EXEMPT_RE = re.compile(r"lint-exempt\(atomic-write\):\s*\S")
ATOMIC_CONTEXT_LINES = 12


def check_atomic_artifact_writes(repo: pathlib.Path) -> List[str]:
    """Flag ``ofstream`` uses whose surrounding ±12 lines mention a results
    artifact (BENCH_*.json, checkpoints): those bytes must go through
    ``harness::atomic_write_file`` so a crash can never leave a torn file.
    The helper's own temp-file write leg carries the exemption marker."""
    findings = []
    for path in iter_source_files(repo, ATOMIC_WRITE_DIRS):
        raw = path.read_text(encoding="utf-8", errors="replace")
        code = strip_comments_and_strings(raw, keep_strings=True)
        code_lines = code.splitlines()
        raw_lines = raw.splitlines()
        for lineno, line in enumerate(code_lines, start=1):
            if not OFSTREAM_RE.search(line):
                continue
            lo = max(0, lineno - 1 - ATOMIC_CONTEXT_LINES)
            hi = min(len(code_lines), lineno + ATOMIC_CONTEXT_LINES)
            window = "\n".join(code_lines[lo:hi])
            if not ARTIFACT_CONTEXT_RE.search(window):
                continue
            context = "\n".join(raw_lines[max(0, lineno - 3):lineno])
            if ATOMIC_EXEMPT_RE.search(context):
                continue
            rel = path.relative_to(repo)
            findings.append(
                f"{rel}:{lineno}: [atomic-write] direct ofstream near a results "
                f"artifact (BENCH_*.json / checkpoint); a crash mid-write leaves a "
                f"torn file that poisons resume or downstream plots. Route the bytes "
                f"through harness::atomic_write_file (bench::write_bench_json / "
                f"Checkpoint::save), or annotate the write leg with "
                f"// lint-exempt(atomic-write): <reason>"
            )
    return findings


# --------------------------------------------------------------------------
# R8 — bank-partition mutations go through the plane's routed entry points
# --------------------------------------------------------------------------

BANK_PARTITION_DIRS = ("src", "bench", "examples")
# partition(b).engine.method( / partition(b).bank.method( — deliberately does
# NOT match the read-only partition_view(b) accessor.
BANK_PARTITION_RE = re.compile(
    r"\bpartition\s*\([^()]*\)\s*\.\s*(?:engine|bank)\s*\.\s*\w+\s*\(")
BANK_PARTITION_EXEMPT_RE = re.compile(r"lint-exempt\(bank-partition\):\s*\S")


def check_bank_partition_ownership(repo: pathlib.Path) -> List[str]:
    """Flag every direct ``partition(...).engine/bank`` access in src/,
    bench/ and examples/: mutations through the escape hatch bypass the
    plane's settlement-key routing, its aggregate-MAC verification and the
    owning engine's replay map, so only the merge reconciliation could catch
    the damage. Route mutations through the plane's entry points; reads
    belong on ``partition_view(...)``; affirm deliberate sites (negative
    tests, reconciliation tooling) with
    ``// lint-exempt(bank-partition): <reason>``."""
    findings = []
    for path in iter_source_files(repo, BANK_PARTITION_DIRS):
        raw = path.read_text(encoding="utf-8", errors="replace")
        stripped = strip_comments_and_strings(raw)
        raw_lines = raw.splitlines()
        for m in BANK_PARTITION_RE.finditer(stripped):
            lineno = stripped.count("\n", 0, m.start()) + 1
            context = "\n".join(raw_lines[max(0, lineno - 2):lineno])
            if BANK_PARTITION_EXEMPT_RE.search(context):
                continue
            rel = path.relative_to(repo)
            findings.append(
                f"{rel}:{lineno}: [bank-partition] direct partition(...).engine/"
                f"bank access bypasses the settlement plane's routed entry points "
                f"(key routing, aggregate-MAC verification, the owning engine's "
                f"replay map); a receipt redeemed this way is invisible until the "
                f"merge reconciliation. Use open_settlement / "
                f"submit_aggregated_claim / close_settlement / expire_due (reads: "
                f"partition_view), or annotate the site with "
                f"// lint-exempt(bank-partition): <reason>"
            )
    return findings


# --------------------------------------------------------------------------
# R9 — raw BSD socket calls stay inside the transport plane
# --------------------------------------------------------------------------

RAW_SOCKET_DIRS = ("src", "bench", "examples", "tests")
RAW_SOCKET_SKIP_PREFIX = "src/transport/"
# Global-namespace-qualified calls only: `::send(` matches, `std::bind(` and
# `transport::connect(` do not (the lookbehind rejects a preceding word char
# or a further `:`), so qualified C++ names never trip the rule.
RAW_SOCKET_RE = re.compile(
    r"(?<![\w:])::\s*(socket|send|recv|sendto|recvfrom|connect|accept|bind|listen)\s*\(")
# [ \t] (not \s) so a bare marker cannot borrow the next line as its reason.
TRANSPORT_EXEMPT_RE = re.compile(r"lint-exempt\(transport\):[ \t]*\S")


def check_raw_socket_confinement(repo: pathlib.Path) -> List[str]:
    """Flag every global-namespace BSD socket call outside ``src/transport/``:
    bytes moved past the wire codec skip its CRC/length/version checks, its
    malformed-frame counters and the Bye/heartbeat liveness contract, so a
    second wire silently undermines everything the transport tests pin.
    Deliberate hostile-peer fixtures affirm themselves with
    ``// lint-exempt(transport): <reason>`` on or above the call line."""
    findings = []
    for path in iter_source_files(repo, RAW_SOCKET_DIRS):
        rel = path.relative_to(repo)
        if rel.as_posix().startswith(RAW_SOCKET_SKIP_PREFIX):
            continue  # the transport plane is the socket owner
        raw = path.read_text(encoding="utf-8", errors="replace")
        stripped = strip_comments_and_strings(raw)
        raw_lines = raw.splitlines()
        for m in RAW_SOCKET_RE.finditer(stripped):
            lineno = stripped.count("\n", 0, m.start()) + 1
            context = "\n".join(raw_lines[max(0, lineno - 2):lineno])
            if TRANSPORT_EXEMPT_RE.search(context):
                continue
            findings.append(
                f"{rel}:{lineno}: [raw-socket] direct ::{m.group(1)}() outside "
                f"src/transport/; bytes moved past the wire codec bypass its "
                f"CRC/length/version checks, the malformed-frame counters and "
                f"the Bye/heartbeat liveness contract. Route traffic through "
                f"transport::TcpTransport, or annotate a deliberate "
                f"hostile-peer fixture with // lint-exempt(transport): <reason>"
            )
    return findings


# --------------------------------------------------------------------------
# R3 — no tracked build artifacts
# --------------------------------------------------------------------------

TRACKED_BANNED = re.compile(
    r"^(build[^/]*/|.*/(CMakeCache\.txt|CTestTestfile\.cmake|compile_commands\.json)$"
    r"|Testing/|.*\.(o|obj|gcda|gcno|profraw)$)"
)


def check_tracked_artifacts(repo: pathlib.Path) -> List[str]:
    try:
        out = subprocess.run(
            ["git", "-C", str(repo), "ls-files"],
            capture_output=True, text=True, check=True, timeout=60,
        ).stdout
    except (OSError, subprocess.SubprocessError):
        # Not a git checkout (e.g. a release tarball): nothing to verify.
        return []
    findings = []
    for f in out.splitlines():
        if TRACKED_BANNED.match(f):
            findings.append(
                f"{f}:1: [tracked-artifact] build artifact is tracked by git; "
                f"`git rm --cached` it and rely on .gitignore's build*/ patterns"
            )
    return findings


# --------------------------------------------------------------------------


# Rule registry: the stable R-ids the docstring documents, in run order.
# tests/analysis/test_invariant_linter.py drives each rule against synthetic
# trees through --rules, so ids are part of the tool's interface.
RULES = {
    "R1": ("determinism", check_determinism),
    "R2": ("epoch contract", check_epoch_contract),
    "R3": ("tracked artifacts", check_tracked_artifacts),
    "R4": ("finished guards", check_finished_guards),
    "R5": ("settlement transitions", check_settlement_transitions),
    "R6": ("shard mailbox discipline", check_shard_mailbox_discipline),
    "R7": ("atomic artifact writes", check_atomic_artifact_writes),
    "R8": ("bank-partition ownership", check_bank_partition_ownership),
    "R9": ("raw-socket confinement", check_raw_socket_confinement),
}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repo", type=pathlib.Path,
                    default=pathlib.Path(__file__).resolve().parents[2],
                    help="repository root (default: two levels above this script)")
    ap.add_argument("--rules", default="all",
                    help="comma-separated rule ids to run (e.g. R1,R6); "
                         "default: all of " + ",".join(RULES))
    args = ap.parse_args()
    repo = args.repo.resolve()

    if args.rules == "all":
        selected = list(RULES)
    else:
        selected = [r.strip().upper() for r in args.rules.split(",") if r.strip()]
        unknown = [r for r in selected if r not in RULES]
        if unknown:
            print(f"check_invariants: unknown rule id(s) {','.join(unknown)}; "
                  f"known: {','.join(RULES)}", file=sys.stderr)
            return 2

    findings = []
    for rid in RULES:
        if rid in selected:
            findings += RULES[rid][1](repo)

    for f in findings:
        print(f)
    if findings:
        print(f"\ncheck_invariants: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("check_invariants: clean ("
          + ", ".join(RULES[r][0] for r in RULES if r in selected) + ")")
    return 0


if __name__ == "__main__":
    sys.exit(main())
