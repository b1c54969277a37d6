#!/usr/bin/env python3
"""Project invariant checker: one lexer, one rule registry, one waiver syntax.

Every figure in EXPERIMENTS.md assumes that replaying a seed replays the run
bit for bit, and several runtime contracts (published epochs, first-wins
settlement transitions, shard ownership) are invisible to unit tests until a
rare interleaving hits them. These rules guard what generic tools cannot
express. Each is addressable by id through ``--rules``:

R2 epoch contract
    ``net::ShardedProbing`` publishes monotone per-node epochs: equal epochs
    promise identical availability answers, and the sharded scenario digest
    folds them. Any non-const out-of-class member definition of a guarded
    class whose body touches guarded state must also bump the epoch, or a
    reader that compares epochs trusts values that moved while every unit
    test of the class still passes. A guard row whose files declare its class must name
    each guarded member somewhere in those files; a name that occurs in
    none of them guards nothing, and the row is reported.

R3 clean tree
    No ``build*`` trees, ``compile_commands.json`` or CTest bookkeeping may
    be tracked by git; stale tracked artifacts shadow fresh builds.

R4 finished guard
    The async setup / data-phase runners keep per-connection state alive via
    ``shared_ptr<Pending>`` captured by scheduled closures. In any file
    mentioning ``shared_ptr<Pending>``, every ``schedule_in``/``schedule_at``
    lambda capturing ``p`` must mention ``finished`` in its body or call a
    method whose out-of-class definition opens with a finished guard;
    otherwise a stale timer double-completes a resolved connection.

R5 settlement state transitions
    Every assignment to a settlement ``state`` inside a ``SettlementEngine``
    member body must be dominated by an ``is_terminal(...)`` check earlier in
    the same body, so a replayed close/abandon or a racing deadline sweep can
    never move escrow money twice.

R7 atomic artifacts
    In ``src/``, ``bench/`` and ``examples/``, an ``ofstream`` within 12
    lines of a results artifact (``BENCH_``, ``.ckpt``, checkpoint paths)
    must go through ``harness::atomic_write_file``: a crash mid-write
    otherwise leaves a torn file that poisons resume or downstream plots.

R8 bank-partition ownership
    In ``src/``, ``bench/`` and ``examples/``, ``partition(...).engine.*()``
    and ``partition(...).bank.*()`` bypass the settlement plane's key
    routing, aggregate-MAC verification and the owning engine's nonce ledger.
    Mutations go through the plane's routed entry points; reads belong on
    ``partition_view(...)``, which the rule deliberately does not match.

R9 raw-socket confinement
    ``src/transport`` owns every socket: its codec is the one place frames
    are checksummed and length-checked, and its reject path the one place
    malformed bytes are counted. A global-namespace BSD socket call
    (``::socket``, ``::send``, ``::recv``, ...) anywhere else in ``src/``,
    ``bench/``, ``examples/`` or ``tests/`` is a second, unframed wire.

D1 unordered-iteration order
    Iterating a ``std::unordered_map/set`` is implementation-defined order:
    stable for one stdlib build, which is exactly why no test catches it.
    A loop over one is flagged when its body is order-sensitive (appends
    without a later sort, streams, early exits, side-effect-only calls,
    last-writer-wins assignments). Commutative folds, ``x = max(x, ...)``,
    re-keyed inserts and the collect-then-sort idiom pass.

D2 ambient determinism sources
    ``std::random_device``, ``rand()``/``srand()``/``std::rand``, clock
    types (``system_clock``, ``steady_clock``, ``high_resolution_clock``,
    so an aliased clock is caught too) and raw clock reads (``time()``,
    ``clock()``, ``gettimeofday``, ``clock_gettime``), thread identity, and
    pointer-derived identity (raw-pointer-keyed containers, ``std::hash<T*>``,
    pointer-to-integer casts). Clocks are allowed only under
    ``src/parallel/`` and ``bench/``, where they time the host, never the
    model. Randomness comes from ``sim::rng::Stream``, time from
    ``Simulator::now()``.

D3 RNG discipline
    Every ``std::*_distribution`` and raw engine (``mt19937`` and friends)
    lives in ``src/sim/rng.*`` or in a function taking a
    ``sim::rng::Stream&``, so every draw traces to a seeded child stream.

D4 shard-ownership discipline
    Within a window a shard may only touch its own state. Writes to
    ``net::NodeStateSoA`` columns are legal only in the owning module
    (``src/net/overlay.*``, ``src/net/soa.*``), in a function that derives
    the written index's shard via ``shard_of(...)`` first, or inside a
    lambda registered through ``add_barrier_hook``. Every
    ``shard(...).schedule_in/at`` call needs a waiver affirming the target
    is the caller's own shard: the compiler cannot tell a shard-local
    schedule from a cross-shard one, and the latter is bitwise-correct at
    K = 1 and a data race at K > 1. Cross-shard work goes through
    ``ShardedSimulator::post``.

D1-D4 scan ``src/``, ``bench/`` and ``examples/``; tests may use ad-hoc RNGs
and clocks to exercise code.

Waivers
    A deliberate exception is an inline ``lint-exempt(<tag>): <reason>``
    comment on the flagged line or up to ``Rule.reach`` lines above it (the
    tag is listed in ``RULES``). The reason must sit on the same line. A
    waiver with an unknown tag or no reason, and one in a file the tagged
    rule scans that suppresses no finding of that rule, is itself a finding
    (rule ``WAIVER``), so waivers cannot rot. Only rules selected by
    ``--rules`` judge their waivers.

Backends
    ``--backend builtin`` is dependency-free: a comment/string stripper, a
    brace tree with function/lambda classification and declared-type
    tracking. ``--backend libclang`` (python3-clang, driven off a build
    tree's ``compile_commands.json``) runs the same passes and adds
    AST-resolved D1-D4 findings the lexer cannot see (typedef'd engines,
    canonical-type pointer keys, ranges reached through ``auto&``).
    ``--backend auto`` (default) prefers libclang and falls back to builtin.

``--fixtures DIR`` checks a fixture directory instead of the repo; a fixture
whose first lines carry ``analyzer-fixture: path=<repo path>`` is judged as
if it lived at that path.

Exit status: 0 clean, 1 findings, 2 configuration error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import pathlib
import re
import subprocess
import sys
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Set, Tuple

# Repo-relative scope of the D-rules, R7 and R8.
SCOPE = ("src/", "bench/", "examples/")

SOURCE_EXTS = ("*.cpp", "*.cc", "*.hpp", "*.h")

# D2: clocks are legitimate in the thread-pool plumbing and in bench timing
# loops (they time the host, not the simulation).
CLOCK_ALLOWED_PREFIXES = ("src/parallel/", "bench/")

# D3: the one module allowed to own raw engines/distributions.
RNG_HOME_PREFIX = "src/sim/rng."

# D4: modules that own NodeStateSoA mutation outright.
SOA_OWNER_FILES = ("src/net/overlay.cpp", "src/net/overlay.hpp", "src/net/soa.cpp",
                   "src/net/soa.hpp")

UNORDERED_RE = r"unordered_(?:map|set|multimap|multiset)"

RAW_ENGINE_NAMES = (
    "mt19937", "mt19937_64", "minstd_rand", "minstd_rand0",
    "default_random_engine", "ranlux24", "ranlux48", "ranlux24_base",
    "ranlux48_base", "knuth_b", "mersenne_twister_engine",
    "linear_congruential_engine", "subtract_with_carry_engine",
    "discard_block_engine", "independent_bits_engine", "shuffle_order_engine",
)

FIXTURE_PATH_RE = re.compile(r"analyzer-fixture:\s*path=(\S+)")
# [ \t] (not \s) so a bare marker cannot borrow the next line as its reason.
WAIVER_RE = re.compile(r"lint-exempt\(([^)]*)\):[ \t]*(\S?)")


@dataclasses.dataclass
class Finding:
    rule: str
    file: str           # real path, repo-relative (or fixture-relative)
    line: int
    message: str

    def key(self) -> Tuple[str, str, int]:
        return (self.rule, self.file, self.line)

    def render(self) -> str:
        return f"{self.file}:{self.line}: [{self.rule}] {self.message}"


# --------------------------------------------------------------------------
# Lexical groundwork (shared by every rule and both backends)
# --------------------------------------------------------------------------


def strip_comments_and_strings(text: str, keep_strings: bool = False) -> str:
    """Blank comments and (unless ``keep_strings``) string/char literals,
    preserving line structure so offsets map to the original file. R7 keeps
    literals: artifact names live inside them."""
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


def match_fwd(text: str, open_idx: int, open_ch: str, close_ch: str) -> int:
    """Index one past the matching close for the opener at open_idx."""
    depth = 0
    for i in range(open_idx, len(text)):
        if text[i] == open_ch:
            depth += 1
        elif text[i] == close_ch:
            depth -= 1
            if depth == 0:
                return i + 1
    return len(text)


def match_angle(text: str, open_idx: int) -> int:
    """One past the matching ``>`` for ``<`` at open_idx. Tolerates ``>>``
    closing two levels; only sound after a known template name."""
    depth = 0
    i = open_idx
    while i < len(text):
        c = text[i]
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
            if depth == 0:
                return i + 1
        elif c in ";{}":
            break  # not a template argument list after all
        i += 1
    return len(text)


def first_template_arg(text: str, lt_idx: int) -> str:
    """Text of the first template argument of the list opening at lt_idx."""
    end = match_angle(text, lt_idx)
    depth = 0
    for i in range(lt_idx, end):
        c = text[i]
        if c in "<([":
            depth += 1
        elif c in ">)]":
            depth -= 1
        elif c == "," and depth == 1:
            return text[lt_idx + 1:i].strip()
    return text[lt_idx + 1:end - 1].strip()


def line_of(text: str, idx: int) -> int:
    return text.count("\n", 0, idx) + 1


# --------------------------------------------------------------------------
# Structural scan: a brace tree with function / lambda classification
# --------------------------------------------------------------------------

CONTROL_KEYWORDS = {"if", "for", "while", "switch", "catch"}
TYPE_KEYWORDS = {"struct", "class", "union", "enum"}
QUALIFIER_WORDS = {"const", "noexcept", "override", "final", "mutable", "volatile",
                   "&", "&&", "try"}


@dataclasses.dataclass
class Block:
    start: int                 # index of '{'
    end: int                   # one past matching '}'
    kind: str                  # 'function' | 'lambda' | 'type' | 'namespace' | 'control' | 'other'
    name: str = ""             # function name when kind == 'function'
    params: str = ""           # parameter list text for function/lambda
    parent_call: str = ""      # for lambdas: callee the lambda is an argument of
    header_start: int = 0


def _skip_ws_back(s: str, i: int) -> int:
    while i >= 0 and s[i] in " \t\r\n":
        i -= 1
    return i


def _word_back(s: str, i: int) -> Tuple[str, int]:
    """Word ending at index i (inclusive); returns (word, start_index)."""
    j = i
    while j >= 0 and (s[j].isalnum() or s[j] in "_~"):
        j -= 1
    return s[j + 1:i + 1], j + 1


def _match_paren_back(s: str, close_idx: int) -> int:
    """Index of the '(' matching the ')' at close_idx, or -1."""
    depth = 0
    for i in range(close_idx, -1, -1):
        if s[i] == ")":
            depth += 1
        elif s[i] == "(":
            depth -= 1
            if depth == 0:
                return i
    return -1


def _enclosing_call_name(s: str, idx: int) -> str:
    """Name of the innermost pending call enclosing position idx (the
    identifier before the nearest unclosed '(' scanning backwards)."""
    depth = 0
    i = idx - 1
    while i >= 0:
        c = s[i]
        if c == ")":
            depth += 1
        elif c == "(":
            if depth == 0:
                j = _skip_ws_back(s, i - 1)
                word, _ = _word_back(s, j)
                return word
            depth -= 1
        elif c in ";{}" and depth == 0:
            break
        i -= 1
    return ""


def classify_brace(s: str, i: int) -> Block:
    """Classify the '{' at index i by looking backwards at its header."""
    end = match_fwd(s, i, "{", "}")
    j = _skip_ws_back(s, i - 1)
    if j < 0:
        return Block(i, end, "other")

    # Walk back over trailing qualifiers / trailing-return-type to find the
    # parameter list of a function header, tolerating a ctor init list.
    k = j
    hops = 0
    while k >= 0 and hops < 40:
        hops += 1
        c = s[k]
        if c == ")":
            op = _match_paren_back(s, k)
            if op <= 0:
                break
            # Constructor init list: "...) : member_(x), other_(y) {" — the
            # ')' we found belongs to an initializer. Scan further back for
            # a ': ' preceded by ')' at depth 0 and restart from there.
            pre = _skip_ws_back(s, op - 1)
            word, wstart = _word_back(s, pre)
            if word in CONTROL_KEYWORDS:
                return Block(i, end, "control", header_start=wstart)
            if word == "":
                if pre >= 0 and s[pre] == "]":
                    # "](...)" — lambda with parameter list.
                    lam_params = s[op + 1:k]
                    return Block(i, end, "lambda", params=lam_params,
                                 parent_call=_enclosing_call_name(s, _find_lambda_open(s, pre)),
                                 header_start=pre)
                if pre >= 0 and s[pre] in ",(":
                    # init list element — keep scanning back.
                    k = _skip_ws_back(s, op - 1)
                    continue
                break
            # Possible init-list member "member_(x)": check for ':' further
            # back at this level that itself follows a ')'.
            colon = _find_init_colon(s, wstart - 1)
            if colon is not None:
                k = colon
                continue
            if word in TYPE_KEYWORDS or word == "namespace":
                return Block(i, end, "type" if word != "namespace" else "namespace",
                             header_start=wstart)
            return Block(i, end, "function", name=word, params=s[op + 1:k],
                         header_start=wstart)
        if c == "]":
            # "] {" or "] mutable {" — captureless-param lambda.
            return Block(i, end, "lambda",
                         parent_call=_enclosing_call_name(s, _find_lambda_open(s, k)),
                         header_start=k)
        word, wstart = _word_back(s, k)
        if word in QUALIFIER_WORDS or word == "":
            if word == "":
                if c in "&*>":
                    k -= 1
                    continue
                if c == ":":  # could be init-list ':' or base-class ':'
                    k = _skip_ws_back(s, k - 1)
                    continue
                break
            k = _skip_ws_back(s, wstart - 1)
            continue
        if word in CONTROL_KEYWORDS or word in {"else", "do", "try"}:
            return Block(i, end, "control", header_start=wstart)
        if word == "namespace":
            return Block(i, end, "namespace", header_start=wstart)
        if word in TYPE_KEYWORDS:
            return Block(i, end, "type", header_start=wstart)
        # identifier before '{' — class name, enum name, or init. Look one
        # more word back for struct/class/namespace.
        prev = _skip_ws_back(s, wstart - 1)
        pword, pstart = _word_back(s, prev)
        if pword == "namespace":
            return Block(i, end, "namespace", header_start=pstart)
        if pword in TYPE_KEYWORDS:
            return Block(i, end, "type", header_start=pstart)
        return Block(i, end, "other", header_start=wstart)
    return Block(i, end, "other", header_start=max(j, 0))


def _find_lambda_open(s: str, close_bracket: int) -> int:
    """Index of the '[' matching the ']' at close_bracket."""
    depth = 0
    for i in range(close_bracket, -1, -1):
        if s[i] == "]":
            depth += 1
        elif s[i] == "[":
            depth -= 1
            if depth == 0:
                return i
    return close_bracket


def _find_init_colon(s: str, idx: int) -> Optional[int]:
    """Scan back from idx for the ':' starting a ctor init list; return the
    index of the ')' that precedes it (to resume header scanning)."""
    depth = 0
    i = idx
    while i >= 0:
        c = s[i]
        if c in ")}]":
            depth += 1
        elif c in "({[":
            depth -= 1
            if depth < 0:
                return None
        elif depth == 0:
            if c == ";":
                return None
            if c == ":":
                if i > 0 and s[i - 1] == ":":  # '::' qualifier
                    i -= 2
                    continue
                j = _skip_ws_back(s, i - 1)
                if j >= 0 and s[j] == ")":
                    return j
                return None
        i -= 1
    return None


def build_blocks(s: str) -> List[Block]:
    blocks = []
    i = 0
    while True:
        i = s.find("{", i)
        if i == -1:
            break
        blocks.append(classify_brace(s, i))
        i += 1
    return blocks


def enclosing_function(blocks: List[Block], pos: int) -> Optional[Block]:
    """Innermost function or lambda block containing pos."""
    best = None
    for b in blocks:
        if b.kind in ("function", "lambda") and b.start < pos < b.end:
            if best is None or b.start > best.start:
                best = b
    return best


def enclosing_chain(blocks: List[Block], pos: int) -> List[Block]:
    """All function/lambda blocks containing pos, outermost first."""
    chain = [b for b in blocks
             if b.kind in ("function", "lambda") and b.start < pos < b.end]
    chain.sort(key=lambda b: b.start)
    return chain


# --------------------------------------------------------------------------
# Source model
# --------------------------------------------------------------------------


@dataclasses.dataclass
class Waiver:
    line: int
    tag: str
    reasoned: bool
    used: bool = False


class SourceFile:
    """One C++ file. ``real`` is the path findings report; ``scope`` is the
    repo path scope rules judge (a fixture's virtual path)."""

    def __init__(self, real: str, scope: str, raw: str):
        self.real, self.scope, self.raw = real, scope, raw

    @functools.cached_property
    def stripped(self) -> str:
        return strip_comments_and_strings(self.raw)

    @functools.cached_property
    def code(self) -> str:
        """Comments stripped, string literals kept."""
        return strip_comments_and_strings(self.raw, keep_strings=True)

    @functools.cached_property
    def blocks(self) -> List[Block]:
        return build_blocks(self.stripped)

    @functools.cached_property
    def waivers(self) -> List[Waiver]:
        return [Waiver(lineno, m.group(1), bool(m.group(2)))
                for lineno, text in enumerate(self.raw.splitlines(), 1)
                for m in WAIVER_RE.finditer(text)]


def load_source(path: pathlib.Path, rel_to: pathlib.Path, virtual: bool) -> SourceFile:
    raw = path.read_text(encoding="utf-8", errors="replace")
    real = path.relative_to(rel_to).as_posix()
    m = FIXTURE_PATH_RE.search("\n".join(raw.splitlines()[:5])) if virtual else None
    return SourceFile(real, m.group(1) if m else real, raw)


# --------------------------------------------------------------------------
# Project symbol table (declared-type tracking, shared by both backends)
# --------------------------------------------------------------------------


@dataclasses.dataclass
class Symbols:
    unordered_vars: Set[str] = dataclasses.field(default_factory=set)
    unordered_getters: Set[str] = dataclasses.field(default_factory=set)
    map_like_vars: Set[str] = dataclasses.field(default_factory=set)
    soa_vars: Set[str] = dataclasses.field(default_factory=set)
    soa_columns: Set[str] = dataclasses.field(default_factory=set)


UNORDERED_DECL_RE = re.compile(rf"(?:std\s*::\s*)?\b{UNORDERED_RE}\s*<")
MAP_DECL_RE = re.compile(r"(?:std\s*::\s*)?\b(?:map|set|multimap|multiset|flat_hash_map|FlatHash\w*)\s*<")
SOA_DECL_RE = re.compile(r"(?:net\s*::\s*)?\bNodeStateSoA\s*([&*]?)\s*(\w+)\s*[;={(,)]")
SOA_STRUCT_RE = re.compile(r"\bstruct\s+NodeStateSoA\b")
COLUMN_RE = re.compile(r"std\s*::\s*vector\s*<[^;]*?>\s+(\w+)\s*;")


def _decl_name_after(text: str, end_of_type: int) -> Optional[str]:
    """Variable name following a container type spelling ending at
    end_of_type. Handles ``Type name;``, ``Type& name``, ``Type name = ...``,
    ``Type name{...}`` and skips function return types (``Type name(...) ...``
    is accepted only when it looks like a declaration, which we approximate
    by rejecting names followed by a parameter-ish list containing types)."""
    m = re.match(r"\s*(?:const\s+)?([&*]\s*)?(\w+)\s*([;={[(,)]|$)", text[end_of_type:end_of_type + 160])
    if not m:
        return None
    return m.group(2)


def collect_symbols(stripped_texts: Iterable[str]) -> Symbols:
    sym = Symbols()
    for s in stripped_texts:
        for m in UNORDERED_DECL_RE.finditer(s):
            close = match_angle(s, m.end() - 1)
            # getter returning a (const) unordered ref: "...>& name() const"
            g = re.match(r"\s*&\s*(\w+)\s*\(\s*\)\s*const", s[close:close + 120])
            if g:
                sym.unordered_getters.add(g.group(1))
                continue
            name = _decl_name_after(s, close)
            if name and not name[0].isdigit():
                sym.unordered_vars.add(name)
                sym.map_like_vars.add(name)
        for m in MAP_DECL_RE.finditer(s):
            close = match_angle(s, m.end() - 1)
            name = _decl_name_after(s, close)
            if name and not name[0].isdigit():
                sym.map_like_vars.add(name)
        for m in SOA_DECL_RE.finditer(s):
            sym.soa_vars.add(m.group(2))
        for m in SOA_STRUCT_RE.finditer(s):
            brace = s.find("{", m.end())
            if brace == -1:
                continue
            body = s[brace:match_fwd(s, brace, "{", "}")]
            for c in COLUMN_RE.finditer(body):
                sym.soa_columns.add(c.group(1))
    # Keywords / common false positives never count as container variables.
    sym.unordered_vars.discard("if")
    sym.map_like_vars.discard("if")
    return sym


@dataclasses.dataclass
class Context:
    repo: pathlib.Path
    sym: Symbols


# --------------------------------------------------------------------------
# D1 order-sensitivity classifier (shared by both backends)
# --------------------------------------------------------------------------

SORT_RE_TMPL = r"\b(?:std\s*::\s*)?(?:stable_)?sort\s*\([^;]*\b{var}\b"


def split_statements(body: str) -> Iterator[str]:
    """Yield simple statements of a loop body, descending into nested control
    blocks. Control headers (``if (...)`` etc.) are dropped — their
    conditions are reads; ``break``/``return`` are caught separately."""
    i, n = 0, len(body)
    while i < n:
        c = body[i]
        if c in " \t\r\n;":
            i += 1
            continue
        if c == "{":
            end = match_fwd(body, i, "{", "}")
            yield from split_statements(body[i + 1:end - 1])
            i = end
            continue
        m = re.match(r"(if|for|while|switch|else\s+if|else|do)\b", body[i:])
        if m:
            i += m.end()
            # skip the optional (...) header
            j = i
            while j < n and body[j] in " \t\r\n":
                j += 1
            if j < n and body[j] == "(":
                i = match_fwd(body, j, "(", ")")
            continue
        # plain statement: up to ';' at depth 0 (or an opening '{' of a
        # nested lambda body, which we include wholesale)
        depth = 0
        j = i
        while j < n:
            ch = body[j]
            if ch in "([{":
                depth += 1
            elif ch in ")]}":
                depth -= 1
            elif ch == ";" and depth == 0:
                break
            j += 1
        yield body[i:j].strip()
        i = j + 1


# The separator between type and name must be real whitespace or a ref/ptr
# sigil — otherwise `last_seen_ = id` backtracks into type `last_seen`,
# name `_`, and a member assignment masquerades as a local declaration.
DECL_STMT_RE = re.compile(
    r"^(?:const\s+)?(?:auto|[A-Za-z_][\w:]*(?:\s*<[^=;]*>)?)"
    r"(?:\s+[&*]?|\s*[&*])\s*"
    r"(?:\[\s*[\w,\s]+\s*\]|\w+)\s*(?:[;={(]|$)")
LOCAL_NAME_RE = re.compile(
    r"^(?:const\s+)?(?:auto|[A-Za-z_][\w:]*(?:\s*<[^=;]*>)?)"
    r"(?:\s+[&*]?|\s*[&*])\s*(\w+)")
MAX_FOLD_RE = re.compile(
    r"^([\w.\->\[\]]+)\s*=\s*(?:std\s*::\s*)?(?:max|min)\s*\(\s*\1\s*,")
VOID_CAST_RE = re.compile(r"^\(\s*void\s*\)")
INCDEC_RE = re.compile(r"^(?:\+\+|--)\s*[\w.\->\[\]]+$|^[\w.\->\[\]]+\s*(?:\+\+|--)$")
COMPOUND_RE = re.compile(r"^([\w.\->\[\]()]+?)\s*(?:\+=|-=|\*=|/=|\|=|&=|\^=)(?!=)")
APPEND_RE = re.compile(r"^(\w+)\s*\.\s*(?:push_back|emplace_back)\s*\(")
MAP_SINK_RE = re.compile(r"^(\w+)\s*(?:\[[^\]]*\]\s*=(?!=)|\.\s*(?:insert|emplace|try_emplace|erase)\s*\()")
PLAIN_ASSIGN_RE = re.compile(r"^([\w.\->\[\]]+)\s*=(?!=)")
CALL_STMT_RE = re.compile(r"^[\w.\->:\[\]]+\s*\(")


def loop_locals(decl_text: str) -> Set[str]:
    """Names bound by the range-for declaration (handles structured
    bindings)."""
    names: Set[str] = set()
    b = re.search(r"\[([\w,\s]+)\]", decl_text)
    if b:
        names.update(x.strip() for x in b.group(1).split(",") if x.strip())
        return names
    m = re.search(r"(\w+)\s*$", decl_text)
    if m:
        names.add(m.group(1))
    return names


def classify_order_sensitivity(decl_text: str, body: str, after: str,
                               sym: Symbols) -> Optional[str]:
    """Return None if the loop body is provably order-insensitive, else a
    human-readable reason why iteration order leaks into results."""
    if re.search(r"\breturn\b", body):
        return "returns from inside the iteration (first match depends on hash order)"
    if re.search(r"\bbreak\b", body):
        return "breaks out of the iteration (early exit depends on hash order)"
    if "<<" in body or ">>" in body:
        return "streams output (or shifts into a digest) in iteration order"

    locals_: Set[str] = set(loop_locals(decl_text))
    for stmt in split_statements(body):
        if not stmt or VOID_CAST_RE.match(stmt):
            continue
        if stmt.startswith("continue"):
            continue
        if INCDEC_RE.match(stmt):
            continue
        if MAX_FOLD_RE.match(stmt):
            continue
        if COMPOUND_RE.match(stmt):
            continue  # commutative-fold accumulation
        m = APPEND_RE.match(stmt)
        if m:
            var = m.group(1)
            if re.search(SORT_RE_TMPL.format(var=re.escape(var)), after):
                continue  # collect-then-sort idiom
            return (f"appends to `{var}` in iteration order and never sorts it; "
                    f"sort the collected keys (collect-then-sort) or iterate a "
                    f"deterministic container")
        m = MAP_SINK_RE.match(stmt)
        if m and (m.group(1) in sym.map_like_vars or m.group(1) in locals_):
            continue  # re-keyed insert into an associative container
        if DECL_STMT_RE.match(stmt) and not CALL_STMT_RE.match(stmt):
            lm = LOCAL_NAME_RE.match(stmt)
            if lm:
                locals_.add(lm.group(1))
            continue
        m = PLAIN_ASSIGN_RE.match(stmt)
        if m:
            base = m.group(1).split(".")[0].split("->")[0].split("[")[0]
            if base in locals_:
                continue
            return (f"plain assignment to `{m.group(1)}` is last-writer-wins "
                    f"under hash order")
        if CALL_STMT_RE.match(stmt):
            return (f"side-effect-only call `{stmt.split('(')[0].strip()}(...)` "
                    f"executes in iteration order")
        return f"statement `{stmt[:48]}` is not a recognised order-insensitive fold"
    return None


def d1_message(reason: str) -> str:
    return (f"iteration over an unordered container is implementation-defined "
            f"order and {reason}; results will differ across stdlib builds, "
            f"breaking bitwise reproducibility. Iterate sorted keys, switch "
            f"the container, or make the fold commutative")


D4_SOA_MESSAGE = ("write to NodeStateSoA column `{col}` outside the owning "
                  "module, with no shard ownership derived (shard_of) in the "
                  "enclosing function and not inside a window-barrier callback; "
                  "at K > 1 this races the owning shard. Route through the "
                  "owner or a barrier hook")


def in_owner_context(stripped: str, blocks: List[Block], pos: int) -> bool:
    """True when the NodeStateSoA write at ``pos`` is inside a context that
    establishes shard ownership: the enclosing function derives the shard
    via ``shard_of(...)`` before the write, or the write sits in a lambda
    registered as a window-barrier hook."""
    chain = enclosing_chain(blocks, pos)
    for b in chain:
        if b.kind == "lambda" and b.parent_call == "add_barrier_hook":
            return True
    fn = chain[-1] if chain else None
    if fn is not None and "shard_of" in stripped[fn.start:pos]:
        return True
    # Ownership derived in the outer function that the lambda was defined in
    # also counts (the lambda inherits the derivation lexically).
    for b in chain[:-1]:
        if "shard_of" in stripped[b.start:pos]:
            return True
    return False


# --------------------------------------------------------------------------
# R2 — epoch contract
# --------------------------------------------------------------------------

EPOCH_GUARDS = [
    # The sharded probing estimator publishes per-node epochs (SoA form).
    {"cls": "ShardedProbing",
     "files": ("src/net/sharded_probing.hpp", "src/net/sharded_probing.cpp"),
     "state": ("session_time_", "avail_total_"),
     "epoch": re.compile(r"(\+\+\s*probe_epoch_|probe_epoch_\s*(\[[^]]*\]\s*)?(\+\+|\+=|=))")},
]


def iter_method_definitions(s: str, cls: str) -> Iterator[Tuple[str, int, int, int, bool]]:
    """Yield (method_name, header_pos, body_start, body_end, is_const) for
    every out-of-class member definition ``ret Class::name(...) ... {`` of
    ``cls`` in stripped text ``s``."""
    for m in re.finditer(rf"\b{cls}\s*::\s*(~?\w+)\s*\(", s):
        close = match_fwd(s, m.end() - 1, "(", ")")
        # Scan the trailer up to '{' (definition) or ';' (declaration).
        brace = None
        for i in range(close, len(s)):
            if s[i] in "{;":
                brace = i if s[i] == "{" else None
                break
        if brace is None:
            continue
        is_const = re.search(r"\bconst\b", s[close:brace]) is not None
        yield m.group(1), m.start(), brace, match_fwd(s, brace, "{", "}"), is_const


def check_epoch_contract(files: List[SourceFile], ctx: Context) -> Iterator[Finding]:
    by_scope = {sf.scope: sf for sf in files}
    for guard in EPOCH_GUARDS:
        cls = guard["cls"]
        state_res = [re.compile(rf"\b{re.escape(f)}\b") for f in guard["state"]]
        row = [by_scope[rel] for rel in guard["files"] if rel in by_scope]
        # Self-check: a member the row guards must exist in the class, or
        # the row checks nothing for it. Rows whose files declare no class
        # body (stub trees) have nothing to compare against.
        dead = [f for f, r in zip(guard["state"], state_res)
                if not any(r.search(sf.stripped) for sf in row)]
        decl_re = re.compile(rf"\b(?:class|struct)\s+{cls}\b[^;{{}}]*\{{")
        for sf in row:
            decl = decl_re.search(sf.stripped)
            if dead and decl:
                yield Finding(
                    "R2", sf.real, line_of(sf.stripped, decl.start()),
                    f"EPOCH_GUARDS row {cls} guards {', '.join(dead)}, which occur in none "
                    f"of its files ({', '.join(guard['files'])}); the row checks nothing "
                    f"for them. Update the row in tools/lint/check_invariants.py")
        for sf in row:
            s = sf.stripped
            for name, header, start, end, is_const in iter_method_definitions(s, cls):
                if is_const or name in (cls, f"~{cls}"):
                    continue
                body = s[start:end]
                if not any(r.search(body) for r in state_res) or guard["epoch"].search(body):
                    continue
                yield Finding(
                    "R2", sf.real, line_of(s, header),
                    f"{cls}::{name} mutates guarded state "
                    f"({', '.join(guard['state'])}) without bumping the monotone epoch; "
                    f"equal epochs would no longer promise equal answers. Bump the epoch "
                    f"or annotate the definition with // lint-exempt(epoch): <reason>")


# --------------------------------------------------------------------------
# R3 — no tracked build artifacts
# --------------------------------------------------------------------------

TRACKED_BANNED = re.compile(
    r"^(build[^/]*/|.*/(CMakeCache\.txt|CTestTestfile\.cmake|compile_commands\.json)$"
    r"|Testing/|.*\.(o|obj|gcda|gcno|profraw)$)"
)


def check_tracked_artifacts(files: List[SourceFile], ctx: Context) -> Iterator[Finding]:
    try:
        out = subprocess.run(
            ["git", "-C", str(ctx.repo), "ls-files"],
            capture_output=True, text=True, check=True, timeout=60,
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return  # not a git checkout (e.g. a release tarball): nothing to verify
    for f in out.splitlines():
        if TRACKED_BANNED.match(f):
            yield Finding("R3", f, 1, "build artifact is tracked by git; `git rm "
                          "--cached` it and rely on .gitignore's build*/ patterns")


# --------------------------------------------------------------------------
# R4 — finished guard on scheduled Pending closures
# --------------------------------------------------------------------------

PENDING_FILE_RE = re.compile(r"shared_ptr\s*<\s*Pending\s*>")
SCHEDULE_CALL_RE = re.compile(r"\bschedule_(?:in|at)\s*\(")
CAPTURES_P_RE = re.compile(r"(?<![\w.])p\b")


def guarded_callees(s: str) -> Set[str]:
    """Method names whose out-of-class definition opens with a finished guard
    (``if (...finished...)`` as the body's first statement)."""
    names = set()
    for m in re.finditer(r"\b\w+\s*::\s*(\w+)\s*\(", s):
        close = match_fwd(s, m.end() - 1, "(", ")")
        brace = None
        for i in range(close, len(s)):
            if s[i] in "{;":
                brace = i if s[i] == "{" else None
                break
        if brace is None:
            continue
        body_head = s[brace + 1:match_fwd(s, brace, "{", "}")].lstrip()
        if re.match(r"if\s*\([^)]*\bfinished\b", body_head):
            names.add(m.group(1))
    return names


def check_finished_guards(files: List[SourceFile], ctx: Context) -> Iterator[Finding]:
    for sf in files:
        s = sf.stripped
        if not PENDING_FILE_RE.search(s):
            continue
        callees = guarded_callees(s)
        for m in SCHEDULE_CALL_RE.finditer(s):
            open_paren = m.end() - 1
            call = s[open_paren:match_fwd(s, open_paren, "(", ")")]
            lb = call.find("[")
            if lb == -1:
                continue  # no lambda argument
            rb = call.find("]", lb)
            if rb == -1 or not CAPTURES_P_RE.search(call[lb + 1:rb]):
                continue  # lambda does not capture the Pending pointer
            body_open = call.find("{", rb)
            if body_open == -1:
                continue
            body = call[body_open:match_fwd(call, body_open, "{", "}")]
            if re.search(r"\bfinished\b", body):
                continue
            if any(cm.group(1) in callees for cm in re.finditer(r"\b(\w+)\s*\(", body)):
                continue
            yield Finding(
                "R4", sf.real, line_of(s, m.start()),
                "scheduled lambda captures the shared Pending state but neither "
                "checks `finished` nor calls a method that opens with a finished "
                "guard; a stale firing would act on a resolved connection. Guard "
                "the body or annotate the call with // lint-exempt(finished): <reason>")


# --------------------------------------------------------------------------
# R5 — settlement state transitions are first-wins guarded
# --------------------------------------------------------------------------

SETTLEMENT_FILE = "src/payment/settlement.cpp"
SETTLEMENT_CLASS = "SettlementEngine"
# An assignment to a settlement `state` field (s.state = ..., state = ...),
# excluding comparisons. Matched against stripped text inside member bodies.
STATE_ASSIGN_RE = re.compile(r"\bstate\s*=(?!=)")


def check_settlement_transitions(files: List[SourceFile], ctx: Context) -> Iterator[Finding]:
    for sf in files:
        s = sf.stripped
        for name, _h, start, end, _c in iter_method_definitions(s, SETTLEMENT_CLASS):
            body = s[start:end]
            for m in STATE_ASSIGN_RE.finditer(body):
                if "is_terminal" in body[:m.start()]:
                    continue
                yield Finding(
                    "R5", sf.real, line_of(s, start + m.start()),
                    f"{SETTLEMENT_CLASS}::{name} assigns a settlement state without a "
                    f"preceding is_terminal() first-wins check in the same body; an "
                    f"unguarded transition can re-terminalise a settlement and move its "
                    f"escrow money twice. Check is_terminal first or annotate the site "
                    f"with // lint-exempt(settlement-state): <reason>")


# --------------------------------------------------------------------------
# R7 — results artifacts go through the atomic write helper
# --------------------------------------------------------------------------

OFSTREAM_RE = re.compile(r"\bofstream\b")
# Artifact-ish context near the stream: a BENCH json name, a checkpoint
# path/variable, or a .ckpt file. Matched on comment-stripped text with
# string literals PRESERVED (the artifact name usually lives in a literal).
ARTIFACT_CONTEXT_RE = re.compile(r"BENCH_|\.ckpt\b|[Cc]heckpoint|ckpt_path")
ATOMIC_CONTEXT_LINES = 12


def check_atomic_artifact_writes(files: List[SourceFile], ctx: Context) -> Iterator[Finding]:
    for sf in files:
        code_lines = sf.code.splitlines()
        for lineno, line in enumerate(code_lines, start=1):
            if not OFSTREAM_RE.search(line):
                continue
            lo = max(0, lineno - 1 - ATOMIC_CONTEXT_LINES)
            window = "\n".join(code_lines[lo:lineno + ATOMIC_CONTEXT_LINES])
            if not ARTIFACT_CONTEXT_RE.search(window):
                continue
            yield Finding(
                "R7", sf.real, lineno,
                "direct ofstream near a results artifact (BENCH_*.json / "
                "checkpoint); a crash mid-write leaves a torn file that poisons "
                "resume or downstream plots. Route the bytes through "
                "harness::atomic_write_file (bench::write_bench_json / "
                "Checkpoint::save), or annotate the write leg with "
                "// lint-exempt(atomic-write): <reason>")


# --------------------------------------------------------------------------
# R8 — bank-partition mutations go through the plane's routed entry points
# --------------------------------------------------------------------------

# partition(b).engine.method( / partition(b).bank.method( — deliberately does
# NOT match the read-only partition_view(b) accessor.
BANK_PARTITION_RE = re.compile(
    r"\bpartition\s*\([^()]*\)\s*\.\s*(?:engine|bank)\s*\.\s*\w+\s*\(")


def check_bank_partition_ownership(files: List[SourceFile], ctx: Context) -> Iterator[Finding]:
    for sf in files:
        for m in BANK_PARTITION_RE.finditer(sf.stripped):
            yield Finding(
                "R8", sf.real, line_of(sf.stripped, m.start()),
                "direct partition(...).engine/bank access bypasses the settlement "
                "plane's routed entry points (key routing, aggregate-MAC "
                "verification, the owning engine's nonce ledger); a settlement opened "
                "this way is invisible until the merge reconciliation. Use "
                "open_settlement / submit_aggregated_claim / close_settlement / "
                "expire_due (reads: partition_view), or annotate the site with "
                "// lint-exempt(bank-partition): <reason>")


# --------------------------------------------------------------------------
# R9 — raw BSD socket calls stay inside the transport plane
# --------------------------------------------------------------------------

# Global-namespace-qualified calls only: `::send(` matches, `std::bind(` and
# `transport::connect(` do not (the lookbehind rejects a preceding word char
# or a further `:`), so qualified C++ names never trip the rule.
RAW_SOCKET_RE = re.compile(
    r"(?<![\w:])::\s*(socket|send|recv|sendto|recvfrom|connect|accept|bind|listen)\s*\(")


def check_raw_socket_confinement(files: List[SourceFile], ctx: Context) -> Iterator[Finding]:
    for sf in files:
        for m in RAW_SOCKET_RE.finditer(sf.stripped):
            yield Finding(
                "R9", sf.real, line_of(sf.stripped, m.start()),
                f"direct ::{m.group(1)}() outside src/transport/; bytes moved past "
                f"the wire codec bypass its CRC/length/version checks, the "
                f"malformed-frame counters and the Bye/heartbeat liveness contract. "
                f"Route traffic through transport::TcpTransport, or annotate a "
                f"deliberate hostile-peer fixture with // lint-exempt(transport): <reason>")


# --------------------------------------------------------------------------
# D1-D4 (builtin backend passes)
# --------------------------------------------------------------------------

FOR_RE = re.compile(r"\bfor\s*\(")
BEGIN_ITER_RE = re.compile(r"=\s*(\w+)\s*\.\s*begin\s*\(\s*\)")


def find_range_for(sf: SourceFile, sym: Symbols) -> Iterator[Tuple[int, str, str, str]]:
    """Yield (pos, decl_text, range_expr, body) for every range-for whose
    range expression resolves to an unordered container, plus iterator loops
    seeded from ``x.begin()`` on one."""
    s = sf.stripped
    for m in FOR_RE.finditer(s):
        op = m.end() - 1
        close = match_fwd(s, op, "(", ")")
        header = s[op + 1:close - 1]
        # split at ':' at depth 0 → range-for
        depth = 0
        colon = -1
        for i, ch in enumerate(header):
            if ch in "<([{":
                depth += 1
            elif ch in ">)]}":
                depth -= 1
            elif ch == ":" and depth == 0:
                if i + 1 < len(header) and header[i + 1] == ":":
                    continue
                if i > 0 and header[i - 1] == ":":
                    continue
                colon = i
                break
        body_start = close
        while body_start < len(s) and s[body_start] in " \t\r\n":
            body_start += 1
        if body_start < len(s) and s[body_start] == "{":
            body = s[body_start + 1:match_fwd(s, body_start, "{", "}") - 1]
        else:
            semi = s.find(";", body_start)
            body = s[body_start:semi if semi != -1 else len(s)]
        if colon >= 0:
            decl, rng = header[:colon], header[colon + 1:].strip()
            base = None
            g = re.search(r"(\w+)\s*\(\s*\)\s*$", rng)
            if g and g.group(1) in sym.unordered_getters:
                base = g.group(1)
            else:
                im = re.search(r"([A-Za-z_]\w*)\s*$", rng)
                if im and im.group(1) in sym.unordered_vars:
                    base = im.group(1)
            if base is not None:
                yield m.start(), decl, rng, body
        else:
            im = BEGIN_ITER_RE.search(header)
            if im and im.group(1) in sym.unordered_vars:
                yield m.start(), "it", header, body


def rule_d1(files: List[SourceFile], ctx: Context) -> Iterator[Finding]:
    for sf in files:
        s = sf.stripped
        for pos, decl, _rng, body in find_range_for(sf, ctx.sym):
            fn = enclosing_function(sf.blocks, pos)
            after = s[pos + len(body):fn.end] if fn else s[pos + len(body):]
            reason = classify_order_sensitivity(decl, body, after, ctx.sym)
            if reason is not None:
                yield Finding("D1", sf.real, line_of(s, pos), d1_message(reason))


CLOCK_MSG = "; simulation time must come from Simulator::now()"
D2_SIMPLE = [
    # (pattern, is_clock, message)
    (re.compile(r"\b(?:std\s*::\s*)?random_device\b"), False,
     "std::random_device is ambient entropy; derive a sim::rng::Stream child instead"),
    (re.compile(r"\bstd\s*::\s*s?rand\b|(?<![\w:])s?rand\s*\("), False,
     "rand()/srand() is unseeded ambient entropy; draw from a sim::rng::Stream instead"),
    # Bare type names, so `using clk = std::chrono::steady_clock;` is caught.
    (re.compile(r"\b(?:system_clock|steady_clock|high_resolution_clock)\b"), True,
     "wall/monotonic clock type" + CLOCK_MSG),
    (re.compile(r"\bclock_gettime\s*\(|\bgettimeofday\s*\("
                r"|(?<![\w:])(?:std\s*::\s*)?time\s*\(\s*(?:NULL|nullptr|0)?\s*\)"
                r"|(?<![\w:.>])(?:std\s*::\s*)?clock\s*\(\s*\)"), True,
     "raw OS clock read" + CLOCK_MSG),
    (re.compile(r"\bthis_thread\s*::\s*get_id\b|\bpthread_self\s*\("), False,
     "thread identity leaks the host schedule into model-visible state"),
    (re.compile(r"\bstd\s*::\s*hash\s*<[^>]*\*\s*>"), False,
     "std::hash over a raw pointer hashes the allocation address (differs every run)"),
    (re.compile(r"\breinterpret_cast\s*<\s*(?:std\s*::\s*)?u?intptr_t\s*>"), False,
     "pointer-to-integer cast exposes the allocation address as a value"),
]

KEYED_CONTAINER_RE = re.compile(
    r"\b(?:std\s*::\s*)?((?:unordered_)?(?:map|set|multimap|multiset))\s*<")


def rule_d2(files: List[SourceFile], ctx: Context) -> Iterator[Finding]:
    for sf in files:
        s = sf.stripped
        clock_ok = sf.scope.startswith(CLOCK_ALLOWED_PREFIXES)
        for pat, is_clock, msg in D2_SIMPLE:
            if is_clock and clock_ok:
                continue
            for m in pat.finditer(s):
                yield Finding("D2", sf.real, line_of(s, m.start()), msg)
        for m in KEYED_CONTAINER_RE.finditer(s):
            arg = first_template_arg(s, m.end() - 1)
            if arg.endswith("*"):
                yield Finding(
                    "D2", sf.real, line_of(s, m.start()),
                    f"{m.group(1)} keyed by raw pointer `{arg}`: address order/hash "
                    f"differs across runs; key by a stable id instead")


D3_RE = re.compile(
    r"\b(?:std\s*::\s*)?(\w+_distribution|" + "|".join(RAW_ENGINE_NAMES) + r")\b")
STREAM_PARAM_RE = re.compile(r"(?:\brng\s*::\s*)?\bStream\s*[&*]")


def d3_message(name: str) -> str:
    return (f"`{name}` constructed outside src/sim/rng.* in a function without a "
            f"sim::rng::Stream& parameter; draws here cannot be traced to a "
            f"seeded child stream")


def rule_d3(files: List[SourceFile], ctx: Context) -> Iterator[Finding]:
    for sf in files:
        if sf.scope.startswith(RNG_HOME_PREFIX):
            continue
        s = sf.stripped
        for m in D3_RE.finditer(s):
            chain = enclosing_chain(sf.blocks, m.start())
            if any(STREAM_PARAM_RE.search(b.params or "") for b in chain):
                continue
            yield Finding("D3", sf.real, line_of(s, m.start()), d3_message(m.group(1)))


COLUMN_MUTATORS = {"on_join", "on_leave"}
COLUMN_METHOD_WRITES = {"assign", "clear", "resize", "push_back", "emplace_back",
                        "pop_back", "swap", "erase", "insert"}
ASSIGN_AFTER_RE = re.compile(r"^\s*(?:=(?!=)|\+=|-=|\*=|/=|\|=|&=|\^=|\+\+|--)")
SHARD_SCHED_RE = re.compile(r"\bshard\s*\(([^()]*)\)\s*\.\s*schedule_(?:in|at)\s*\(")


def soa_writes(sf: SourceFile, access_re: re.Pattern) -> Iterator[Tuple[int, str]]:
    """(pos, column) of every lexical write to a NodeStateSoA column."""
    s = sf.stripped
    for m in access_re.finditer(s):
        write = False
        if m.group(3) == "[":
            close = match_fwd(s, m.end() - 1, "[", "]")
            tail = s[close:close + 40]
            mm = re.match(r"^\s*\.\s*(\w+)\s*\(", tail)
            pre = _skip_ws_back(s, m.start() - 1)
            write = (ASSIGN_AFTER_RE.match(tail) is not None
                     or (mm is not None and mm.group(1) in COLUMN_MUTATORS)
                     or (pre >= 1 and s[pre - 1:pre + 1] in ("++", "--")))
        else:
            mm = re.match(r"^\s*(\w+)\s*\(", s[m.end():m.end() + 40])
            write = mm is not None and mm.group(1) in COLUMN_METHOD_WRITES
        if write:
            yield m.start(), m.group(2)


def rule_d4(files: List[SourceFile], ctx: Context) -> Iterator[Finding]:
    sym = ctx.sym
    access_re = None
    if sym.soa_vars and sym.soa_columns:
        var_alt = "|".join(re.escape(v) for v in sorted(sym.soa_vars))
        col_alt = "|".join(re.escape(c) for c in sorted(sym.soa_columns))
        access_re = re.compile(rf"\b({var_alt})\s*(?:\.|->)\s*({col_alt})\s*([\[.])")
    for sf in files:
        s = sf.stripped
        if access_re is not None and sf.scope not in SOA_OWNER_FILES:
            for pos, col in soa_writes(sf, access_re):
                if not in_owner_context(s, sf.blocks, pos):
                    yield Finding("D4", sf.real, line_of(s, pos), D4_SOA_MESSAGE.format(col=col))
        # The owning modules get no pass here: a schedule's target shard is a
        # runtime value the checker cannot prove local, so the author affirms it.
        for m in SHARD_SCHED_RE.finditer(s):
            yield Finding(
                "D4", sf.real, line_of(s, m.start()),
                f"direct shard({m.group(1).strip() or '...'}).schedule_* bypasses "
                f"the window mailbox; a cross-shard target races the peer's event "
                f"queue at K > 1 (and no K = 1 test can see it). Use "
                f"ShardedSimulator::post(src, dst, at, fn), or affirm a shard-local "
                f"site with // lint-exempt(cross-shard): <reason>")


# --------------------------------------------------------------------------
# Rule registry
# --------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Rule:
    id: str
    tag: Optional[str]       # waiver tag: lint-exempt(<tag>): <reason>
    scope: Tuple[str, ...]   # "dir/" prefixes or exact repo-relative files
    check: Callable[[List[SourceFile], Context], Iterable[Finding]]
    reach: int = 1           # lines above a finding its waiver may sit on
    exclude: Tuple[str, ...] = ()

    def scans(self, path: str) -> bool:
        return path.startswith(self.scope) and not path.startswith(self.exclude)


# Stable ids: tests/analysis/ drives each rule through --rules, so ids are
# part of the tool's interface.
RULES: Dict[str, Rule] = {r.id: r for r in (
    Rule("R2", "epoch", tuple(f for g in EPOCH_GUARDS for f in g["files"]),
         check_epoch_contract, reach=2),
    Rule("R3", None, (), check_tracked_artifacts),
    Rule("R4", "finished", ("src/",), check_finished_guards),
    Rule("R5", "settlement-state", (SETTLEMENT_FILE,), check_settlement_transitions),
    Rule("R7", "atomic-write", SCOPE, check_atomic_artifact_writes, reach=2),
    Rule("R8", "bank-partition", SCOPE, check_bank_partition_ownership),
    Rule("R9", "transport", SCOPE + ("tests/",), check_raw_socket_confinement,
         exclude=("src/transport/",)),
    Rule("D1", "iteration-order", SCOPE, rule_d1),
    Rule("D2", "determinism", SCOPE, rule_d2, reach=0),
    Rule("D3", "rng", SCOPE, rule_d3),
    Rule("D4", "cross-shard", SCOPE, rule_d4),
)}
TAGS = {r.tag: r for r in RULES.values() if r.tag}


def apply_waivers(findings: List[Finding], by_real: Dict[str, SourceFile]) -> List[Finding]:
    """Drop each finding covered by a reasoned waiver of its rule's tag on
    its line or up to ``reach`` lines above, marking that waiver used."""
    active = []
    for f in findings:
        rule, sf = RULES[f.rule], by_real.get(f.file)
        waiver = next((w for w in (sf.waivers if sf else ())
                       if w.tag == rule.tag and w.reasoned
                       and f.line - rule.reach <= w.line <= f.line), None)
        if waiver is None:
            active.append(f)
        else:
            waiver.used = True
    return active


def judge_waivers(sources: List[SourceFile], rules: List[Rule]) -> Iterator[Finding]:
    """Waivers with an unknown tag or no reason, and stale ones: in a file a
    selected rule scans, covering no finding of that rule."""
    for sf in sources:
        for w in sf.waivers:
            rule = TAGS.get(w.tag)
            if rule is None:
                yield Finding("WAIVER", sf.real, w.line,
                              f"unknown waiver tag `{w.tag}`; known: {', '.join(sorted(TAGS))}")
            elif rule in rules and rule.scans(sf.scope):
                if not w.reasoned:
                    yield Finding("WAIVER", sf.real, w.line,
                                  f"lint-exempt({w.tag}) gives no reason on its line; "
                                  f"say why the site is safe")
                elif not w.used:
                    yield Finding("WAIVER", sf.real, w.line,
                                  f"stale lint-exempt({w.tag}): covers no {rule.id} "
                                  f"finding; delete it")


# --------------------------------------------------------------------------
# libclang backend
# --------------------------------------------------------------------------


class BackendUnavailable(RuntimeError):
    pass


class LibclangBackend:
    """AST-deepened D1-D4 detection via python3-clang. The checker runs the
    builtin passes first (so libclang findings are a strict superset), then
    adds what the lexer cannot see: ranges reached through ``auto&``
    aliases, typedef'd engines/distributions, pointer-keyed containers
    hidden behind aliases, and NodeStateSoA member writes resolved through
    the semantic parent rather than the spelt variable name. The
    order-sensitivity classifier and ownership-context checks are shared,
    applied to cursor extents."""

    def __init__(self, build_dir: Optional[pathlib.Path]):
        try:
            import clang.cindex as ci  # type: ignore
        except ImportError as e:
            raise BackendUnavailable(f"python3-clang not importable: {e}") from e
        self.ci = ci
        if ci.Config.loaded is False:
            for lib in self._candidate_libs():
                try:
                    ci.Config.set_library_file(str(lib))
                    break
                except Exception:  # pragma: no cover - defensive
                    continue
        try:
            self.index = ci.Index.create()
        except Exception as e:
            raise BackendUnavailable(f"libclang unavailable: {e}") from e
        self.cdb = None
        if build_dir is not None and (build_dir / "compile_commands.json").is_file():
            try:
                self.cdb = ci.CompilationDatabase.fromDirectory(str(build_dir))
            except Exception:
                self.cdb = None

    @staticmethod
    def _candidate_libs() -> List[pathlib.Path]:
        out = []
        import glob
        try:
            libdir = subprocess.run(["llvm-config", "--libdir"], capture_output=True,
                                    text=True, timeout=30).stdout.strip()
            if libdir:
                out += [pathlib.Path(p) for p in glob.glob(f"{libdir}/libclang*.so*")]
        except Exception:
            pass
        for pat in ("/usr/lib/llvm-*/lib/libclang.so*",
                    "/usr/lib/x86_64-linux-gnu/libclang-*.so*",
                    "/usr/lib/libclang.so*"):
            out += [pathlib.Path(p) for p in glob.glob(pat)]
        return [p for p in out if "cpp" not in p.name]

    def _args_for(self, path: str) -> List[str]:
        if self.cdb is not None:
            cmds = self.cdb.getCompileCommands(path)
            if cmds:
                args = list(cmds[0].arguments)[1:]
                # Drop the output/input clauses; keep -I/-D/-std et al.
                cleaned, skip = [], False
                for a in args:
                    if skip:
                        skip = False
                        continue
                    if a in ("-o", "-c"):
                        skip = a == "-o"
                        continue
                    if a == path or a.endswith(path):
                        continue
                    cleaned.append(a)
                return cleaned
        return ["-std=c++20", "-xc++"]

    def findings(self, sources: List[SourceFile], sym: Symbols,
                 root: pathlib.Path) -> List[Finding]:
        by_real = {str((root / sf.real).resolve()): sf for sf in sources
                   if sf.scope.startswith(SCOPE)}
        out: List[Finding] = []
        for tu_path in [p for p in by_real if p.endswith((".cpp", ".cc"))]:
            try:
                tu = self.index.parse(tu_path, args=self._args_for(tu_path))
            except Exception as e:
                raise BackendUnavailable(f"parse failed for {tu_path}: {e}") from e
            for cur in tu.cursor.walk_preorder():
                loc = cur.location
                if loc.file is None:
                    continue
                sf = by_real.get(str(pathlib.Path(loc.file.name).resolve()))
                if sf is not None:
                    out += self._visit(cur, sf, sym)
        return out

    # -- cursor dispatch ---------------------------------------------------

    def _visit(self, cur, sf: SourceFile, sym: Symbols) -> List[Finding]:
        ci = self.ci
        k = cur.kind
        out: List[Finding] = []
        if k == ci.CursorKind.CXX_FOR_RANGE_STMT:
            out += self._d1_range_for(cur, sf, sym)
        elif k in (ci.CursorKind.VAR_DECL, ci.CursorKind.FIELD_DECL):
            out += self._d2_d3_types(cur, sf)
        if k in (ci.CursorKind.BINARY_OPERATOR,
                 ci.CursorKind.COMPOUND_ASSIGNMENT_OPERATOR,
                 ci.CursorKind.UNARY_OPERATOR, ci.CursorKind.CALL_EXPR):
            out += self._d4_writes(cur, sf, sym)
        return out

    def _offset(self, cur) -> int:
        return cur.extent.start.offset

    def _d1_range_for(self, cur, sf: SourceFile, sym: Symbols) -> List[Finding]:
        children = list(cur.get_children())
        if not children:
            return []
        rng_type = ""
        for ch in children:
            t = ch.type.get_canonical().spelling if ch.type else ""
            if "unordered_map" in t or "unordered_set" in t:
                rng_type = t
                break
        if not rng_type:
            return []
        pos = self._offset(cur)
        s = sf.stripped
        # Reuse the lexical extraction anchored at the cursor position.
        for lpos, decl, _rng, body in find_range_for(sf, sym):
            if abs(lpos - pos) > 4:
                continue
            fn = enclosing_function(sf.blocks, lpos)
            after = s[lpos + len(body):fn.end] if fn else ""
            reason = classify_order_sensitivity(decl, body, after, sym)
            if reason is not None:
                return [Finding("D1", sf.real, line_of(s, lpos), d1_message(reason))]
            return []
        # AST saw an unordered iteration the lexical pass could not resolve
        # (e.g. a container reached through auto&): classify its body text.
        body_cur = children[-1]
        body = sf.raw[body_cur.extent.start.offset:body_cur.extent.end.offset]
        reason = classify_order_sensitivity("it", strip_comments_and_strings(body),
                                            "", sym)
        if reason is not None:
            return [Finding("D1", sf.real, cur.location.line, d1_message(reason))]
        return []

    def _d2_d3_types(self, cur, sf: SourceFile) -> List[Finding]:
        """AST-only extras for declarations whose *canonical* type reveals a
        banned construct the spelt source hides behind an alias."""
        t = cur.type.get_canonical().spelling if cur.type else ""
        out: List[Finding] = []
        line = cur.location.line
        m = re.search(r"(unordered_)?(map|set|multimap|multiset)<([^,>]*\*)\s*[,>]", t)
        if m:
            out.append(Finding("D2", sf.real, line,
                               f"container keyed by raw pointer `{m.group(3).strip()}`: "
                               f"address order/hash differs across runs; key by a "
                               f"stable id instead"))
        if not sf.scope.startswith(RNG_HOME_PREFIX):
            if re.search(r"_distribution<", t) or any(
                    re.search(rf"\b{e}\b", t) for e in RAW_ENGINE_NAMES):
                if not self._has_stream_param(cur):
                    out.append(Finding("D3", sf.real, line,
                                       d3_message(t.split('<')[0].split('::')[-1])))
        return out

    def _has_stream_param(self, cur) -> bool:
        ci = self.ci
        p = cur.semantic_parent
        while p is not None and p.kind != ci.CursorKind.TRANSLATION_UNIT:
            if p.kind in (ci.CursorKind.FUNCTION_DECL, ci.CursorKind.CXX_METHOD,
                          ci.CursorKind.LAMBDA_EXPR, ci.CursorKind.CONSTRUCTOR):
                for arg in p.get_arguments():
                    at = arg.type.get_canonical().spelling if arg.type else ""
                    if "rng::Stream" in at:
                        return True
            p = p.semantic_parent
        return False

    def _d4_writes(self, cur, sf: SourceFile, sym: Symbols) -> List[Finding]:
        if sf.scope in SOA_OWNER_FILES:
            return []
        ci = self.ci
        lhs = None
        if cur.kind in (ci.CursorKind.BINARY_OPERATOR,
                        ci.CursorKind.COMPOUND_ASSIGNMENT_OPERATOR):
            children = list(cur.get_children())
            if len(children) == 2:
                toks = [t.spelling for t in cur.get_tokens()]
                if cur.kind == ci.CursorKind.BINARY_OPERATOR and "=" not in toks:
                    return []
                lhs = children[0]
        elif cur.kind == ci.CursorKind.UNARY_OPERATOR:
            toks = [t.spelling for t in cur.get_tokens()]
            if "++" not in toks and "--" not in toks:
                return []
            children = list(cur.get_children())
            lhs = children[0] if children else None
        elif cur.kind == ci.CursorKind.CALL_EXPR:
            name = cur.spelling or ""
            if name not in COLUMN_MUTATORS | COLUMN_METHOD_WRITES:
                return []
            children = list(cur.get_children())
            lhs = children[0] if children else None
        if lhs is None:
            return []
        col = self._soa_field_in(lhs, sym)
        if col is None:
            return []
        pos = cur.extent.start.offset
        if in_owner_context(sf.stripped, sf.blocks, pos):
            return []
        return [Finding("D4", sf.real, cur.location.line, D4_SOA_MESSAGE.format(col=col))]

    def _soa_field_in(self, cur, sym: Symbols) -> Optional[str]:
        ci = self.ci
        for c in [cur] + list(cur.walk_preorder()):
            if c.kind == ci.CursorKind.MEMBER_REF_EXPR and c.spelling in sym.soa_columns:
                ref = c.referenced
                parent = ref.semantic_parent if ref is not None else None
                if parent is not None and parent.spelling == "NodeStateSoA":
                    return c.spelling
        return None


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------


def gather_sources(repo: pathlib.Path, fixtures: Optional[pathlib.Path],
                   rules: List[Rule]) -> List[SourceFile]:
    root = fixtures if fixtures is not None else repo
    if fixtures is not None:
        bases = [fixtures]
    else:
        bases = [repo / d for d in sorted({p.split("/")[0] for r in rules for p in r.scope})]
    paths = sorted({p for b in bases if b.is_dir() for ext in SOURCE_EXTS for p in b.rglob(ext)})
    sources = [load_source(p, root, virtual=fixtures is not None) for p in paths]
    return [sf for sf in sources if any(r.scans(sf.scope) for r in rules)]


def run(args: argparse.Namespace, rules: List[Rule]) -> Tuple[str, List[SourceFile], List[Finding]]:
    """Run the selected rules; return (backend used, sources, active findings)."""
    repo = args.repo.resolve()
    fixtures = args.fixtures.resolve() if args.fixtures else None
    sources = gather_sources(repo, fixtures, rules)
    d_scope = [sf.stripped for sf in sources if sf.scope.startswith(SCOPE)]
    if fixtures is not None:
        # Fixture scope paths stand in for real modules; also fold in the real
        # SoA schema when present so D4 fixtures match production columns.
        soa = repo / "src/net/soa.hpp"
        if soa.is_file():
            d_scope.append(strip_comments_and_strings(soa.read_text()))
    ctx = Context(repo, collect_symbols(d_scope))

    findings: List[Finding] = []
    loaded = {sf.scope for sf in sources}
    for rule in rules:
        findings += rule.check([sf for sf in sources if rule.scans(sf.scope)], ctx)
        findings += [Finding(rule.id, p, 1, f"guarded file missing — update "
                             f"tools/lint/check_invariants.py if it moved")
                     for p in rule.scope if not p.endswith("/") and p not in loaded]

    backend_used = "builtin"
    build_dir = args.build_dir
    if build_dir is None and (repo / "build" / "compile_commands.json").is_file():
        build_dir = repo / "build"
    if args.backend in ("auto", "libclang"):
        try:
            extra = LibclangBackend(build_dir).findings(sources, ctx.sym, fixtures or repo)
            findings += [f for f in extra if RULES[f.rule] in rules]
            backend_used = "libclang"
        except Exception as e:
            if args.backend == "libclang":
                raise
            print(f"check_invariants: libclang backend unusable ({e}); "
                  f"falling back to builtin backend", file=sys.stderr)

    unique: Dict[Tuple[str, str, int], Finding] = {}
    for f in findings:
        unique.setdefault(f.key(), f)
    active = apply_waivers(list(unique.values()), {sf.real: sf for sf in sources})
    active += judge_waivers(sources, rules)
    return backend_used, sources, sorted(active, key=lambda f: (f.file, f.line, f.rule))


def main() -> int:
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--repo", type=pathlib.Path,
                    default=pathlib.Path(__file__).resolve().parents[2],
                    help="repository root (default: two levels above this script)")
    ap.add_argument("--rules", default="all",
                    help="comma-separated rule ids to run (e.g. R8,D2); "
                         "default: all of " + ",".join(RULES))
    ap.add_argument("--backend", choices=("auto", "libclang", "builtin"), default="auto")
    ap.add_argument("--build-dir", type=pathlib.Path, default=None,
                    help="build tree with compile_commands.json (libclang backend)")
    ap.add_argument("--fixtures", type=pathlib.Path, default=None,
                    help="check a fixture directory instead of the repo")
    ap.add_argument("--json", type=pathlib.Path, default=None,
                    help="write a machine-readable report here")
    args = ap.parse_args()

    if args.rules == "all":
        selected = list(RULES)
    else:
        selected = [r.strip().upper() for r in args.rules.split(",") if r.strip()]
        unknown = [r for r in selected if r not in RULES]
        if unknown:
            print(f"check_invariants: unknown rule id(s) {','.join(unknown)}; "
                  f"known: {','.join(RULES)}", file=sys.stderr)
            return 2
    rules = [r for rid, r in RULES.items() if rid in selected]

    try:
        backend, sources, findings = run(args, rules)
    except BackendUnavailable as e:
        print(f"check_invariants: libclang backend required but unavailable: {e}",
              file=sys.stderr)
        return 2

    for f in findings:
        print(f.render())
    waived = sum(w.used for sf in sources for w in sf.waivers)
    if args.json is not None:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(json.dumps({
            "backend": backend,
            "files_analyzed": len(sources),
            "rules": [r.id for r in rules],
            "findings": [dataclasses.asdict(f) for f in findings],
            "waivers_used": waived,
        }, indent=2) + "\n")

    ids = ",".join(r.id for r in rules)
    if findings:
        print(f"\ncheck_invariants[{backend}]: {len(findings)} finding(s) across "
              f"{len(sources)} file(s), rules {ids}", file=sys.stderr)
        return 1
    print(f"check_invariants[{backend}]: clean ({len(sources)} files, rules {ids}, "
          f"{waived} waiver(s) used)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
