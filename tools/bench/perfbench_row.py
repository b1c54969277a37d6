#!/usr/bin/env python3
"""Append end-to-end perfbench rows to BENCH_perfbench.json, or check its schema.

    tools/bench/perfbench_row.py --repo DIR [--repo DIR2] --runs N [--seed S]
                                 [--workload W ...] [--note TEXT]
    tools/bench/perfbench_row.py --check
    tools/bench/perfbench_row.py --compare

Each --repo is a git checkout holding perfbench/run.py. The script runs every
workload N times per checkout at its default length; with two or more
checkouts the runs alternate between them (A B A B ...), so each row is one
side of N interleaved pairs and shares the box's drift with the others. It
then appends one row per checkout: the commit, the hardware and toolchain,
the pair count, and per workload the median and quartiles (inclusive method)
of the four end-to-end metrics, plus whether every run matched perfbench's
recorded reference fingerprints with no failed check.

--check validates every row of the file against that schema, prints each
violation and exits non-zero if there is any.

--compare prints, per workload and end-to-end metric, the median of the
last two rows (the earlier one first), the relative change, and whether the
change exceeds the earlier row's interquartile range. It only prints: the
exit status is 0 whatever the numbers say.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
DEFAULT_OUT = ROOT / "BENCH_perfbench.json"
SCHEMA = "perfbench-rows/1"
WORKLOADS = ("paper_sweep", "fault_population", "sharded_scale")
METRICS = {"setup_s": "s", "wall_s": "s", "replicates_per_s": "1/s", "peak_rss_mib": "MiB"}
ROW_KEYS = {"commit", "nproc", "compiler", "build_type", "pairs", "seed", "note",
            "matches_reference", "workloads"}


def git(repo: Path, *args: str) -> str:
    r = subprocess.run(["git", "-C", str(repo), *args], capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else ""


def commit_of(repo: Path) -> str:
    sha = git(repo, "rev-parse", "--short=7", "HEAD") or "unknown"
    dirty = git(repo, "status", "--porcelain", "--untracked-files=no")
    return sha + ("-dirty" if dirty else "")


def run_once(repo: Path, workload: str, seed: int) -> tuple[dict, dict, bool]:
    """One perfbench run: (end-to-end values, its environment line, whether it
    matched the recorded reference with no failed check)."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed)], cwd=repo, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"perfbench_row: {repo} {workload} printed nothing\n{proc.stderr}")
    result = json.loads(lines[-1])
    env = next((json.loads(line.split(":", 1)[1]) for line in lines
                if line.startswith("environment:")), {})
    matched = any("matches the recorded reference" in line for line in lines)
    values = {name: float(result["metrics"][name]["value"]) for name in METRICS}
    return values, env, matched and result["correct"] and proc.returncode == 0


def summary(samples: list[float]) -> dict:
    if len(samples) == 1:
        q1 = med = q3 = samples[0]
    else:
        q1, med, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def measure(repos: list[Path], workloads: list[str], runs: int, seed: int, note: str) -> list:
    samples = {r: {w: {m: [] for m in METRICS} for w in workloads} for r in repos}
    clean = {r: True for r in repos}
    envs = {}
    for workload in workloads:
        for i in range(runs):
            # Alternate which checkout goes first, so neither always runs warm.
            order = repos if i % 2 == 0 else list(reversed(repos))
            for repo in order:
                values, envs[repo], ok = run_once(repo, workload, seed)
                clean[repo] &= ok
                for m, v in values.items():
                    samples[repo][workload][m].append(v)
                print(f"{repo.name} {workload} run {i + 1}/{runs}: wall_s {values['wall_s']:.3f}"
                      f"{'' if ok else '  (reference mismatch or failed check)'}",
                      file=sys.stderr)
    rows = []
    for repo in repos:
        env = envs[repo]
        rows.append({
            "commit": commit_of(repo),
            "nproc": env.get("nproc", os.cpu_count()),
            "compiler": env.get("compiler", "unknown"),
            "build_type": env.get("build_type", "unknown"),
            "pairs": runs,
            "seed": seed,
            "note": note,
            "matches_reference": clean[repo],
            "workloads": {
                w: {m: dict(summary(samples[repo][w][m]), unit=METRICS[m]) for m in METRICS}
                for w in workloads
            },
        })
    return rows


def check(path: Path) -> list[str]:
    """Schema violations of the file, empty when it is valid."""
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError) as e:
        return [f"{path}: unreadable: {e}"]
    if doc.get("schema") != SCHEMA:
        return [f"schema must be {SCHEMA!r}"]
    rows = doc.get("rows")
    if not isinstance(rows, list) or not rows:
        return ["rows must be a non-empty list"]
    errors = []
    for i, row in enumerate(rows):
        where = f"row {i}"
        missing = ROW_KEYS - set(row)
        if missing:
            errors.append(f"{where}: missing {sorted(missing)}")
            continue
        for key in ("commit", "compiler", "build_type", "note"):
            if not isinstance(row[key], str):
                errors.append(f"{where}: {key} must be a string")
        for key in ("nproc", "pairs"):
            if not isinstance(row[key], int) or row[key] < 1:
                errors.append(f"{where}: {key} must be a positive integer")
        if not isinstance(row["seed"], int):
            errors.append(f"{where}: seed must be an integer")
        if not isinstance(row["matches_reference"], bool):
            errors.append(f"{where}: matches_reference must be a boolean")
        workloads = row["workloads"]
        if not isinstance(workloads, dict) or not workloads:
            errors.append(f"{where}: workloads must be a non-empty object")
            continue
        for w, metrics in workloads.items():
            if w not in WORKLOADS:
                errors.append(f"{where}: unknown workload {w!r}")
                continue
            if not isinstance(metrics, dict) or set(metrics) != set(METRICS):
                errors.append(f"{where} {w}: metrics must be exactly {sorted(METRICS)}")
                continue
            for m, cell in metrics.items():
                nums = [cell.get(k) for k in ("q1", "median", "q3")]
                if not all(isinstance(x, (int, float)) and x >= 0 for x in nums):
                    errors.append(f"{where} {w} {m}: q1/median/q3 must be non-negative numbers")
                elif not nums[0] <= nums[1] <= nums[2]:
                    errors.append(f"{where} {w} {m}: needs q1 <= median <= q3")
                if cell.get("unit") != METRICS[m]:
                    errors.append(f"{where} {w} {m}: unit must be {METRICS[m]!r}")
    return errors


def compare(path: Path) -> list[str]:
    """The --compare report of the file's last two rows, one line each."""
    rows = json.loads(path.read_text()).get("rows", [])
    if len(rows) < 2:
        return [f"{path.name}: fewer than two rows, nothing to compare"]
    old, new = rows[-2], rows[-1]
    lines = [f"{path.name}: {old['commit']} ({old['pairs']} runs) -> "
             f"{new['commit']} ({new['pairs']} runs), medians"]
    for w in WORKLOADS:
        if w not in old["workloads"] or w not in new["workloads"]:
            continue
        for m, unit in METRICS.items():
            a, b = old["workloads"][w][m], new["workloads"][w][m]
            change = (f"{100.0 * (b['median'] - a['median']) / a['median']:+7.1f}%"
                      if a["median"] else "    n/a")
            iqr = a["q3"] - a["q1"]
            beyond = "beyond" if abs(b["median"] - a["median"]) > iqr else "within"
            lines.append(f"  {w:17s} {m:17s} {a['median']:11.4g} -> {b['median']:11.4g} {unit:4s}"
                         f" {change}  ({beyond} the earlier IQR {iqr:.3g})")
    return lines


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--repo", action="append", type=Path, default=[],
                    help="checkout to measure; repeat to interleave several")
    ap.add_argument("--runs", type=int, default=10, help="runs per workload and checkout")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workload", action="append", choices=WORKLOADS, default=[])
    ap.add_argument("--note", default="", help="free text stored with each row")
    ap.add_argument("--out", type=Path, default=DEFAULT_OUT)
    ap.add_argument("--check", action="store_true", help="validate the file and exit")
    ap.add_argument("--compare", action="store_true",
                    help="print the median change between the last two rows and exit")
    args = ap.parse_args()

    if args.compare:
        print("\n".join(compare(args.out)))
        return 0

    if args.check:
        errors = check(args.out)
        for e in errors:
            print(f"{args.out.name}: {e}", file=sys.stderr)
        if not errors:
            print(f"{args.out.name}: schema ok")
        return 1 if errors else 0

    repos = [r.resolve() for r in (args.repo or [ROOT])]
    if args.runs < 1:
        ap.error("--runs must be at least 1")
    rows = measure(repos, args.workload or list(WORKLOADS), args.runs, args.seed, args.note)
    doc = json.loads(args.out.read_text()) if args.out.is_file() else {"schema": SCHEMA, "rows": []}
    doc["rows"].extend(rows)
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    errors = check(args.out)
    for e in errors:
        print(f"{args.out.name}: {e}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
