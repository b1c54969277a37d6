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

With two or more checkouts, every row after the first also stores, per
workload and metric, the ratio of each pair (that checkout's run over the
first checkout's run of the same pair) under "paired", with the first
checkout's commit as its baseline. Rows without it (older rows, or a single
checkout) stay valid.

--compare prints, per workload and end-to-end metric, the median of the
last two rows (the earlier one first), the relative change, and whether the
change exceeds the earlier row's interquartile range. When the last row has
paired ratios, it also prints their median with a distribution-free
interval from order statistics, pooling every row of the same commit
against the same baseline at the same seed: the k-th smallest and k-th
largest ratio, with the largest k whose coverage of the median is at least
95 % (k = 2 for 10 pairs: 97.9 %). A claim of "at least X % lower" is
established when the interval's upper end is at most 1 - X/100, and "at
least X % higher" when its lower end is at least 1 + X/100. It only prints:
the exit status is 0 whatever the numbers say.
"""

from __future__ import annotations

import argparse
import json
import math
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
MIN_COVERAGE = 0.95


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
    baseline = repos[0]
    for repo in repos:
        env = envs[repo]
        row = {
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
        }
        if repo != baseline:
            row["paired"] = {
                "baseline": commit_of(baseline),
                "ratios": {w: {m: [b / a for a, b in zip(samples[baseline][w][m],
                                                         samples[repo][w][m])]
                               for m in METRICS} for w in workloads},
            }
        rows.append(row)
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
        if "paired" in row:
            errors.extend(check_paired(row, where))
    return errors


def check_paired(row: dict, where: str) -> list[str]:
    """Violations of a row's optional "paired" field."""
    paired = row["paired"]
    if not isinstance(paired, dict) or set(paired) != {"baseline", "ratios"}:
        return [f"{where}: paired must be an object with exactly baseline and ratios"]
    errors = []
    if not isinstance(paired["baseline"], str):
        errors.append(f"{where}: paired.baseline must be a string")
    ratios = paired["ratios"]
    if not isinstance(ratios, dict) or set(ratios) != set(row["workloads"]):
        return errors + [f"{where}: paired.ratios must cover exactly the row's workloads"]
    for w, metrics in ratios.items():
        if not isinstance(metrics, dict) or set(metrics) != set(METRICS):
            errors.append(f"{where} {w}: paired ratios must be exactly {sorted(METRICS)}")
            continue
        for m, values in metrics.items():
            if (not isinstance(values, list) or len(values) != row["pairs"] or
                    not all(isinstance(x, (int, float)) and x > 0 for x in values)):
                errors.append(f"{where} {w} {m}: paired ratios must be {row['pairs']} "
                              "positive numbers, one per pair")
    return errors


def median_interval(ratios: list[float]) -> tuple[float, float, float, float]:
    """(median, low, high, coverage): the order-statistic interval for the
    median, [k-th smallest, k-th largest] with the largest k whose coverage
    1 - 2 P(Binomial(n, 1/2) < k) is at least MIN_COVERAGE (k = 1, the full
    range, when even that falls short)."""
    xs = sorted(ratios)
    n = len(xs)

    def coverage(k: int) -> float:
        return 1.0 - 2.0 * sum(math.comb(n, i) for i in range(k)) / 2.0 ** n

    k = 1
    while k + 1 <= (n + 1) // 2 and coverage(k + 1) >= MIN_COVERAGE:
        k += 1
    return statistics.median(xs), xs[k - 1], xs[n - k], coverage(k)


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
    if "paired" not in new:
        return lines
    # Pool every batch of the same commit against the same baseline and seed.
    baseline = new["paired"]["baseline"]
    batches = [r for r in rows if r["commit"] == new["commit"] and r["seed"] == new["seed"]
               and r.get("paired", {}).get("baseline") == baseline]
    lines.append(f"{new['commit']} over {baseline}, seed {new['seed']}: paired ratios from "
                 f"{len(batches)} batch(es), median [interval] (coverage of the median)")
    for w in WORKLOADS:
        pooled = {m: [x for r in batches for x in r["paired"]["ratios"].get(w, {}).get(m, [])]
                  for m in METRICS}
        for m, ratios in pooled.items():
            if not ratios:
                continue
            med, low, high, cover = median_interval(ratios)
            lines.append(f"  {w:17s} {m:17s} {med:7.4f} [{low:.4f}, {high:.4f}] "
                         f"({100.0 * cover:.1f} %, {len(ratios)} pairs)")
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
