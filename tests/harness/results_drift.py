#!/usr/bin/env python3
"""Results drift gate: the committed ``results/*.csv`` must match a fresh run.

Every bench that records a paper table or figure writes ``<name>.csv`` (and
sometimes ``<name>_summary.csv``) into ``P2PANON_CSV_DIR``. This gate runs
each of them with their default arguments into a temporary directory and
byte-compares every CSV it produces with the committed copy, so a change
that moves a paper number fails here instead of going unnoticed.

Benches are found from the committed CSVs: ``results/<name>[_summary].csv``
names the bench binary ``<bench-dir>/<name>``. A bench that writes a CSV
with no committed counterpart fails the gate too (record it first).

Regenerate one bench's CSVs after an intended change with
``P2PANON_CSV_DIR=results ./build/bench/<name>``.

Registered as the tier-1 ``results.drift`` ctest (bench/CMakeLists.txt).
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path


def bench_names(results: Path, bench_dir: Path) -> list[str]:
    names = set()
    for csv in results.glob("*.csv"):
        stem = csv.stem
        if not (bench_dir / stem).exists() and stem.endswith("_summary"):
            stem = stem[: -len("_summary")]
        names.add(stem)
    return sorted(names)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bench-dir", required=True, type=Path,
                        help="directory holding the built bench binaries")
    parser.add_argument("--results", required=True, type=Path,
                        help="the committed results/ directory")
    parser.add_argument("--timeout", type=float, default=600.0,
                        help="per-bench timeout in seconds")
    args = parser.parse_args()
    args.bench_dir = args.bench_dir.resolve()

    env ={k: v for k, v in os.environ.items() if not k.startswith("P2PANON_")}
    failures = []
    with tempfile.TemporaryDirectory(prefix="results_drift_") as tmp:
        out = Path(tmp)
        env["P2PANON_CSV_DIR"] = str(out)
        for name in bench_names(args.results, args.bench_dir):
            binary = args.bench_dir / name
            if not binary.exists():
                failures.append(f"{name}: no bench binary at {binary}")
                continue
            start = time.monotonic()
            proc = subprocess.run([str(binary)], env=env, cwd=out, capture_output=True,
                                  text=True, timeout=args.timeout, check=False)
            print(f"{name}: exit {proc.returncode} in {time.monotonic() - start:.1f} s")
            if proc.returncode != 0:
                failures.append(f"{name}: exited with {proc.returncode}\n{proc.stderr}")

        fresh = {p.name for p in out.glob("*.csv")}
        committed = {p.name for p in args.results.glob("*.csv")}
        for name in sorted(committed - fresh):
            failures.append(f"{name}: committed but no bench wrote it")
        for name in sorted(fresh - committed):
            failures.append(f"{name}: written but not committed under {args.results}")
        for name in sorted(fresh & committed):
            if (out / name).read_bytes() != (args.results / name).read_bytes():
                failures.append(f"{name}: differs from the committed copy")

    if failures:
        for f in failures:
            print(f"FAIL: {f}")
        return 1
    print(f"PASS: {len(committed)} CSVs byte-identical to {args.results}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
