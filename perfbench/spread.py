#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10] [--record]

Runs the benchmark once per (workload, seed), untraced, and prints for every
end-to-end metric its median over the seeds and the distance between the
first and third quartiles as a share of the median, next to the metric's
bound. A metric is steady when that share is below a third of its bound
(setup_s excepted: only its median is compared between runs). --record
writes perfbench/reference.json: the environment, each seed's result
fingerprint, and the medians and spreads measured.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.dont_write_bytecode = True  # keep the source tree free of caches
sys.path.insert(0, str(HERE))

import catalogue  # noqa: E402


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--trace", "0"],
                          capture_output=True, text=True, cwd=HERE.parent)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    env = fingerprint = None
    for line in lines:
        if line.startswith("environment: "):
            env = json.loads(line[len("environment: "):])
        elif line.startswith("result fingerprint "):
            fingerprint = line.split()[2]
    result = json.loads(lines[-1])
    return result, env, fingerprint


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", default=",".join(n for n, _ in catalogue.WORKLOADS))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()

    seeds = parse_seeds(args.seeds)
    path = HERE / "reference.json"
    reference = (json.loads(path.read_text()) if args.record and path.is_file() else
                 {"environment": None, "seeds": seeds, "fingerprints": {}, "end_to_end": {}})
    reference["seeds"] = seeds
    steady = True
    for workload in args.workloads.split(","):
        values = {n: [] for n, *_ in catalogue.END_TO_END}
        prints = {}
        for seed in seeds:
            result, env, fingerprint = run_once(workload, seed)
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: correctness checks failed")
            reference["environment"] = env
            prints[str(seed)] = fingerprint
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " +
                  ", ".join(f"{n}={v[-1]:.4g}" for n, v in values.items()), flush=True)
        reference["fingerprints"][workload] = prints
        reference["end_to_end"][workload] = {}
        for name, unit, _, bound in catalogue.END_TO_END:
            q1, med, q3 = statistics.quantiles(values[name], n=4)
            share = (q3 - q1) / med
            ok = name == "setup_s" or share < bound / 3
            steady = steady and ok
            reference["end_to_end"][workload][name] = {
                "median": med, "unit": unit, "iqr_share": round(share, 4), "bound": bound}
            print(f"  {name:<18} median {med:12.5g} {unit:<4} iqr/median {share:7.2%}  "
                  f"bound {bound:.0%}  {'ok' if ok else 'NOT STEADY'}", flush=True)
    if args.record:
        path.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
