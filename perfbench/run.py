#!/usr/bin/env python3
"""Repository benchmark: one command, three workloads, every metric by name.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
measuring program (perfbench/src, linked against the program's sources in
src/) under .bench_build/perfbench; later runs rebuild only what changed.

--trace 0 prints the end-to-end metrics, measured with no spans recorded;
--trace 1 prints the per-layer metrics of a traced run, each with the
end-to-end metric and workload it is expected to move, and writes the spans
to .bench_build/perfbench/traces/. Both end with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The run exits non-zero when a correctness check fails or the program cannot
be built. Other entry points:

    python3 perfbench/run.py --workload all ...      every workload in turn
    python3 perfbench/run.py --selftest              reduced-size self-tests
    python3 perfbench/run.py --write-benchmark-json  regenerate BENCHMARK.json
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.dont_write_bytecode = True  # keep the source tree free of caches
sys.path.insert(0, str(HERE))

import catalogue  # noqa: E402


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return (ROOT / base / "perfbench").resolve()


def build():
    """Configure (once) and build the measuring program; returns its path.
    Build output goes to stderr, keeping stdout for the results."""
    if not (ROOT / "src" / "harness" / "scenario.hpp").is_file():
        raise SystemExit("perfbench: program sources (src/) not found next to perfbench/")
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    subprocess.run(["cmake", "--build", str(out), "-j", jobs], check=True, stdout=sys.stderr)
    return out / "perfbench"


def commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                       text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def reference_fingerprint(workload, seed):
    path = HERE / "reference.json"
    if not path.is_file():
        return None
    ref = json.loads(path.read_text())
    return ref.get("fingerprints", {}).get(workload, {}).get(str(seed))


def measure(workload, seed, seconds, trace, scale="full"):
    """Run the measuring program once; returns (its last JSON line, exit code)."""
    exe = build()
    cmd = [str(exe), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--scale", scale]
    if trace:
        traces = build_dir() / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{workload}-{scale}-seed{seed}.json")]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    if not lines:
        raise SystemExit(f"perfbench: measuring program printed nothing (exit {proc.returncode})")
    return json.loads(lines[-1]), proc.returncode


def report(raw, code, trace):
    """Print the metric table and the result line; return the exit code."""
    names = ([(n, u, f"bound {b:.0%}, {better} is better") for n, u, better, b in
              catalogue.END_TO_END] if not trace else catalogue.PER_LAYER)
    values = raw["metrics"]
    missing = [n for n, *_ in names if n not in values]
    if missing:
        raise SystemExit(f"perfbench: metrics missing from the measuring program: {missing}")
    env = dict(raw["env"], commit=commit())
    print(f"workload {raw['workload']}  seed {raw['seed']}  passes {raw['passes']}  "
          f"setup calls {raw['setups']}  replicates/pass {raw['replicates']}")
    print("environment: " + json.dumps(env, sort_keys=True))
    ref = reference_fingerprint(raw["workload"], raw["seed"])
    verdict = ("no recorded reference for this seed" if ref is None else
               "matches the recorded reference" if ref == raw["fingerprint"] else
               "DIFFERS from the recorded reference: the program's answers changed")
    print(f"result fingerprint {raw['fingerprint']} ({verdict})")
    width = max(len(n) for n, *_ in names)
    print(f"{'metric':<{width}}  {'value':>16}  unit    " + ("moves" if trace else "bound"))
    for name, unit, note in names:
        print(f"{name:<{width}}  {values[name]:>16.6g}  {unit:<6}  {note}")
    if not trace:
        # End-to-end figures that are not bounded metrics: a model output and
        # the correctness gate (both also per-layer metrics of the traced run).
        for name, unit in (("conn_fail_share", "ratio"), ("check_failures", "count")):
            print(f"{name:<{width}}  {values[name]:>16.6g}  {unit:<6}  (not bounded)")
    correct = code == 0 and raw["failed"] == 0
    result = {
        "correct": correct,
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": {n: {"value": values[n], "unit": u} for n, u, *_ in names},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def write_benchmark_json():
    path = ROOT / "BENCHMARK.json"
    path.write_text(json.dumps(catalogue.benchmark_json(), indent=2) + "\n")
    print(f"wrote {path}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=[n for n, _ in catalogue.WORKLOADS] + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=catalogue.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--scale", choices=["full", "small"], default="full",
                    help="small: reduced inputs, for the self-tests")
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--write-benchmark-json", action="store_true")
    args = ap.parse_args()

    if args.write_benchmark_json:
        write_benchmark_json()
        return 0
    if args.selftest:
        import selftest
        return selftest.main()
    if args.workload is None:
        ap.error("--workload is required")
    workloads = ([n for n, _ in catalogue.WORKLOADS] if args.workload == "all" else
                 [args.workload])
    status = 0
    for workload in workloads:  # one process each, so peak RSS is the workload's own
        raw, code = measure(workload, args.seed, args.seconds, args.trace == 1, args.scale)
        status |= report(raw, code, args.trace == 1)
    return status


if __name__ == "__main__":
    sys.exit(main())
