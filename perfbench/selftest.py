#!/usr/bin/env python3
"""Self-tests of the benchmark, at reduced input sizes.

    python3 perfbench/run.py --selftest      (or python3 perfbench/selftest.py)

Checks that:
  * BENCHMARK.json is the document perfbench/catalogue.py defines, and
    keeps to the benchmark file's limits;
  * every workload, untraced and traced, runs clean and emits every named
    metric exactly once, each with its catalogue unit, and no end-to-end
    metric reads 0;
  * the traced run's spans nest: each child lies inside its parent, and
    every span's self time is >= 0; together the workloads' spans cover
    every layer;
  * a held-out seed, used nowhere else, runs clean;
  * in a directory holding only BENCHMARK.json and perfbench/, the
    benchmark fails fast without printing a result.
"""

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.dont_write_bytecode = True  # keep the source tree free of caches
sys.path.insert(0, str(HERE))

import catalogue  # noqa: E402
import run  # noqa: E402

LAYERS = {"sim", "net", "core", "payment", "transport", "fault", "parallel", "harness"}
HELD_OUT_SEED = 90001
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class Failures(list):
    def expect(self, ok, what):
        if not ok:
            self.append(what)
            print(f"FAIL: {what}", flush=True)


def check_benchmark_json(fail):
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    fail.expect(doc == catalogue.benchmark_json(),
                "BENCHMARK.json differs from catalogue.py (run.py --write-benchmark-json)")
    fail.expect(2 <= len(doc["workloads"]) <= 8, "2 to 8 workloads")
    fail.expect(1 <= len(doc["per_layer"]) <= 128, "1 to 128 per-layer metrics")
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in doc[key]]
    fail.expect(len(names) == len(set(names)), "names are used once")
    for name in names:
        fail.expect(bool(NAME.match(name)), f"bad name {name!r}")
    for m in doc["end_to_end"] + doc["per_layer"]:
        fail.expect(bool(UNIT.match(m["unit"])), f"bad unit {m['unit']!r}")
    for m in doc["end_to_end"]:
        fail.expect(0 < m["bound"] <= 0.25, f"{m['name']}: bound out of (0, 0.25]")
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    fail.expect(bool(setup) and setup[0]["unit"] == "s" and setup[0]["better"] == "lower",
                "setup_s is an end-to-end metric in s, lower is better")
    fail.expect(bool(setup) and setup[0]["bound"] == max(m["bound"] for m in doc["end_to_end"]),
                "setup_s has the largest bound")
    for w in doc["workloads"]:
        fail.expect(len(w["why"]) <= 200 and "\n" not in w["why"], f"{w['name']}: why too long")
    fail.expect(len(json.dumps(doc)) <= 64 * 1024, "BENCHMARK.json within 64 KiB")


def run_benchmark(workload, seed, trace, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
                           "--scale", "small"], capture_output=True, text=True, cwd=cwd,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stdout + proc.stderr


def check_result(fail, workload, trace, code, result, output):
    label = f"{workload} trace={trace}"
    fail.expect(code == 0, f"{label}: exit {code}\n{output}")
    if result is None:
        fail.expect(False, f"{label}: no result line")
        return
    fail.expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                f"{label}: result keys {sorted(result)}")
    fail.expect(result["correct"] is True and result["failed"] == 0, f"{label}: not correct")
    fail.expect(result["attempted"] >= 1, f"{label}: nothing attempted")
    expected = ({n: u for n, u, *_ in catalogue.END_TO_END} if not trace else
                {n: u for n, u, _ in catalogue.PER_LAYER})
    got = result["metrics"]
    fail.expect(set(got) == set(expected),
                f"{label}: metrics differ: missing {set(expected) - set(got)}, "
                f"extra {set(got) - set(expected)}")
    for name, unit in expected.items():
        if name in got:
            fail.expect(got[name]["unit"] == unit, f"{label}: {name} unit {got[name]['unit']}")
            fail.expect(isinstance(got[name]["value"], (int, float)), f"{label}: {name} value")
            if not trace:
                fail.expect(got[name]["value"] > 0, f"{label}: end-to-end {name} reads 0")


def check_spans(fail, workload, seed):
    path = run.build_dir() / "traces" / f"{workload}-small-seed{seed}.json"
    spans = json.loads(path.read_text())["spans"]
    fail.expect(len(spans) > 0, f"{workload}: no spans")
    for s in spans:
        fail.expect(s["end_ns"] >= s["start_ns"], f"{workload}: span {s['name']} ends early")
        fail.expect(s["self_ns"] >= 0, f"{workload}: span {s['name']} self time < 0")
        fail.expect(s["name"].split(".")[0] in LAYERS, f"{workload}: span {s['name']} layer")
        if s["parent"] >= 0:
            p = spans[s["parent"]]
            fail.expect(p["start_ns"] <= s["start_ns"] and s["end_ns"] <= p["end_ns"],
                        f"{workload}: span {s['name']} outside its parent {p['name']}")
    return {s["name"].split(".")[0] for s in spans}


def check_bare_directory(fail):
    with tempfile.TemporaryDirectory(dir=run.build_dir()) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "paper_sweep",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              capture_output=True, text=True, cwd=tmp, timeout=170)
        fail.expect(proc.returncode != 0, "bare directory: benchmark exited 0")
        fail.expect('"correct"' not in proc.stdout, "bare directory: printed a result")


def main():
    fail = Failures()
    check_benchmark_json(fail)
    run.build()
    layers = set()
    for workload, _ in catalogue.WORKLOADS:
        for trace in (0, 1):
            print(f"self-test: {workload} trace={trace}", flush=True)
            code, result, output = run_benchmark(workload, 1, trace)
            check_result(fail, workload, trace, code, result, output)
            if trace:
                layers |= check_spans(fail, workload, 1)
        print(f"self-test: {workload} held-out seed {HELD_OUT_SEED}", flush=True)
        code, result, output = run_benchmark(workload, HELD_OUT_SEED, 0)
        check_result(fail, workload, 0, code, result, output)
    fail.expect(layers == LAYERS, f"spans cover layers {sorted(layers)}, want {sorted(LAYERS)}")
    print("self-test: bare directory", flush=True)
    check_bare_directory(fail)
    print(f"self-test: {'FAILED (' + str(len(fail)) + ')' if fail else 'ok'}")
    return 1 if fail else 0


if __name__ == "__main__":
    sys.exit(main())
