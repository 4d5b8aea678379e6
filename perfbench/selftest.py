#!/usr/bin/env python3
"""Reduced-size self-test of the benchmark: the same code path in seconds.

    python3 perfbench/selftest.py

Run from the root of a checkout. It checks:
  - BENCHMARK.json against its format rules (keys, names, units, bounds);
  - every workload at a small scale with --trace 0 and --trace 1: the last
    stdout line is the result object, with exactly the metrics BENCHMARK.json
    names, in their units, as finite numbers;
  - the correctness gate: two perfbench_driver reports from different seeds
    must be rejected, with both fingerprints logged;
  - the host-speed probe ends by itself and writes well-formed readings;
  - a directory holding only BENCHMARK.json and perfbench/ (no sources)
    must make the benchmark exit non-zero without printing a result.
Exits 0 when every check passes.
"""

import contextlib
import io
import json
import math
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import run as bench  # noqa: E402  (perfbench/run.py)

RUN = ["python3", "perfbench/run.py"]
SCALE = "0.03"
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def check_spec(spec):
    check(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                        "per_layer"}, "BENCHMARK.json has exactly the format's keys")
    check(1 <= len(spec["paths"]) <= 16 and all(PATH.match(p) and ".." not in p.split("/")
                                                 for p in spec["paths"]), "paths are valid")
    check(isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60,
          "run_seconds is a whole number in [1, 60]")
    check(len(spec["command"]) <= 32 and all(len(c) <= 200 and not c.startswith("/")
                                             for c in spec["command"]), "command is valid")
    check(2 <= len(spec["workloads"]) <= 8 and all(
        set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
        for w in spec["workloads"]), "2 to 8 workloads, each with a one-line why")
    names = [m["name"] for group in ("workloads", "end_to_end", "per_layer")
             for m in spec[group]]
    check(all(NAME.match(n) for n in names) and len(names) == len(set(names)),
          "names are valid and unique")
    e2e = spec["end_to_end"]
    check(1 <= len(e2e) <= 16 and all(
        set(m) == {"name", "unit", "better", "bound"} and UNIT.match(m["unit"])
        and m["better"] in ("higher", "lower") and 0 < m["bound"] <= 0.25 for m in e2e),
        "end_to_end metrics are well formed with bounds in (0, 0.25]")
    setup = [m for m in e2e if m["name"] == "setup_s"]
    check(len(setup) == 1 and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
          and setup[0]["bound"] == max(m["bound"] for m in e2e),
          "setup_s is lower-better in s with the largest bound")
    layers = spec["per_layer"]
    check(1 <= len(layers) <= 128 and all(
        set(m) == {"name", "unit", "better"} and UNIT.match(m["unit"])
        and m["better"] in ("higher", "lower") for m in layers),
        "per_layer metrics are well formed")
    check(len(json.dumps(spec)) <= 64 * 1024, "BENCHMARK.json is at most 64 KiB")


def run(args, cwd=ROOT):
    t0 = time.monotonic()
    proc = subprocess.run(RUN + args, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)
    return proc, time.monotonic() - t0


def result_line(stdout):
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        doc = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    return doc if isinstance(doc, dict) else None


def check_result(label, doc, expected):
    check(doc is not None and set(doc) == {"correct", "attempted", "failed", "metrics"},
          f"{label}: last line is the result object")
    if doc is None:
        return
    check(doc["correct"] is True and isinstance(doc["attempted"], int)
          and doc["attempted"] >= 1 and doc["failed"] == 0,
          f"{label}: correct, attempted >= 1, failed == 0")
    metrics = doc["metrics"]
    check(set(metrics) == set(expected), f"{label}: exactly the BENCHMARK.json metrics")
    check(all(set(m) == {"value", "unit"} and isinstance(m["value"], (int, float))
              and math.isfinite(m["value"]) and m["unit"] == expected.get(name)
              for name, m in metrics.items()), f"{label}: finite values in the declared units")


def check_gate(workload):
    """Reports from two seeds differ in trajectory; the gate must reject them."""
    args = bench.parse_args(["--workload", workload, "--scale", SCALE])
    workdir = ROOT / ".bench_build" / "selftest-gate"
    workdir.mkdir(parents=True, exist_ok=True)
    err = io.StringIO()
    rejected = False
    try:
        deadline = time.monotonic() + bench.RUN_DEADLINE_S
        reps = [bench.run_rep(args, seed, "timed", workdir, deadline) for seed in (7, 8)]
        with contextlib.redirect_stderr(err):
            bench.gate(reps)
    except bench.BenchError:
        rejected = True
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    check(rejected and "fingerprints differ" in err.getvalue(),
          "gate: reports from two seeds are rejected with both fingerprints logged")


def check_probe():
    """The probe must end by itself after its seconds, with readings run.py parses."""
    workdir = ROOT / ".bench_build" / "selftest-probe"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        with open(workdir / "probe.txt", "w") as out:
            proc = subprocess.run([str(bench.DRIVER), "--host-probe", "0.5"], stdout=out,
                                  timeout=30)
        bursts = bench.read_probe(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    check(proc.returncode == 0 and len(bursts) >= 2
          and all(start < end and ns > 0 for start, end, ns in bursts),
          f"host probe: ends by itself with {len(bursts)} well-formed readings")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_spec(spec)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}

    for w in spec["workloads"]:
        for trace, expected in (("0", e2e), ("1", layers)):
            label = f"{w['name']} --trace {trace}"
            proc, secs = run(["--workload", w["name"], "--seed", "7", "--seconds", "1",
                              "--trace", trace, "--scale", SCALE])
            check(proc.returncode == 0, f"{label}: exits 0 ({secs:.1f} s)")
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr[-2000:])
            check_result(label, result_line(proc.stdout), expected)
            if trace == "0":
                # End-to-end metrics must never read 0.
                doc = result_line(proc.stdout) or {"metrics": {}}
                check(all(m["value"] > 0 for m in doc["metrics"].values()),
                      f"{label}: every end-to-end metric is non-zero")

    check_gate(spec["workloads"][0]["name"])
    check_probe()

    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for p in spec["paths"]:
        shutil.copytree(ROOT / p, bare / p)
    try:
        proc, secs = run(["--workload", spec["workloads"][0]["name"], "--seed", "7",
                          "--seconds", "1", "--trace", "0"], cwd=bare)
        check(proc.returncode != 0 and result_line(proc.stdout) is None and secs < 180,
              f"bare directory: exits {proc.returncode} without a result ({secs:.1f} s)")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
