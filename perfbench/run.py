#!/usr/bin/env python3
"""SMIless simulator benchmark: one command, three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run builds perfbench/ (which
compiles src/) into .bench_build/; later runs only re-check the build.

--trace 0 runs timed repetitions of the workload for about S seconds, each
in a fresh process (two at a time for the single-threaded fleet), beside a
host-speed probe, and reports the end-to-end metrics as medians over the
repetitions; requests_per_s is scaled to a reference host speed by the
probe's reading during each repetition. --trace 1 runs a few timed
repetitions one at a time, then one traced pass with the self-profiler, the
policy timing decorator and the allocation counter attached, and reports the
per-layer metrics. Every repetition must reproduce the same simulated
trajectory (the correctness gate); on a mismatch both fingerprints are
printed and the run exits 1 without a result.

The last line of stdout is one JSON object:
    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
where "attempted" counts the serving repetitions run and "failed" those
that broke a check (a run that breaks one prints no result at all).

See perfbench/README.md for the workloads and what each metric measures.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = ROOT / "BENCHMARK.json"
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
DRIVER = BUILD_DIR / "perfbench_driver"

DEFAULT_SEED = 42
WORKLOADS = ("fleet_warm", "fleet_prewarm_faults", "paper_observed")

# Hard cap on one invocation after the build; a run must end within 180 s.
RUN_DEADLINE_S = 170.0
MIN_TIMED_REPS = 3
MAX_TIMED_REPS = 40
# Timed repetitions of a workload run this many at a time (default 1), each
# in its own process. The single-threaded fleet runs two, which doubles its
# samples per run; two busy threads, like fleet_warm's two lane threads, leave
# half of a 4-vCPU host free. Never more than half of the host's CPUs.
REPS_AT_ONCE = {"fleet_prewarm_faults": 2}
# With --trace 1, the share of --seconds given to timed repetitions before
# the traced pass (which runs once, however long it takes).
TRACED_TIMED_SHARE = 0.4
MIN_TRACED_TIMED_REPS = 2

# requests_per_s is reported at a host speed where the probe's loads take
# this long: a repetition's req/s is scaled by its probe reading ÷ this. It is
# about the median reading on the 4-vCPU guest the bounds were set on, so
# there the scaled figure is near the raw one (README: Host-speed adjustment).
PROBE_REF_NS = 160.0

# Profiler sites timed on the thread that drives the lanes, not inside them.
COORDINATOR_SITES = ("cell/run", "shard/barrier", "cell/finalize")


class BenchError(Exception):
    """A failure that ends the run without a result."""


def log(msg=""):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not (ROOT / "src").is_dir():
        raise BenchError(f"no simulator sources under {ROOT / 'src'}: run from a checkout root")
    cmake = shutil.which("cmake")
    if cmake is None:
        raise BenchError("cmake not found")
    # Keep the compiler's temporary files inside the checkout too.
    tmp = ROOT / ".bench_build" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        configure = [cmake, "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr, env=env).returncode != 0:
            raise BenchError("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if subprocess.run([cmake, "--build", str(BUILD_DIR), "-j", jobs, "--target",
                       "perfbench_driver"], stdout=sys.stderr, env=env).returncode != 0:
        raise BenchError("build failed")


def start_rep(args, seed, pass_name, workdir):
    """Start one repetition; its report goes to a file in `workdir`."""
    workdir.mkdir(parents=True, exist_ok=True)
    cmd = [str(DRIVER), "--workload", args.workload, "--seed", str(seed), "--pass", pass_name,
           "--scale", repr(args.scale), "--workdir", str(workdir)]
    with open(workdir / "report.json", "w") as out:
        return subprocess.Popen(cmd, stdout=out, text=True), cmd


def read_report(proc, cmd, workdir):
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd)} exited {proc.returncode}")
    lines = (workdir / "report.json").read_text().strip().splitlines()
    if not lines:
        raise BenchError(f"{' '.join(cmd)} printed no report")
    return json.loads(lines[-1])


def stop(procs):
    for proc in procs:
        if proc.poll() is None:
            proc.kill()
        proc.wait()


def run_rep(args, seed, pass_name, workdir, deadline):
    """One repetition on its own, to the end."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before the repetition started")
    proc, cmd = start_rep(args, seed, pass_name, workdir)
    try:
        proc.wait(timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"repetition exceeded the {RUN_DEADLINE_S:.0f} s run deadline")
    finally:
        stop([proc])
    return read_report(proc, cmd, workdir)


def start_probe(workdir):
    """The host-speed probe, in its own process beside the timed repetitions;
    it ends by itself at the run deadline, and at once if this process ends."""
    with open(workdir / "probe.txt", "w") as out:
        return subprocess.Popen([str(DRIVER), "--host-probe", repr(RUN_DEADLINE_S)], stdout=out)


def read_probe(workdir):
    """The probe's bursts as (start_ns, end_ns, ns_per_load); a line the stop
    cut short is dropped."""
    text = (workdir / "probe.txt").read_text()
    lines = text.splitlines() if text.endswith("\n") else text.splitlines()[:-1]
    return [(int(a), int(b), float(ns)) for a, b, ns in (line.split() for line in lines)]


def probe_ns(bursts, rep):
    """The probe's mean load latency over the bursts inside the repetition's
    serving window; the nearest burst when the window holds none."""
    t0 = rep["serve_start_ns"]
    t1 = t0 + rep["serve_s"] * 1e9
    inside = [ns for start, end, ns in bursts if start >= t0 and end <= t1]
    if inside:
        return statistics.mean(inside)
    if not bursts:
        raise BenchError("the host probe wrote no reading")
    return min(bursts, key=lambda b: abs(b[0] + b[1] - t0 - t1))[2]


def gate(reps):
    """Every repetition and pass must reproduce the first one's trajectory.
    (perfbench_driver checks conservation itself and exits 1 when it breaks.)"""
    ref = reps[0]
    for i, rep in enumerate(reps[1:], start=1):
        if rep["fingerprint"] != ref["fingerprint"] or rep["books"] != ref["books"]:
            log("correctness gate: trajectory fingerprints differ")
            log(f"  repetition 0 ({ref['pass']}): {json.dumps(ref['fingerprint'], sort_keys=True)}")
            log(f"  repetition {i} ({rep['pass']}): {json.dumps(rep['fingerprint'], sort_keys=True)}")
            log(f"  books 0: {json.dumps(ref['books'], sort_keys=True)}")
            log(f"  books {i}: {json.dumps(rep['books'], sort_keys=True)}")
            raise BenchError("correctness gate failed")


def timed_reps(args, workdir, deadline, budget_s, min_reps, at_once=1):
    """Fresh-process repetitions, `at_once` at a time, until the budget would
    be overrun: a slot starts another one only while a repetition of the mean
    length so far still fits."""
    reps = []
    start = time.monotonic()
    running = {}  # slot -> (process, command, start time)
    walls = []

    def launch(slot):
        proc, cmd = start_rep(args, args.seed, "timed", workdir / f"slot{slot}")
        running[slot] = (proc, cmd, time.monotonic())

    try:
        for slot in range(at_once):
            launch(slot)
        while running:
            if time.monotonic() > deadline:
                raise BenchError(f"repetition exceeded the {RUN_DEADLINE_S:.0f} s run deadline")
            for slot, (proc, cmd, t0) in list(running.items()):
                if proc.poll() is None:
                    continue
                del running[slot]
                walls.append(time.monotonic() - t0)
                reps.append(read_report(proc, cmd, workdir / f"slot{slot}"))
                started = len(reps) + len(running)
                fits = time.monotonic() - start + statistics.mean(walls) <= budget_s
                if started < MAX_TIMED_REPS and (started < min_reps or fits):
                    launch(slot)
            time.sleep(0.005)
    finally:
        stop([proc for proc, _, _ in running.values()])
    return reps


def reps_at_once(workload):
    return max(1, min(REPS_AT_ONCE.get(workload, 1), (os.cpu_count() or 1) // 2))


def end_to_end(reps):
    b = reps[0]["books"]
    sub = b["submitted"]
    return {
        "requests_per_s": statistics.median(sub / r["serve_s"] * r["probe_ns"] / PROBE_REF_NS
                                            for r in reps),
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "slo_attainment_pct": 100.0 * (sub - b["violations"]) / sub,
        "completed_pct": 100.0 * b["completed"] / sub,
        "cost_usd": b["cost_usd"],
        "latency_p50_s": b["latency_p50_s"],
        "latency_p99_s": b["latency_p99_s"],
    }


def print_end_to_end(args, reps, metrics, units):
    b = reps[0]["books"]
    serve = [r["serve_s"] for r in reps]
    setup = [r["setup_s"] for r in reps]
    print(f"workload {args.workload}  seed {args.seed}  {len(reps)} timed repetitions "
          f"(fresh process each, {reps_at_once(args.workload)} at a time)")
    print(f"  requests submitted {b['submitted']}  completed {b['completed']}  "
          f"failed {b['failed']}  in flight at horizon {b['in_flight']}  "
          f"SLA misses {b['violations']}")
    probe = [r["probe_ns"] for r in reps]
    print(f"  serving wall s: median {statistics.median(serve):.4f}  min {min(serve):.4f}  "
          f"max {max(serve):.4f};  set-up s: min {min(setup):.4f}  max {max(setup):.4f}")
    print(f"  unscaled req/s: median {statistics.median(b['submitted'] / t for t in serve):.1f};"
          f"  host probe ns/load: median {statistics.median(probe):.2f}  min {min(probe):.2f}"
          f"  max {max(probe):.2f} (requests_per_s is scaled to {PROBE_REF_NS:.0f})")
    for name, value in metrics.items():
        note = f"  ({b['latency_samples']} samples)" if name.startswith("latency_") else ""
        print(f"  {name:<20} {value:>16.6f} {units[name]}{note}")


def host_metadata(reps, load_before):
    cache = {}
    cache_file = BUILD_DIR / "CMakeCache.txt"
    if cache_file.exists():
        for line in cache_file.read_text().splitlines():
            key, sep, value = line.partition("=")
            if sep and ":" in key:
                cache[key.split(":")[0]] = value
    build_type = cache.get("CMAKE_BUILD_TYPE", "") or "RelWithDebInfo"
    flags = " ".join(filter(None, [cache.get("CMAKE_CXX_FLAGS", ""),
                                   cache.get(f"CMAKE_CXX_FLAGS_{build_type.upper()}", "")]))
    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                text=True).stdout.strip() or "unknown (not a git checkout)"
    except OSError:
        commit = "unknown (git not found)"
    return {
        "nproc": os.cpu_count(),
        "compiler": f"{cache.get('CMAKE_CXX_COMPILER', '?')} ({reps[0]['compiler']})",
        "flags": flags,
        "build_type": build_type,
        "git_commit": commit,
        "loadavg_before": " ".join(f"{x:.2f}" for x in load_before),
        "loadavg_after": " ".join(f"{x:.2f}" for x in os.getloadavg()),
    }


def per_layer(timed, traced, units):
    """The traced pass's measurements, plus the two ratios that need the timed
    repetitions; a metric the workload does not exercise reads 0 with 0 samples."""
    layers = dict(traced["layers"])
    # The self-profiler's own cost: traced serving wall over the timed median.
    base = statistics.median(r["serve_s"] for r in timed)
    layers["prof.overhead_pct"] = {"value": 100.0 * (traced["serve_s"] / base - 1.0),
                                   "unit": "%", "samples": len(timed)}
    # Collectors attached (timed runs) over the same cells detached.
    if "detached_run_s" in traced:
        attached = statistics.median(r["run_s"] for r in timed)
        layers["obs.online_overhead_x"] = {"value": attached / traced["detached_run_s"],
                                           "unit": "x", "samples": len(timed)}
    for name, m in layers.items():
        if units.get(name) != m["unit"]:
            raise BenchError(f"per-layer metric {name} ({m['unit']}) is not in {SPEC.name}")
    return {name: layers.get(name, {"value": 0.0, "unit": unit, "samples": 0})
            for name, unit in units.items()}


def print_per_layer(args, traced, layers, host):
    print(f"workload {args.workload}  seed {args.seed}  traced pass, per-layer metrics "
          f"(samples = calls or items behind each value; 0 = not on this workload)")
    for name in sorted(layers):
        m = layers[name]
        print(f"  {name:<34} {m['value']:>16.6f} {m['unit']:<14} samples {m['samples']}")
    busy = traced["profile"]["busy_ms"]
    print(f"  serving wall {traced['serve_s']:.3f} s = simulation call {traced['run_s']:.3f} s"
          f" + books and artifacts {traced['serve_s'] - traced['run_s']:.3f} s;"
          f" simulation busy time {busy / 1e3:.3f} s (summed over lanes or cells)")
    print("  profiler sites (exclusive time, share of busy time):")
    for name, row in sorted(traced["profile"]["sites"].items(),
                            key=lambda kv: -kv[1]["exclusive_ms"]):
        if name in COORDINATOR_SITES:
            share = "  (root or coordinator scope, not a share)"
        else:
            share = f" {100.0 * row['exclusive_ms'] / busy if busy > 0 else 0.0:>6.1f} %"
        print(f"    {name:<22} {row['calls']:>10} calls {row['exclusive_ms']:>12.1f} ms{share}")
    print("host: " + "  ".join(f"{k}={v}" for k, v in host.items()))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=1.0,
                   help="workload size multiplier in (0, 1]; the self-test uses a small one")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    if not 0.0 < args.scale <= 1.0:
        p.error("--scale must be in (0, 1]")
    return args


def main(argv):
    args = parse_args(argv)
    try:
        spec = json.loads(SPEC.read_text())
        e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        build()
        load_before = os.getloadavg()
        deadline = time.monotonic() + RUN_DEADLINE_S
        workdir = ROOT / ".bench_build" / "work" / f"{args.workload}-{os.getpid()}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            if args.trace == 0:
                probe = start_probe(workdir)
                try:
                    reps = timed_reps(args, workdir, deadline, args.seconds, MIN_TIMED_REPS,
                                      reps_at_once(args.workload))
                finally:
                    stop([probe])
                gate(reps)
                bursts = read_probe(workdir)
                for r in reps:
                    r["probe_ns"] = probe_ns(bursts, r)
                values = end_to_end(reps)
                if set(values) != set(e2e_units):
                    raise BenchError(f"end-to-end metrics differ from {SPEC.name}")
                print_end_to_end(args, reps, values, e2e_units)
                metrics = {name: {"value": values[name], "unit": unit}
                           for name, unit in e2e_units.items()}
                attempted = len(reps)
            else:
                timed = timed_reps(args, workdir, deadline, args.seconds * TRACED_TIMED_SHARE,
                                   MIN_TRACED_TIMED_REPS)
                traced = run_rep(args, args.seed, "traced", workdir, deadline)
                gate(timed + [traced])
                layers = per_layer(timed, traced, layer_units)
                print_per_layer(args, traced, layers, host_metadata(timed, load_before))
                metrics = {name: {"value": m["value"], "unit": m["unit"]}
                           for name, m in layers.items()}
                attempted = len(timed) + 1
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    except (BenchError, OSError, ValueError, KeyError) as e:
        log(f"perfbench: {e}")
        return 1
    print(json.dumps({"correct": True, "attempted": attempted, "failed": 0, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
