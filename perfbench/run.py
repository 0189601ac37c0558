#!/usr/bin/env python3
"""Whole-campaign benchmark of the pFuzzer reproduction.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. It builds perfbench/main.exe under the
release profile into .bench_build/, times the program's set-up from
process start several times before and after the measured run, runs
one workload of whole campaigns (with --trace 1 the traced per-layer
run instead), prints every metric by name with its unit and sample
count, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Workloads, their subjects and what each predicts are in
perfbench/workloads.json; metric names and units in BENCHMARK.json.
Spans of a traced run go to .bench_build/perfbench-out/.
"""

import argparse
import ctypes
import hashlib
import json
import math
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = ".bench_build"
EXE = os.path.join(ROOT, BUILD_DIR, "default", "perfbench", "main.exe")
WORKLOADS = ["machine-form", "direct-style", "observed", "fleet"]
SETUP_LAUNCHES = 12  # before the measured run, and as many after it
ADDR_NO_RANDOMIZE = 0x0040000


def die(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    """Build main.exe from the checkout's sources, release profile."""
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        die("no program sources beside the benchmark (dune-project, lib/)", 2)
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ROOT, "--profile", "release",
           "--build-dir", BUILD_DIR, "./perfbench/main.exe"]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        die(f"build failed: {e}")
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        die("build failed")


def source_digest():
    """MD5 over the program's sources, for checkouts without git."""
    h = hashlib.md5()
    for top in ["dune-project", "dune", "lib", "perfbench"]:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def git_revision():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        return done.stdout.strip() or "none"
    except (OSError, subprocess.TimeoutExpired):
        return "none"


def no_aslr():
    """Turn off address-space randomisation in the child before exec: the
    OCaml 5 heap's peak size depends on where its pools land, so only a
    fixed layout makes peak_heap_mb repeat exactly for a seed. Where the
    personality call is refused the run proceeds with randomisation."""
    try:
        personality = ctypes.CDLL(None, use_errno=True).personality
        personality.argtypes = [ctypes.c_ulong]
        current = personality(0xFFFFFFFF)
        if current != -1:
            personality(current | ADDR_NO_RANDOMIZE)
    except (OSError, AttributeError):
        pass


def launch(args, timeout, fixed_layout=False):
    """Run main.exe; return (monotonic ns at spawn, stdout lines)."""
    t0 = time.monotonic_ns()
    try:
        done = subprocess.run([EXE] + args, cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout,
                              preexec_fn=no_aslr if fixed_layout else None)
    except (OSError, subprocess.TimeoutExpired) as e:
        die(f"main.exe {args[0]} failed: {e}")
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        die(f"main.exe {args[0]} exited with {done.returncode}")
    return t0, done.stdout.splitlines()


def setup_samples(workload):
    """Seconds from process start to the first campaign, one per launch.
    Launched without a pre-exec hook, which would slow the spawn itself."""
    samples = []
    for _ in range(SETUP_LAUNCHES):
        t0, lines = launch(["setup", "--workload", workload], 60)
        ready = [int(l.split()[1]) for l in lines if l.startswith("ready ")]
        if not ready:
            die("setup launch printed no ready mark")
        samples.append((ready[0] - t0) / 1e9)
    return samples


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()

    build()
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as e:
        die(f"cannot read BENCHMARK.json: {e}", 2)
    wanted = spec["per_layer"] if a.trace else spec["end_to_end"]

    print(f"env git {git_revision()}")
    print(f"env sources {source_digest()}")
    setup = [] if a.trace else setup_samples(a.workload)
    # A traced run makes about four passes over the campaigns of a run.
    _, lines = launch(["trace" if a.trace else "run", "--workload", a.workload,
                       "--seed", str(a.seed), "--seconds", str(a.seconds)],
                      60 + 5 * a.seconds, fixed_layout=True)
    found = {}
    if not a.trace:
        # Interference only ever slows a launch down: the fastest of
        # launches spread around the run is the program's own set-up.
        setup += setup_samples(a.workload)
        found["setup_s"] = (min(setup), "s", len(setup))

    attempted = failed = None
    for line in lines:
        kind, _, rest = line.partition(" ")
        if kind == "metric":
            name, value, unit, n = rest.split()
            found[name] = (float(value), unit, int(n))
        elif kind == "tally":
            attempted, failed = map(int, rest.split())
        elif kind in ("env", "check", "digest", "absent", "spans"):
            print(line)
    if attempted is None:
        die("main.exe printed no tally")

    metrics = {}
    for m in wanted:
        if m["name"] not in found:
            die(f"metric {m['name']} was not measured")
        value, unit, n = found[m["name"]]
        if unit != m["unit"] or not math.isfinite(value):
            die(f"metric {m['name']}: {value} {unit}")
        print(f"{m['name']} = {value:.6g} {unit} (n={n})")
        metrics[m["name"]] = {"value": value, "unit": unit}
    frac = failed / attempted if attempted else 1.0
    print(f"failed_frac = {frac:.6g} ratio (n={attempted})")
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
