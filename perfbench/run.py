#!/usr/bin/env python3
"""Build the benchmark from source and run one measurement.

    python3 perfbench/run.py --workload compress|web|chaos --seed N \
        --seconds S --trace 0|1

Run it from the root of a checkout.  The OCaml program is built with dune
into .bench_build/ (the shared dune cache is off, so the build writes
nothing outside the checkout) and then runs the whole measurement in one
process on one domain.  Its last stdout line, the result object, is checked
against BENCHMARK.json and printed as this program's last line.  A traced
run (--trace 1) also writes its host spans to .bench_out/ as a Chrome
trace_event file.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"
OUT_DIR = ".bench_out"
TARGET = "./perfbench/perfbench.exe"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
WORKLOADS = ("compress", "web", "chaos")


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def run(cmd, timeout, **kw):
    """Run [cmd] to completion; on timeout kill it and wait for it."""
    proc = subprocess.Popen(cmd, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail("%s timed out after %d s" % (cmd[0], timeout))
    return proc.returncode, out


def check_result(line, spec, trace):
    """The result object has exactly the four result keys, and one metric
    per catalogue entry of the mode, with the catalogue's unit."""
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result keys %s" % sorted(result))
    catalogue = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in catalogue}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if want != got:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        fail("metrics do not match BENCHMARK.json (missing %s, extra %s)" % (missing, extra))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("attempted must be a whole number >= 1")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for path in ("dune-project", "lib", "BENCHMARK.json"):
        if not os.path.exists(path):
            fail("%s not found: run from the root of a full checkout" % path)
    with open("BENCHMARK.json") as f:
        spec = json.load(f)

    code, _ = run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--cache", "disabled", "--profile", "release", "--display", "quiet",
         TARGET],
        BUILD_TIMEOUT_S)
    if code != 0 or not os.path.exists(EXE):
        fail("build failed")

    env = dict(os.environ)
    rtev = os.path.join(OUT_DIR, "runtime_events")
    if args.trace:
        # Runtime_events puts its ring file here; it is removed at exit.
        os.makedirs(rtev, exist_ok=True)
        env["OCAML_RUNTIME_EVENTS_DIR"] = rtev
    code, out = run(
        [EXE, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--out-dir", OUT_DIR],
        RUN_TIMEOUT_S, stdout=subprocess.PIPE, env=env, text=True)
    if args.trace:
        shutil.rmtree(rtev, ignore_errors=True)
    lines = [l for l in out.splitlines() if l.strip()]
    if not lines:
        fail("the benchmark printed no result (exit %d)" % code)
    check_result(lines[-1], spec, args.trace)
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()
    sys.exit(code)


if __name__ == "__main__":
    main()
