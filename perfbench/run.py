#!/usr/bin/env python3
"""Benchmark entry point for the CAMPS simulator.

Builds the harness (perfbench/CMakeLists.txt, which compiles ../src in
Release mode) into .bench_build/, runs one workload, checks its outputs and
prints the result as the last line of stdout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer metrics; --trace 1 also makes one audited run in a separate process
and requires its result digest to match. --smoke runs every workload in both
modes plus its audited run at a tiny budget and checks every metric name and
unit against BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC_FILE = ROOT / "BENCHMARK.json"
DEADLINE_S = 165  # harness time per run; the whole run must end in 180 s


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def build():
    """Configures once, then rebuilds incrementally; returns the binary."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    binary = out / "camps_perfbench"
    if not binary.is_file():
        fail(f"build produced no {binary}")
    return binary


def harness(binary, args, deadline):
    """Runs the harness; returns (echoed output lines, parsed JSON or None)."""
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run([str(binary)] + args, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"harness timed out: {' '.join(args)}")
    lines = proc.stdout.splitlines()
    sys.stderr.write(proc.stderr)
    result = None
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
            lines = lines[:-1]
        except json.JSONDecodeError:
            result = None
    if result is None:
        print(f"harness exited {proc.returncode}: {' '.join(args)}",
              file=sys.stderr)
    return lines, result


def expected_metrics(spec, trace):
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def run_workload(binary, spec, workload, seed, seconds, trace, smoke, deadline):
    """One benchmark run; returns the result object the contract asks for."""
    common = ["--workload", workload, "--seed", str(seed)]
    common += ["--smoke"] if smoke else []
    lines, main = harness(binary, common + ["--seconds", str(seconds),
                                            "--trace", str(trace)], deadline)
    print("\n".join(lines))
    if main is None:
        fail(f"{workload}: harness failed")
    attempted, failed = main["attempted"], main["failed"]
    correct = main["correct"]
    if trace:
        # The audited run aborts on any invariant violation, so it runs in a
        # process of its own; an abort counts as one failed run.
        lines, audit = harness(binary, common + ["--audit"], deadline)
        print("\n".join(lines))
        if audit is None:
            attempted, failed, correct = attempted + 1, failed + 1, False
        else:
            attempted += audit["attempted"]
            failed += audit["failed"]
            correct = correct and audit["correct"]
            if audit["digest"] != main["digest"]:
                print(f"FAILED audited digest {audit['digest']} differs from "
                      f"{main['digest']}")
                failed, correct = failed + 1, False
    want = expected_metrics(spec, trace)
    got = {name: m["unit"] for name, m in main["metrics"].items()}
    if got != want:
        fail(f"{workload}: metrics differ from BENCHMARK.json: "
             f"missing {sorted(set(want) - set(got))}, "
             f"extra {sorted(set(got) - set(want))}, "
             f"units {[n for n in want if n in got and got[n] != want[n]]}")
    print(f"{workload}: attempted {attempted}, failed {failed}, "
          f"failed_frac {failed / max(1, attempted):.4f}")
    return {"correct": bool(correct and failed == 0), "attempted": attempted,
            "failed": failed, "metrics": main["metrics"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny budget; without --workload runs everything")
    args = parser.parse_args()

    if not SPEC_FILE.is_file():
        fail(f"{SPEC_FILE} not found")
    spec = json.loads(SPEC_FILE.read_text())
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    binary = build()
    start = time.monotonic()  # a first-run build is outside the deadline

    if args.smoke and args.workload is None:
        for workload in names:
            for trace in (0, 1):
                result = run_workload(binary, spec, workload, 1, 0, trace,
                                      True, time.monotonic() + DEADLINE_S)
                if not result["correct"]:
                    fail(f"smoke: {workload} --trace {trace} incorrect")
        print(f"smoke: {len(names)} workloads x 2 modes passed")
        return

    if args.workload not in names:
        fail(f"--workload must be one of {names}")
    result = run_workload(binary, spec, args.workload, args.seed, seconds,
                          args.trace, args.smoke, start + DEADLINE_S)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
