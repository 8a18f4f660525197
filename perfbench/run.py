#!/usr/bin/env python3
"""Repo benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the perfbench binary (perfbench/ with the
library sources from src/) into .bench_build/perfbench, pins the environment,
runs one workload and relays the binary's output. The last stdout line is the
result object {"correct", "attempted", "failed", "metrics"}; its metrics are
exactly BENCHMARK.json's end_to_end list (--trace 0) or per_layer list
(--trace 1). Exits non-zero, without a result line, when the build or the run
fails, and non-zero with correct=false when an output check fails.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
TRACE_DIR = ROOT / ".bench_build" / "traces"
# Variables that change what the library does behind the benchmark's back.
# They are recorded and cleared; the binary refuses to run with them set.
PINNED_ENV = ("ULAYER_FAULTS", "ULAYER_TRACE", "ULAYER_SIMD", "ULAYER_CPU_THREADS")
# Host threads for the functional kernels. The VM is shared; two threads keep
# run-to-run spread low. The budget is passed outside ExecConfig::cpu_threads,
# which would also change the simulated CPU and therefore the plan.
HOST_THREADS = 2
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the perfbench binary; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"library sources not found under {ROOT / 'src'}")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            raise RuntimeError(f"build step failed ({done.returncode}): {' '.join(cmd)}")
    return BUILD_DIR / "perfbench"


def pinned_env():
    env = dict(os.environ)
    cleared = {k: env.pop(k) for k in PINNED_ENV if k in env}
    return env, cleared


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def check_result(line, trace):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise RuntimeError(f"result has keys {sorted(result)}")
    want = expected_metrics(trace)
    if sorted(result["metrics"]) != sorted(want):
        missing = sorted(set(want) - set(result["metrics"]))
        extra = sorted(set(result["metrics"]) - set(want))
        raise RuntimeError(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}")
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="self-test mode: fewer samples")
    ap.add_argument("--host-threads", type=int, default=HOST_THREADS)
    ap.add_argument("--golden", default=str(HERE / "golden.txt"))
    args = ap.parse_args(argv)

    try:
        binary = build()
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as e:
        log(f"build failed: {e}")
        return 1

    env, cleared = pinned_env()
    print(json.dumps({"cleared_env": cleared}), flush=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--host-threads", str(args.host_threads), "--golden", args.golden]
    if args.quick:
        cmd.append("--quick")
    if args.trace:
        TRACE_DIR.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(TRACE_DIR / f"{args.workload}-seed{args.seed}.json")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, check=False, text=True)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    lines = done.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    if not lines:
        log(f"binary printed nothing (exit {done.returncode})")
        return done.returncode or 1
    try:
        result = check_result(lines[-1], bool(args.trace))
    except (ValueError, RuntimeError, OSError) as e:
        log(f"no valid result (exit {done.returncode}): {e}")
        return done.returncode or 1
    print(json.dumps(result), flush=True)
    if done.returncode == 0 and not result["correct"]:
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
