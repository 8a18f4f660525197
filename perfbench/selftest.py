#!/usr/bin/env python3
"""Self-test of the repo benchmark. Run from the repository root:

    python3 perfbench/selftest.py

Runs every workload in quick mode through perfbench/run.py and asserts that
  - the binary's metric table is exactly BENCHMARK.json's, and every metric is
    printed with its unit (end-to-end ones never 0);
  - the traced replay is byte-identical to ULayerRuntime::Run (the binary
    fails the run otherwise), and per-kernel time sums to no more than the
    traced wall time;
  - simulated metrics are identical across two seeds (functional workloads)
    and across host budgets 1 and 2 (all workloads);
  - a perturbed golden digest fails the run (non-zero exit, correct=false);
  - the committed golden digests are what scalar ISA at 1 thread computes.
Exits 0 when every check passes.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run as bench  # noqa: E402

SCRATCH = bench.ROOT / ".bench_build" / "selftest"
SIM_E2E = ("sim_latency_ms", "sim_energy_mj", "sim_p99_ms", "sim_goodput_rps",
           "sim_max_rps_at_slo")
FAILURES = []


def check(cond, what):
    print(f"  {'ok  ' if cond else 'FAIL'} {what}", flush=True)
    if not cond:
        FAILURES.append(what)


def run_workload(workload, seed=1, trace=0, threads=bench.HOST_THREADS, golden=None):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "2", "--trace", str(trace), "--quick", "--host-threads", str(threads)]
    if golden is not None:
        cmd += ["--golden", str(golden)]
    done = subprocess.run(cmd, cwd=bench.ROOT, stdout=subprocess.PIPE, text=True, check=False,
                          timeout=bench.RUN_TIMEOUT_S + 30)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return done.returncode, result


def main():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    binary = bench.build()
    env, _ = bench.pinned_env()
    SCRATCH.mkdir(parents=True, exist_ok=True)

    print("metric table")
    listed = json.loads(subprocess.run([str(binary), "--list-metrics"], env=env, check=True,
                                       stdout=subprocess.PIPE, text=True).stdout)
    check(listed["end_to_end"] == spec["end_to_end"], "end_to_end matches BENCHMARK.json")
    check(listed["per_layer"] == spec["per_layer"], "per_layer matches BENCHMARK.json")

    results = {}
    # serve_zoo_sim is not in BENCHMARK.json (its host times are unsteady on a
    # shared VM) but stays runnable, so it is tested too.
    for w in [x["name"] for x in spec["workloads"]] + ["serve_zoo_sim"]:
        print(f"workload {w}")
        for trace in (0, 1):
            rc, r = run_workload(w, trace=trace)
            results[(w, trace)] = r
            check(rc == 0 and r is not None and r["correct"] and r["failed"] == 0,
                  f"trace={trace}: exit 0, correct, nothing failed")
            if r is None:
                continue
            want = spec["per_layer" if trace else "end_to_end"]
            check(all(r["metrics"].get(m["name"], {}).get("unit") == m["unit"] for m in want),
                  f"trace={trace}: every metric printed with its unit")
            if not trace:
                check(all(v["value"] > 0 for v in r["metrics"].values()),
                      "every end-to-end metric is non-zero")
        traced = results[(w, 1)]
        if traced is not None and w != "serve_zoo_sim":
            tm = {k: v["value"] for k, v in traced["metrics"].items()}
            check(0 < tm["trace.kernel_sum_ms"] <= tm["trace.host_latency_ms.p50"],
                  "per-kernel time sums to no more than the traced wall time")
            spans = bench.TRACE_DIR / f"{w}-seed1.json"
            check(spans.is_file() and len(json.loads(spans.read_text())["spans"]) ==
                  tm["trace.spans"], "spans written and complete")

            # Simulated per-layer numbers must not move with seed or host budget.
            other = run_workload(w, seed=2, trace=1, threads=1)[1]
            sim_keys = [k for k in tm if k.startswith("sim.")] + [
                "partitioner.coop_fraction", "partitioner.branch_groups"]
            check(other is not None and all(
                other["metrics"][k]["value"] == tm[k] for k in sim_keys),
                "simulated per-layer metrics identical at seed 2, host budget 1")

        base = results[(w, 0)]
        variants = [("host budget 1", run_workload(w, threads=1)[1])]
        if w != "serve_zoo_sim":  # Serving traces are seeded; model runs are not.
            variants.append(("seed 2", run_workload(w, seed=2)[1]))
        for label, other in variants:
            same = base is not None and other is not None and all(
                base["metrics"][k]["value"] == other["metrics"][k]["value"] for k in SIM_E2E)
            check(same, f"simulated metrics identical at {label}")

    print("golden digests")
    golden = HERE / "golden.txt"
    lines = golden.read_text().splitlines()
    idx = next(i for i, line in enumerate(lines) if line.startswith("googlenet_pf 1 "))
    name, index, digest = lines[idx].split()
    lines[idx] = f"{name} {index} {int(digest, 16) ^ 1:016x}"
    bad = SCRATCH / "golden_perturbed.txt"
    bad.write_text("\n".join(lines) + "\n")
    rc, r = run_workload("googlenet_pf", golden=bad)
    check(rc != 0 and r is not None and not r["correct"] and r["failed"] > 0,
          "a perturbed golden digest fails the run")
    fresh = SCRATCH / "golden_scalar.txt"
    subprocess.run([str(binary), "--make-golden", str(fresh)], env=env, check=True)
    digests = lambda p: [x for x in p.read_text().splitlines() if not x.startswith("#")]
    check(digests(fresh) == digests(golden),
          "committed golden equals the scalar-ISA, 1-thread computation")

    print(f"{'PASS' if not FAILURES else 'FAIL'}: {len(FAILURES)} failed check(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
