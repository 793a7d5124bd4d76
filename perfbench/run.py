#!/usr/bin/env python3
"""Builds and runs the eep end-to-end benchmark (see perfbench/README.md).

One benchmark run:

    python3 perfbench/run.py --workload publish_cold --seed 1 --seconds 20 --trace 0

builds perfbench/ (CMake, into $CARGO_TARGET_DIR or .bench_build) on first
use, runs eep_perfbench once for the workload (its store directory and
trace under .bench_build/ whatever the build directory), prints the
human-readable report on stderr and, as the last line of stdout, one
JSON object with "correct", "attempted", "failed" and "metrics" (the
end_to_end metrics of BENCHMARK.json with --trace 0, its per_layer metrics
with --trace 1).

Steadiness report (runs every workload repeatedly, prints each end-to-end
metric's per-run values, quartiles and spread next to its bound):

    python3 perfbench/run.py --report --runs 10 [--sets 2] [--workloads a,b]

Self-tests of the benchmark's statistics code:

    python3 perfbench/run.py --selftest

Exit status: 0 with a result; 1 when a run failed, timed out or a
correctness gate failed (still printing the result); 2 when the benchmark
cannot be built here (no result).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# Store directories and traces: always inside the checkout, so the store's
# fsync'd commits land on the sources' filesystem wherever the build goes.
WORK_DIR = ROOT / ".bench_build"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def build(targets):
    """Configures (once) and builds `targets`; exits 2 when impossible."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (
            ROOT / "src" / "CMakeLists.txt").is_file():
        log("perfbench: no eep source tree next to perfbench/; nothing to "
            "build")
        sys.exit(2)
    if shutil.which("cmake") is None:
        log("perfbench: cmake not found")
        sys.exit(2)
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", str(out), "-j", "4", "--target"] +
                 targets)
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            log("perfbench: build timed out")
            sys.exit(2)
        if done.returncode != 0:
            log("perfbench: build failed: " + " ".join(cmd))
            sys.exit(2)
    return out


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def run_once(binary, workload, seed, seconds, trace):
    """Runs eep_perfbench once; returns its result object or None."""
    store = WORK_DIR / "store" / f"{workload}-{os.getpid()}"
    store.parent.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--trace={trace}", f"--dir={store}"]
    if trace:
        traces = WORK_DIR / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd.append(f"--trace_out={traces / f'{workload}-seed{seed}.json'}")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} run timed out")
        return None
    finally:
        shutil.rmtree(store, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    for line in lines[:-1]:
        log(line)
    if done.returncode != 0 or not lines:
        log(f"perfbench: eep_perfbench exited {done.returncode}")
        return None
    return json.loads(lines[-1])


def contract_result(result, spec, trace):
    """The result object: exactly the metrics BENCHMARK.json names,
    each checked against the unit eep_perfbench reports for it."""
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            log(f"perfbench: metric {m['name']} missing or not in "
                f"{m['unit']}: {got}")
            return None
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def bench(args):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        log(f"perfbench: unknown workload {args.workload!r}; one of {names}")
        return 2
    binary = build(["eep_perfbench"]) / "eep_perfbench"
    result = run_once(binary, args.workload, args.seed, args.seconds,
                      args.trace)
    if result is None:
        return 1
    for failure in result.get("failures", []):
        log("GATE FAILED: " + failure)
    out = contract_result(result, spec, args.trace)
    if out is None:
        return 1
    for name, m in out["metrics"].items():
        log(f"  {name:34s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps(out), flush=True)
    return 0 if out["correct"] else 1


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) as statistics.quantiles gives
    them."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def report(args):
    """Runs each workload `runs` times per set and prints every end-to-end
    metric's per-run values next to its bound. A spread (setup_s's aside)
    above its bound, or set medians drifting by more than the bound, fails
    the acceptance check; a spread above a third of its bound misses the
    steadiness target. Exits 0 only when the target is met."""
    spec = load_spec()
    workloads = (args.workloads.split(",") if args.workloads else
                 [w["name"] for w in spec["workloads"]])
    seconds = args.seconds or spec["run_seconds"]
    out_dir = build(["eep_perfbench", "perfbench_host_ref"])
    binary = out_dir / "eep_perfbench"
    steady = True
    within_bounds = True
    for workload in workloads:
        sets = []
        for s in range(args.sets):
            values = {m["name"]: [] for m in spec["end_to_end"]}
            host = []
            for r in range(args.runs):
                seed = args.first_seed + s * args.runs + r
                ref = subprocess.run([str(out_dir / "perfbench_host_ref")],
                                     capture_output=True, text=True,
                                     timeout=RUN_TIMEOUT_S, check=True)
                ref = json.loads(ref.stdout)
                result = run_once(binary, workload, seed, seconds, 0)
                out = result and contract_result(result, spec, False)
                if out is None or not out["correct"]:
                    log(f"perfbench: {workload} seed {seed} failed")
                    return 1
                for name, m in out["metrics"].items():
                    values[name].append(m["value"])
                host.append((result["host_steal_pct"], ref["sort_ms"],
                             ref["stream_gbps"]))
            sets.append(values)
            print(f"== {workload} set {s}, host per run as steal % / "
                  "reference sort ms / reference stream GB/s:")
            print("      " + " ".join(f"{a:.2f}/{b:.1f}/{c:.1f}"
                                      for a, b, c in host))
            print("      reference spread: sort "
                  f"{spread([h[1] for h in host])[3]:.3f}, stream "
                  f"{spread([h[2] for h in host])[3]:.3f}")
        print(f"== {workload}: {args.sets} set(s) x {args.runs} runs of "
              f"{seconds} s")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            medians = []
            for s, values in enumerate(sets):
                vals = values[name]
                med, q1, q3, rel = spread(vals)
                medians.append(med)
                flag = ""
                if name != "setup_s" and rel > bound:
                    flag = "  OVER BOUND"
                    steady = within_bounds = False
                elif name != "setup_s" and rel > bound / 3:
                    flag = "  WIDE (> bound/3)"
                    steady = False
                print(f"  {name:16s} set {s}: median {med:12.6g} q1 "
                      f"{q1:12.6g} q3 {q3:12.6g} spread {rel:6.3f} bound "
                      f"{bound:5.3f}{flag}")
                print("      runs: " + " ".join(f"{v:.5g}" for v in vals))
            if len(medians) > 1:
                worse = max(
                    (b - a) / a if m["better"] == "lower" else (a - b) / a
                    for a, b in zip(medians, medians[1:]))
                flag = "  DRIFT (> bound)" if worse > bound else ""
                if flag:
                    steady = within_bounds = False
                print(f"  {name:16s} set-to-set worsening {worse:+.3f}{flag}")
    print("acceptance (spreads and set-to-set drift within bounds): " +
          ("pass" if within_bounds else "FAIL"))
    print("steady (every spread below a third of its bound): " +
          ("yes" if steady else "NO"))
    return 0 if steady else 1


def selftest(_args):
    test = build(["perfbench_stats_test"]) / "perfbench_stats_test"
    return subprocess.run([str(test)], check=False).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--first_seed", type=int, default=1)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return selftest(args)
    if args.report:
        return report(args)
    if not args.workload:
        parser.error("--workload is required")
    if args.seconds <= 0:
        args.seconds = load_spec()["run_seconds"]
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
