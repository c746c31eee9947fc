#!/usr/bin/env python3
"""The repo benchmark. Run it from the root of a checkout.

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace 0|1
      Builds the library and the benchmark from source into .bench_build/,
      fills the benchmark's own model cache (untimed), runs one workload and
      prints its result as the last line of stdout. --record FILE also
      appends the result to FILE (one JSON object per line).
  python3 perfbench/run.py --compare A.jsonl B.jsonl
      Compares two sets of recorded runs metric by metric against the bounds
      in BENCHMARK.json.
  python3 perfbench/run.py --self-test
      Runs the benchmark's own tests.

Exit codes: 0 ok, 1 an output or closure check failed, 2 anything else.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
CACHE_DIR = os.path.join(BUILD_DIR, "model_cache")
TRACE_DIR = os.path.join(BUILD_DIR, "traces")
BUILD_TIMEOUT_S = 840
PREPARE_TIMEOUT_S = 600
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def fail(msg):
    log(msg)
    sys.exit(2)


def bench_env():
    """The caller's environment without AXNN_* knobs, plus the model cache."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("AXNN_")}
    env["AXNN_CACHE_DIR"] = os.path.abspath(CACHE_DIR)
    return env


def run_logged(cmd, timeout, env=None):
    """Run cmd with its output on stderr; fail on a non-zero exit or timeout."""
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=timeout, env=env)
    except subprocess.TimeoutExpired:
        fail(f"timed out after {timeout}s: {' '.join(cmd)}")
    if proc.returncode != 0:
        fail(f"exit {proc.returncode}: {' '.join(cmd)}")


def build():
    for needed in ("CMakeLists.txt", "src", os.path.join("perfbench", "CMakeLists.txt")):
        if not os.path.exists(needed):
            fail(f"{needed} not found: run from the root of a full checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_logged(["cmake", "-S", "perfbench", "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
                   BUILD_TIMEOUT_S)
    run_logged(["cmake", "--build", BUILD_DIR, "--target", "axbench", "-j", jobs], BUILD_TIMEOUT_S)
    return os.path.join(BUILD_DIR, "axbench")


def declared_metrics(trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(args):
    exe = build()
    os.makedirs(CACHE_DIR, exist_ok=True)
    t0 = time.monotonic()
    run_logged([exe, "--prepare"], PREPARE_TIMEOUT_S, env=bench_env())
    prepare_s = time.monotonic() - t0

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(TRACE_DIR, exist_ok=True)
        spans = os.path.join(TRACE_DIR, f"{args.workload}-seed{args.seed}.json")
        cmd += ["--trace-out", spans]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S, env=bench_env())
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} timed out after {RUN_TIMEOUT_S}s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or len(lines) < 2:
        fail(f"{args.workload} exited {proc.returncode} without a result")
    info, result = json.loads(lines[-2]), json.loads(lines[-1])
    info["info"]["prepare_s"] = prepare_s  # untimed model-cache step, not a metric
    want = declared_metrics(args.trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        fail(f"reported metrics {sorted(got.items())} differ from BENCHMARK.json {sorted(want.items())}")
    for err in info["errors"]:
        log(f"check failed: {err}")
    if args.trace:
        log(f"spans written to {spans}")
    if args.record:
        with open(args.record, "a") as f:
            f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                "seconds": args.seconds, "trace": args.trace,
                                "info": info["info"], "result": result}) + "\n")
    print(json.dumps({"info": info["info"], "errors": info["errors"]}))
    print(json.dumps(result), flush=True)
    return proc.returncode


# --- comparison of two sets of runs -------------------------------------------

def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(parent, change, better, bound):
    """agree / worse / better / unresolved for one metric on one workload.

    worse: the change's median is worse than the parent's by more than the
    bound. Where either side's own spread exceeds the bound the difference
    cannot be resolved, unless every run of the change reads better than
    every run of the parent.
    """
    sign = 1.0 if better == "higher" else -1.0
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if spread(parent) > bound or spread(change) > bound:
        return "better" if all_better else "unresolved"
    p_med, c_med = statistics.median(parent), statistics.median(change)
    worse_by = sign * (p_med - c_med) / abs(p_med) if p_med else 0.0
    if worse_by > bound:
        return "worse"
    return "agree"


def load_runs(path):
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                r = json.loads(line)
                runs.setdefault((r["workload"], r["trace"]), []).append(r["result"]["metrics"])
    return runs


def compare(path_a, path_b):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    a, b = load_runs(path_a), load_runs(path_b)
    rows = []
    for w in [x["name"] for x in spec["workloads"]]:
        if (w, 0) not in a or (w, 0) not in b:
            continue
        for m in spec["end_to_end"]:
            va = [r[m["name"]]["value"] for r in a[(w, 0)]]
            vb = [r[m["name"]]["value"] for r in b[(w, 0)]]
            rows.append((w, m, va, vb, verdict(va, vb, m["better"], m["bound"])))
    print(f"{'workload':22} {'metric':16} {'A median [q1, q3]':>34} {'B median [q1, q3]':>34}"
          f" {'spreadA':>8} {'spreadB':>8} {'bound':>6}  verdict")
    for w, m, va, vb, v in rows:
        qa, qb = quartiles(va), quartiles(vb)
        fa = f"{qa[1]:.4g} [{qa[0]:.4g}, {qa[2]:.4g}] n={len(va)}"
        fb = f"{qb[1]:.4g} [{qb[0]:.4g}, {qb[2]:.4g}] n={len(vb)}"
        print(f"{w:22} {m['name']:16} {fa:>34} {fb:>34} {spread(va):8.3f} {spread(vb):8.3f}"
              f" {m['bound']:6.2f}  {v}")
    for label, runs in (("A", a), ("B", b)):
        for w in [x["name"] for x in spec["workloads"]]:
            if (w, 0) in runs and (w, 1) in runs:
                base = statistics.median(r["throughput_per_s"]["value"] for r in runs[(w, 0)])
                traced = statistics.median(r["trace.throughput_per_s"]["value"] for r in runs[(w, 1)])
                print(f"tracing overhead {label} {w}: throughput_per_s {traced:.4g} traced vs "
                      f"{base:.4g} untraced ({100 * (traced - base) / base:+.1f}%)")
    return 1 if any(v == "worse" for *_, v in rows) else 0


def self_test():
    build()
    run_logged(["cmake", "--build", BUILD_DIR, "--target", "perfbench_tests"], BUILD_TIMEOUT_S)
    run_logged([os.path.join(BUILD_DIR, "perfbench_tests")], RUN_TIMEOUT_S)
    run_logged([sys.executable, "-m", "unittest", "discover", "-s",
                os.path.join("perfbench", "tests"), "-p", "test_*.py"], RUN_TIMEOUT_S)
    return 0


def main(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", help="append the result to this JSONL file")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"))
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.self_test:
        return self_test()
    if not args.workload:
        p.error("--workload is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
