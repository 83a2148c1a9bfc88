#!/usr/bin/env python3
"""The repository benchmark: builds the benchmark binary and runs one workload.

    python3 perfbench/run.py --workload warehouse_batch --seed 1 \
        --seconds 45 --trace 0

builds perfbench/ (and the engine libraries under src/) into
.bench_build/perfbench on first use, runs the workload, and prints as the
last line one JSON object:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics; with
--trace 1 its per_layer metrics, and a Chrome trace is written to
.bench_run/trace-<workload>-<seed>.json. The exit code is non-zero when
an output fails its correctness check or the run cannot be measured.

Steadiness mode repeats one workload over consecutive seeds and prints each
end-to-end metric's median, quartiles and spread against its bound:

    python3 perfbench/run.py --workload service_open --seed 201 \
        --seconds 45 --repeat 10

--perturb corrupts the first output of a run so its oracle must fail it.
cdc_sharded runs too, but BENCHMARK.json does not list it (see README.md).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("warehouse_batch", "cdc_sharded", "service_open")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configures (once) and builds the binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("engine sources (src/) not found next to perfbench/")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    log_path = os.path.join(os.path.dirname(out), "perfbench-build.log")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    for attempt in range(2):
        steps = []
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                          "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out, "-j", jobs])
        ok = True
        with open(log_path, "w") as log:
            for step in steps:
                if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                  timeout=BUILD_TIMEOUT_S).returncode != 0:
                    ok = False
                    break
        if ok:
            return os.path.join(out, "qox_perfbench")
        if attempt == 0:
            shutil.rmtree(out, ignore_errors=True)  # stale cache: start over
    with open(log_path) as log:
        sys.stderr.write(log.read()[-4000:])
    fail("build failed (log: %s)" % log_path)


def declared_metrics(trace):
    """BENCHMARK.json's per_layer (trace) or end_to_end metrics, by name."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m for m in spec[key]}


def check_result(line, trace):
    """Parses and validates the binary's final line against BENCHMARK.json."""
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise ValueError("unexpected result keys %s" % sorted(result))
    declared = declared_metrics(trace)
    got = set(result["metrics"])
    if got != set(declared):
        raise ValueError("metrics differ from BENCHMARK.json: missing %s, "
                         "extra %s" % (sorted(set(declared) - got),
                                       sorted(got - set(declared))))
    for name, metric in result["metrics"].items():
        if metric["unit"] != declared[name]["unit"]:
            raise ValueError("unit of %s is %s, BENCHMARK.json says %s"
                             % (name, metric["unit"], declared[name]["unit"]))
        if not isinstance(metric["value"], (int, float)):
            raise ValueError("%s is not a number" % name)
    if result["attempted"] < 1:
        raise ValueError("nothing was attempted")
    return result


def run_once(binary, workload, seed, seconds, trace, perturb, echo=True):
    """Runs the binary once; returns (exit code, parsed result or None)."""
    run_root = os.path.join(ROOT, ".bench_run")
    work_dir = os.path.join(run_root, "%s-%d-%d" % (workload, seed,
                                                     os.getpid()))
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", str(trace),
           "--work-dir", work_dir,
           "--trace-out", os.path.join(run_root, "trace-%s-%d.json"
                                       % (workload, seed))]
    if perturb:
        cmd.append("--perturb")
    # Engine knobs read from the environment would change what is measured.
    env = {k: v for k, v in os.environ.items() if not k.startswith("QOX_")}
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        shutil.rmtree(work_dir, ignore_errors=True)
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    shutil.rmtree(work_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        if echo:
            sys.stdout.write(proc.stdout)
        return proc.returncode or 2, None
    try:
        result = check_result(lines[-1], trace)
    except (ValueError, KeyError, json.JSONDecodeError) as err:
        if echo:
            sys.stdout.write("\n".join(lines[:-1]) + "\n")
        print("perfbench: bad result line: %s" % err, file=sys.stderr)
        return 2, None
    if echo:
        for line in lines[:-1]:
            print(line)
    return proc.returncode, result


def quartile_spread(values):
    """(median, q1, q3, (q3 - q1) / median) as the acceptance rule takes
    them: statistics.quantiles(values, n=4)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else float("inf")
    return median, q1, q3, spread


def steadiness_rows(runs, metrics):
    """One row per end-to-end metric: name, median, q1, q3, spread, bound,
    and whether the spread stays within a third of the bound."""
    rows = []
    for name, spec in metrics.items():
        values = [r["metrics"][name]["value"] for r in runs]
        median, q1, q3, spread = quartile_spread(values)
        bound = spec.get("bound")
        steady = bound is None or spread <= bound / 3.0
        rows.append((name, median, q1, q3, spread, bound, steady))
    return rows


def repeat(binary, args):
    metrics = declared_metrics(False)
    runs = []
    for i in range(args.repeat):
        seed = args.seed + i
        code, result = run_once(binary, args.workload, seed, args.seconds,
                                0, False, echo=False)
        if code != 0 or result is None:
            fail("%s seed %d failed (exit %d)" % (args.workload, seed, code))
        runs.append(result)
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % (n, result["metrics"][n]["value"]) for n in metrics)))
    print("%-18s %12s %12s %12s %8s %6s  %s" % (
        "metric", "median", "q1", "q3", "spread", "bound", "steady(<bound/3)"))
    for name, median, q1, q3, spread, bound, steady in steadiness_rows(
            runs, metrics):
        print("%-18s %12.6g %12.6g %12.6g %8.4f %6s  %s" % (
            name, median, q1, q3, spread,
            "-" if bound is None else "%.2f" % bound,
            "yes" if steady else "NO"))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="steadiness mode: runs over this many seeds")
    parser.add_argument("--perturb", action="store_true",
                        help="corrupt one output; the run must fail")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")
    binary = build()
    if args.repeat > 0:
        if args.repeat < 2:
            fail("--repeat needs at least 2 runs for quartiles")
        repeat(binary, args)
        return 0
    code, result = run_once(binary, args.workload, args.seed, args.seconds,
                            args.trace, args.perturb)
    if result is None:
        return code or 2
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
