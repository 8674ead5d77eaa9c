#!/usr/bin/env python3
"""Repository benchmark: builds motto and the perfbench measuring program
from source, generates a workload's inputs from a seed, measures, checks
the outputs against an unshared single-threaded reference, and prints one
JSON result.

    python3 perfbench/run.py --workload stock-batch --seed 1 --seconds 30 \
        --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30
        every workload, untraced and traced: a table of every metric with
        its unit, failed_frac, and the output check
    python3 perfbench/run.py --compare A1.json [...] --against B1.json [...]
        medians of two sets of saved results (from .bench_build/results);
        refuses sets measured on different host fingerprints
    python3 perfbench/run.py --selftest
        unit tests of the benchmark's own helpers

Run it from the repository root. Everything it builds or writes stays under
.bench_build/ there. README.md in this directory documents the workloads
and metrics.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
MOTTO_BUILD = os.path.join(BUILD, "motto")
BENCH_BUILD = os.path.join(BUILD, "perfbench")
PERFBENCH = os.path.join(BENCH_BUILD, "perfbench")
# A run must end within 180 s (900 s when it builds); leave room for the
# result handling.
DEADLINE_S = 165
BUILD_TIMEOUT_S = 700
# Input sets kept per workload (each is tens of MB).
KEEP_INPUTS = 2


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def run_quiet(cmd, timeout):
    """Runs a build step with its output on stderr; raises on failure. The
    compiler's temporary files stay inside the build directory too."""
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=True,
                   timeout=timeout, env=dict(os.environ, TMPDIR=tmp))


def build(deadline):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise RuntimeError("run from the repository root: CMakeLists.txt and "
                           "src/ are missing here")
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(MOTTO_BUILD, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", ROOT, "-B", MOTTO_BUILD,
                   "-DCMAKE_BUILD_TYPE=Release", "-DMOTTO_BUILD_TESTS=OFF",
                   "-DMOTTO_BUILD_BENCHMARKS=OFF",
                   "-DMOTTO_BUILD_EXAMPLES=OFF"],
                  deadline - time.time())
    run_quiet(["cmake", "--build", MOTTO_BUILD, "-j", jobs],
              deadline - time.time())
    if not os.path.isfile(os.path.join(BENCH_BUILD, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                   BENCH_BUILD, "-DCMAKE_BUILD_TYPE=Release",
                   "-DMOTTO_SOURCE_DIR=" + ROOT,
                   "-DMOTTO_BINARY_DIR=" + MOTTO_BUILD],
                  deadline - time.time())
    run_quiet(["cmake", "--build", BENCH_BUILD, "-j", jobs],
              deadline - time.time())


def cache_value(key):
    path = os.path.join(MOTTO_BUILD, "CMakeCache.txt")
    with open(path) as f:
        for line in f:
            if line.startswith(key + ":"):
                return line.split("=", 1)[1].strip()
    return ""


def fingerprint(seed):
    """Host and build identity. Results are comparable only when every
    field but the seed agrees."""
    compiler = cache_value("CMAKE_CXX_COMPILER")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True, timeout=30).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.SubprocessError):
        version = compiler
    return {
        "nproc": os.cpu_count(),
        "kernel": platform.release(),
        "compiler": version,
        "build_type": cache_value("CMAKE_BUILD_TYPE"),
        "seed": seed,
    }


def host_key(fp):
    return {k: v for k, v in fp.items() if k != "seed"}


def inputs_for(workload, seed, deadline):
    """Generates (once per seed) the inputs and reference counts."""
    base = os.path.join(BUILD, "inputs")
    path = os.path.join(base, "%s-%d" % (workload, seed))
    done = os.path.join(path, "done")
    if os.path.isfile(done):
        os.utime(done)
        return path
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    subprocess.run([PERFBENCH, "gen", "--workload=" + workload,
                    "--seed=%d" % seed, "--dir=" + path],
                   stdout=sys.stderr, check=True,
                   timeout=deadline - time.time())
    open(done, "w").close()
    # Keep only the newest input sets of this workload.
    sets = []
    for name in os.listdir(base):
        marker = os.path.join(base, name, "done")
        if name.startswith(workload + "-") and os.path.isfile(marker):
            sets.append((os.path.getmtime(marker), name))
    for _, name in sorted(sets)[:-KEEP_INPUTS]:
        shutil.rmtree(os.path.join(base, name), ignore_errors=True)
    return path


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    rows = spec["per_layer"] if trace else spec["end_to_end"]
    return {row["name"]: row["unit"] for row in rows}


def measure(workload, seed, seconds, trace):
    # The first run in a checkout builds; the deadline counts from after.
    build(time.time() + BUILD_TIMEOUT_S)
    deadline = time.time() + DEADLINE_S
    inputs = inputs_for(workload, seed, deadline)
    work = os.path.join(BUILD, "work", workload)
    os.makedirs(work, exist_ok=True)
    trace_out = os.path.join(BUILD, "traces",
                             "%s-seed%d.json" % (workload, seed))
    os.makedirs(os.path.dirname(trace_out), exist_ok=True)
    cmd = [PERFBENCH, "measure", "--workload=" + workload, "--dir=" + inputs,
           "--seconds=%d" % seconds, "--trace=%d" % trace,
           "--work=" + os.path.join(work, "state")]
    if trace:
        cmd.append("--trace-out=" + trace_out)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True,
                          timeout=deadline - time.time())
    report = json.loads(proc.stdout.strip().splitlines()[-1])

    declared = declared_metrics(trace)
    got = report["metrics"]
    unknown = sorted(set(got) - set(declared))
    if unknown:
        raise RuntimeError("BENCHMARK.json does not declare %s"
                           % ", ".join(unknown))
    for name, unit in declared.items():
        if name not in got:
            if not trace:
                raise RuntimeError("perfbench did not report " + name)
            # A layer this workload does not use.
            got[name] = {"value": 0, "unit": unit}
        if got[name]["unit"] != unit:
            raise RuntimeError("%s: unit %s, BENCHMARK.json says %s"
                               % (name, got[name]["unit"], unit))
    report["fingerprint"] = fingerprint(seed)
    report["workload"] = workload
    report["trace"] = trace
    results = os.path.join(BUILD, "results", workload)
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, "seed%d-trace%d.json" % (seed, trace)),
              "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)
    return report


def contract_line(report, trace):
    names = declared_metrics(trace)
    return json.dumps({
        "correct": bool(report["correct"]),
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": {n: report["metrics"][n] for n in sorted(names)},
    })


def print_table(workload, report):
    kind = "traced" if report["trace"] else "untraced"
    print("== %s (%s) ==" % (workload, kind))
    for name, m in sorted(report["metrics"].items()):
        print("  %-32s %18.6f %s" % (name, m["value"], m["unit"]))
    attempted = report["attempted"]
    failed_frac = report["failed"] / attempted if attempted else 1
    print("  %-32s %18.6f %s" % ("failed_frac", failed_frac, "ratio"))
    print("  outputs: %s (%d failed of %d attempted)" % (
        "correct" if report["correct"] else "WRONG", report["failed"],
        attempted))
    for flag in report.get("flags", []):
        print("  flag: " + flag)
    for name, value in sorted(report.get("info", {}).items()):
        print("  info %-27s %18.6f" % (name, value))


def compare(paths_a, paths_b):
    sets = []
    for paths in (paths_a, paths_b):
        loaded = []
        for path in paths:
            with open(path) as f:
                loaded.append(json.load(f))
        sets.append(loaded)
    keys = {json.dumps(host_key(r["fingerprint"]), sort_keys=True)
            for s in sets for r in s}
    if len(keys) != 1:
        log("refusing to compare results from different host fingerprints:")
        for key in sorted(keys):
            log("  " + key)
        return 1
    groups = {}
    for side, loaded in enumerate(sets):
        for r in loaded:
            for name, m in r["metrics"].items():
                key = (r["workload"], name, m["unit"])
                groups.setdefault(key, ([], []))[side].append(m["value"])
    print("%-18s %-32s %14s %14s %8s" % ("workload", "metric", "median A",
                                         "median B", "B/A"))
    for (workload, name, unit), (a, b) in sorted(groups.items()):
        if not a or not b:
            continue
        ma, mb = statistics.median(a), statistics.median(b)
        ratio = mb / ma if ma else float("nan")
        print("%-18s %-32s %14.6g %14.6g %8.3f %s" % (workload, name, ma, mb,
                                                      ratio, unit))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs="+", metavar="A.json")
    parser.add_argument("--against", nargs="+", metavar="B.json")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    try:
        if args.compare or args.against:
            if not (args.compare and args.against):
                parser.error("--compare and --against go together")
            return compare(args.compare, args.against)
        if args.selftest:
            build(time.time() + BUILD_TIMEOUT_S)
            tests = os.path.join(BENCH_BUILD, "perfbench_test")
            return subprocess.run([tests], timeout=300).returncode
        if args.workload == "all":
            ok = True
            for workload in ("stock-batch", "datacenter-batch", "stock-serve"):
                for trace in (0, 1):
                    report = measure(workload, args.seed, args.seconds, trace)
                    print_table(workload, report)
                    ok = ok and report["correct"]
            return 0 if ok else 1
        if not args.workload:
            parser.error("--workload is required")
        report = measure(args.workload, args.seed, args.seconds, args.trace)
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as error:
        log("error: %s" % error)
        return 1
    for flag in report.get("flags", []):
        log("flag: " + flag)
    print(contract_line(report, args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
