#!/usr/bin/env python3
"""Builds and runs the sarbp benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures the repository with
CMake (Release) into .bench_build/perfbench and builds the `sarbench` load
generator together with the library targets it links; later runs rebuild
incrementally. Build output goes to standard error, so the last line of
standard output is the benchmark's JSON result. The exit code is the load
generator's: non-zero when the build fails, an output check fails, or the
generator fell behind its schedule. `--workload all` runs every workload
whose output checks pass in turn and ends with one JSON object whose metric
names carry the workload as a prefix.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench", "sarbench")
# The workloads `--workload all` runs. BENCHMARK.json scores the first two;
# stream_prf's set-up time and latency tail spread too far on a shared host
# for a bound (see NOTES.md, "Workloads"). surveillance_pipeline also runs,
# but its output check fails on most seeds (see NOTES.md, "Known failures").
ALL = ("frame_closed", "tenant_open", "stream_prf")
WORKLOADS = ALL + ("surveillance_pipeline",)
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        fail("no sarbp source tree next to perfbench/ (run from the repository root)")
    jobs = str(max(1, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = [
            "cmake", "-S", ROOT, "-B", BUILD,
            "-DCMAKE_BUILD_TYPE=Release",
            "-DCMAKE_PROJECT_INCLUDE=" + os.path.join(HERE, "build.cmake"),
        ]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    compile_cmd = ["cmake", "--build", BUILD, "--target", "sarbench", "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def source_id():
    """The git commit when there is one, and a digest of the library sources."""
    commit = ""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True)
        if rev.returncode == 0:
            commit = "git:" + rev.stdout.strip() + " "
    digest = hashlib.sha256()
    for top in ("src", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
        )
        for name in sorted(files):
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as fh:
                digest.update(fh.read())
    return commit + "sha256:" + digest.hexdigest()[:16]


def run(workload, args, capture):
    """Runs the load generator once; returns (exit code, its standard output)."""
    spans = os.path.join(BUILD, "spans-%s-%d.json" % (workload, args.seed))
    cmd = [
        BINARY,
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
        "--spans-out", spans,
        "--source-id", source_id(),
    ]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE if capture else None,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail("%s timed out after %d s" % (workload, RUN_TIMEOUT_S))
    return proc.returncode, out or ""


def run_all(args):
    """Every workload in ALL in turn, then one combined JSON object."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in ALL:
        code, out = run(workload, args, capture=True)
        sys.stdout.write(out)
        worst = worst or code
        lines = out.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            fail("%s printed no result" % workload)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][workload + "." + name] = metric
    print(json.dumps(combined))
    return worst


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    if args.workload == "all":
        sys.exit(run_all(args))
    sys.exit(run(args.workload, args, capture=False)[0])


if __name__ == "__main__":
    main()
