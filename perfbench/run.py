#!/usr/bin/env python3
"""Build the benchmark from this checkout and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds
perfbench/ (which pulls in the repository's own libraries) into
$CARGO_TARGET_DIR, or .bench_build when that is unset; later runs only
check that the build is current. The workload runs in its own process,
and its output is relayed; the last line is the JSON result. Exits non-zero,
without a result, when the build fails, the run times out or its result is
malformed, and with the workload's own code when a correctness gate fails.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("kv_point", "kv_scan", "of_contended", "history_check")
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures (once) and builds the benchmark; True on success."""
    configure = ["cmake", "-S", "perfbench", "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    steps = []
    if not any(os.path.exists(os.path.join(build_dir, f))
               for f in ("build.ninja", "Makefile")):
        steps.append(configure)
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench_workload",
                  "-j", "3"])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def expected_metrics(trace):
    """The metric names BENCHMARK.json promises for this kind of run."""
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except OSError:
        return None
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    """Returns an error string for a malformed result line, else None."""
    try:
        result = json.loads(line)
    except ValueError:
        return "last line is not JSON"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys are " + ", ".join(sorted(result))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return "attempted is not a positive whole number"
    expected = expected_metrics(trace)
    if expected is not None and set(result["metrics"]) != expected:
        return "metrics differ from BENCHMARK.json: " + ", ".join(
            sorted(set(result["metrics"]) ^ expected))
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not build(build_dir):
        return 1

    cmd = [os.path.join(build_dir, "perfbench_workload"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--trace-dir", build_dir]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 1

    lines = out.rstrip("\n").split("\n")
    error = check_result(lines[-1], args.trace == "1") if out else "no output"
    if error:
        sys.stdout.write(out)
        print("perfbench: " + error, file=sys.stderr)
        return proc.returncode or 1
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
