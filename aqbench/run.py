#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 aqbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds
aqbench/ (which compiles ../src) into $CARGO_TARGET_DIR, or .bench_build
when that is unset; later calls only re-check the build. The benchmark
binary's output is passed through unchanged: its last line is the JSON
result. Exits non-zero, without a result, when the build fails, and
non-zero when the result does not carry exactly the metrics
BENCHMARK.json lists for the mode (end-to-end, or per-layer with
--trace 1).
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("aqbench: program sources (src/) not found\n")
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "aqbench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr so stdout stays the benchmark's.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.stderr.write("aqbench: build step failed: %s\n" % " ".join(cmd))
            return False
    return True


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or os.path.join(ROOT, ".bench_build"))
    if not build(build_dir):
        return 2
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "aqbench")] + sys.argv[1:]
    cmd += ["--trace-dir", trace_dir]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        return proc.returncode
    args = sys.argv[1:]
    trace = "--trace" in args[:-1] and args[args.index("--trace") + 1] != "0"
    lines = proc.stdout.strip().splitlines()
    got = list(json.loads(lines[-1])["metrics"]) if lines else []
    want = expected_metrics(trace)
    if got != want:
        sys.stderr.write("aqbench: metrics %s differ from BENCHMARK.json %s\n"
                         % (got, want))
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
