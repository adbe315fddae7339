#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md next to this file).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark package (perfbench/CMakeLists.txt) compiles the simulator from
../src into the build directory: $CARGO_TARGET_DIR when set, else
.bench_build. The first call configures and builds; later calls only rebuild
what changed. Per-layer exports of --trace 1 runs land in <build>/results/.
The binary prints the metric table and, as its last line, the JSON result;
this script passes its output and exit code through.
"""
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def run_quiet(cmd):
    """Runs a build step; on failure shows its output and exits non-zero."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode(errors="replace")[-4000:])
        fail("build step failed: " + " ".join(cmd))


def build(build_dir):
    if not os.path.isfile(os.path.join(BENCH_DIR, "..", "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found next to " + BENCH_DIR)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=Release"])
    run_quiet(["cmake", "--build", build_dir, "-j", "4"])
    binary = os.path.join(build_dir, "perfbench")
    if not os.access(binary, os.X_OK):
        fail("build produced no binary at " + binary)
    return binary


def main():
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(build_dir)
    out_dir = os.path.join(build_dir, "results")
    os.makedirs(out_dir, exist_ok=True)
    proc = subprocess.Popen([binary] + sys.argv[1:] + ["--out", out_dir])
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(code)


if __name__ == "__main__":
    main()
