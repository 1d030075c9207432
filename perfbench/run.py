#!/usr/bin/env python3
"""Build the PDC-Query library and the benchmark in Release, then run it.

    python3 perfbench/run.py --workload <vpic_ladder|vpic_overwrite|boss_catalog>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout.  The build goes to
.bench_build/perfbench, the run's PFS files to .bench_build/scratch (removed
when the run ends), and a copy of the metrics to .bench_build/results.  The
benchmark's last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Exits non-zero when the sources are
missing, the build fails, or a check fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD, "perfbench")


def build():
    """Configure and build; the build's output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("run.py: library sources (src/) not found next to "
                         "perfbench/\n")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.stderr.write("run.py: build step failed: %s\n" % " ".join(cmd))
            return False
    return True


def main():
    if not build():
        return 1
    cmd = [BINARY] + sys.argv[1:] + [
        "--scratch", os.path.join(BUILD_ROOT, "scratch"),
        "--results", os.path.join(BUILD_ROOT, "results"),
    ]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
