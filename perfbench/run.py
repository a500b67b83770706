#!/usr/bin/env python3
"""Builds and runs the PLEROMA repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload publish_fanout --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

The first call configures and builds perfbench/ (the library sources under
src/ plus the benchmark program) into .bench_build/, or into
$CARGO_TARGET_DIR when it is set; later calls only rebuild what changed. The
program's output is passed through: its last stdout line is the run's JSON
result. A traced run (--trace 1) also writes its spans to <build dir>/spans/.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(d):
        d = os.path.join(ROOT, d)
    return os.path.join(d, "perfbench")


def build(out):
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                          "-DCMAKE_BUILD_TYPE=Release"] + gen)
        steps.append(["cmake", "--build", out, "--target", "perfbench",
                      "-j", str(min(4, os.cpu_count() or 1))])
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def source_id():
    """The commit when the checkout is a git repository, else a hash of the
    library sources."""
    try:
        rev = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if rev.returncode == 0 and rev.stdout.strip():
            return rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha1()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in sorted(os.walk(src)):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return "src-sha1:" + h.hexdigest()[:12]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed")
    ap.add_argument("--seconds")
    ap.add_argument("--trace", choices=["0", "1"])
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no PLEROMA sources at %s/src: run from a repository checkout" % ROOT)
    if not a.self_test:
        if None in (a.workload, a.seed, a.seconds, a.trace):
            fail("--workload, --seed, --seconds and --trace are required")
        if not a.seed.isdigit() or not a.workload.replace("_", "").isalnum():
            fail("bad --seed or --workload")

    exe = build(build_dir())
    if a.self_test:
        sys.exit(subprocess.call([exe, "--self-test"]))

    cmd = [exe, "--workload", a.workload, "--seed", a.seed,
           "--seconds", a.seconds, "--trace", a.trace, "--commit", source_id()]
    if a.trace == "1":
        spans = os.path.join(build_dir(), "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans-out",
                os.path.join(spans, "%s-seed%s.tsv" % (a.workload, a.seed))]
    sys.stdout.flush()
    sys.exit(subprocess.call(cmd))


if __name__ == "__main__":
    main()
