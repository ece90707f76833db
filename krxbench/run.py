#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see krxbench/README.md).

Run from the repository root:

    python3 krxbench/run.py --workload build|exec|fleet --seed N --seconds S --trace 0|1

The first run configures and builds the program's libraries and the
krx_bench binary from source into the build directory ($CARGO_TARGET_DIR,
else .bench_build); later runs only re-check that build. The binary's
output is passed through, and the last line printed is one JSON object:
{"correct", "attempted", "failed", "metrics"}, where the metrics are the
end-to-end ones of BENCHMARK.json (--trace 0) or its per-layer ones
(--trace 1). Exits non-zero, without a result line, if the program cannot
be built or the binary fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = "krxbench"
RUN_TIMEOUT_S = 170


def fail(message):
    print("krxbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        fail("program sources (src/) not found; run from the repository root")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    step = ["cmake", "--build", build_dir, "--target", "krx_bench", "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "krx_bench")


def source_id():
    """The git commit when there is one, else a digest of the source tree."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", BENCH_DIR):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(path.encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["build", "exec", "fleet"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    binary = build(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--source-id", source_id()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("krx_bench did not finish within %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail("krx_bench exited with status %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(proc.stdout)
        fail("krx_bench printed no result line")
    for line in lines[:-1]:
        print(line)

    measured = result["metrics"]
    metrics = {}
    for m in wanted:
        name = m["name"]
        if name in measured:
            metrics[name] = {"value": measured[name]["value"], "unit": m["unit"]}
        elif args.trace:
            # A layer this workload does not call did no work on it.
            metrics[name] = {"value": 0, "unit": m["unit"]}
        else:
            fail("workload %s did not measure end-to-end metric %s" % (args.workload, name))
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
