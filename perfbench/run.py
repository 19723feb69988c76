#!/usr/bin/env python3
"""Build perfbench in Release from this checkout and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <sweep|large_trace|service> \
        --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --test      # build, then run the unit tests

The build goes to $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); spans and stage tables of traced runs go to
.bench_out/.  The last line of standard output is the run's JSON result,
checked here against the metric lists in BENCHMARK.json when that file is
present.  Exits non-zero, without a result, when the build or the run
fails.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                        "perfbench")


def build(bdir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"ATS sources not found under {ROOT}/src")
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    steps = [
        ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", bdir, "-j", str(os.cpu_count() or 1)],
    ]
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.close()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail(f"build failed: {' '.join(cmd)} (log: {log_path})")


def commit_id():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def tree_hash():
    """SHA-256 over the sources the benchmark builds (src/ and perfbench/),
    so a result is traceable even in a checkout without git."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(d, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def check_result(line, trace):
    """Validates the result line against the metric lists in BENCHMARK.json."""
    try:
        res = json.loads(line)
    except json.JSONDecodeError:
        fail(f"last line is not JSON: {line!r}")
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result keys: {sorted(res)}")
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.isfile(spec_path):
        with open(spec_path) as f:
            spec = json.load(f)
        want = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        if got != want:
            fail(f"metric names or units differ from BENCHMARK.json: "
                 f"{sorted(set(got.items()) ^ set(want.items()))}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--test", action="store_true",
                    help="build and run the benchmark's unit tests")
    args = ap.parse_args()

    bdir = build_dir()
    build(bdir)
    if args.test:
        sys.exit(subprocess.run(["ctest", "--test-dir", bdir,
                                 "--output-on-failure"]).returncode)
    if args.workload is None or args.seed is None or args.seconds is None:
        ap.error("--workload, --seed and --seconds are required")

    cmd = [os.path.join(bdir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--commit", commit_id(),
           "--tree", tree_hash()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines[-1].startswith("{\"correct\""):
        sys.stderr.write(proc.stdout)
        fail(f"perfbench exited with {proc.returncode}")
    check_result(lines[-1], args.trace == 1)
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main()
