#!/usr/bin/env python3
"""Serving benchmark entry point.

Builds the servebench program from this checkout's sources (CMake, into
$CARGO_TARGET_DIR or .bench_build), then runs one workload:

    python3 servebench/run.py --workload engine_mix --seed 1 --seconds 10 --trace 0

The program's last stdout line is one JSON object with the keys correct,
attempted, failed and metrics. Build output goes to stderr. The exit code
is the program's (non-zero on a failed correctness check, a failed build or
a missing source tree).
"""

import argparse
import fcntl
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"servebench: {msg}", file=sys.stderr, flush=True)


def source_digest():
    """sha256 over the sources the program is built from (src/ and this dir)."""
    h = hashlib.sha256()
    for top in ("src", os.path.basename(HERE)):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def build(build_root):
    build_dir = os.path.join(build_root, "servebench")
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                # Leave no half-configured tree behind for the next run.
                cache = os.path.join(build_dir, "CMakeCache.txt")
                if os.path.exists(cache):
                    os.remove(cache)
                return None
        cmd = ["cmake", "--build", build_dir, "--target", "servebench",
               "-j", "4"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return None
    return os.path.join(build_dir, "servebench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--data-seed", type=int, default=42,
                        help="catalog seed; a second seed for held-out "
                             "confirmation on another dataset")
    args = parser.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "src")):
        log(f"no source tree at {ROOT}/src; nothing to benchmark")
        return 1
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_root):
        build_root = os.path.join(ROOT, build_root)
    binary = build(build_root)
    if binary is None:
        log("build failed")
        return 1

    work_dir = os.path.join(build_root, "servebench-work")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--data-seed", str(args.data_seed), "--work-dir", work_dir,
           "--git-sha", git_sha(), "--source-digest", source_digest()]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    except KeyboardInterrupt:
        proc.kill()
        proc.wait()
        raise


if __name__ == "__main__":
    sys.exit(main())
