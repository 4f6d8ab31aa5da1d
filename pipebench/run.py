#!/usr/bin/env python3
"""Build pipebench from source, then run one measurement.

    python3 pipebench/run.py --workload fleet --seed 1 --seconds 20 --trace 0

Run from the repository root. The build (CMake, into .pipebench/build)
happens on first use and is an incremental no-op afterwards; its output
goes to stderr so that stdout carries only the benchmark's report, whose
last line is the JSON result. Exits non-zero without a result when the
build or the run fails. See pipebench/NOTES.md for what is measured.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".pipebench")
BUILD = os.path.join(WORK, "build")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build():
    if not os.path.exists(os.path.join(BUILD, "build.ninja")) and not os.path.exists(
        os.path.join(BUILD, "Makefile")
    ):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", BUILD, "-j", jobs, "--target", "pipebench"],
        check=True,
        stdout=sys.stderr,
        timeout=BUILD_TIMEOUT_S,
    )
    return os.path.join(BUILD, "pipebench")


def git_sha():
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.SubprocessError) as e:
        print(f"pipebench: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--work-dir", WORK,
        "--git-sha", git_sha(),
    ]
    sys.stdout.flush()
    # Own process group, so a timeout takes the forked generator down too.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("pipebench: run timed out", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return 130


if __name__ == "__main__":
    sys.exit(main())
