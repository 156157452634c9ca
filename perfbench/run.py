#!/usr/bin/env python3
"""Run one workload of the end-to-end serving benchmark.

    python3 perfbench/run.py --workload solve-k256 --seed 1 --seconds 10 --trace 0

Run from the repository root.  Builds the benchmark executable with dune
(inside the checkout, shared cache off), generates the workload's traces
from --seed in a separate process, serves the workload in one fresh
process per session, and prints the machine context and then the result
as the last line of standard output: end-to-end metrics with --trace 0,
the per-layer ledger with --trace 1.
Exits non-zero when the build fails, the run fails, or any output check
fails.  Everything it writes lives under perfbench/_run/, removed on exit.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

TARGET = "./perfbench/bin/perfbench_main.exe"
EXE = os.path.join("_build", "default", "perfbench", "bin", "perfbench_main.exe")
RUN_ROOT = os.path.join("perfbench", "_run")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# Every run must end within this many seconds of starting, build excluded.
RUN_BUDGET_S = 170


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def git_commit():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest():
    """SHA-256 over the library sources, naming the code measured when
    the checkout is not a git repository."""
    h = hashlib.sha256()
    for top, dirs, files in os.walk("lib"):
        dirs.sort()
        for f in sorted(files):
            if f.endswith((".ml", ".mli")) or f == "dune":
                path = os.path.join(top, f)
                h.update(path.encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def fs_type(path):
    """Filesystem type of the mount holding [path], from /proc/mounts."""
    real = os.path.realpath(path)
    best, best_type = "", None
    try:
        with open("/proc/mounts") as fh:
            for line in fh:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mnt = fields[1].replace("\\040", " ")
                inside = real == mnt or real.startswith(mnt.rstrip("/") + "/")
                if inside and len(mnt) >= len(best):
                    best, best_type = mnt, fields[2]
    except OSError:
        return None
    return best_type


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        proc = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet", TARGET],
            stdout=sys.stderr,
            stderr=sys.stderr,
            env=env,
            timeout=880,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        log("build failed: %s" % e)
        return False
    if proc.returncode != 0:
        log("build failed (dune exit %d)" % proc.returncode)
        return False
    return True


def parse_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        return None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return None
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not build():
        return 2
    start = time.monotonic()
    run_dir = os.path.join(RUN_ROOT, str(os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    common = ["--workload", args.workload, "--dir", run_dir]
    common += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    seeded = common + ["--seed", str(args.seed)]

    def step(argv, **kw):
        remaining = RUN_BUDGET_S - (time.monotonic() - start)
        return subprocess.run([EXE] + argv, stderr=sys.stderr, timeout=remaining, **kw)

    try:
        plan = step(["plan"] + seeded, stdout=subprocess.PIPE)
        sessions = [line.split() for line in plan.stdout.decode().splitlines()]
        if plan.returncode != 0 or not sessions:
            log("no session plan")
            return 2
        if step(["gen"] + seeded).returncode != 0:
            log("trace generation failed")
            return 2
        # each session is a fresh process; the report checks and combines
        files = []
        for i, (kind, seed) in enumerate(sessions):
            path = os.path.join(run_dir, "session-%d.bin" % i)
            argv = ["session", "--kind", kind, "--seed", seed, "--out", path] + common
            if step(argv).returncode != 0:
                log("session %d (%s) crashed" % (i, kind))
                return 2
            files.append(path)
        run = step(["report"] + seeded + files, stdout=subprocess.PIPE)
        lines = run.stdout.decode().splitlines()
        context = {
            "nproc": os.cpu_count(),
            "git_commit": git_commit(),
            "source_sha256": source_digest(),
            "run_dir_fs": fs_type(run_dir),
        }
    except subprocess.TimeoutExpired:
        log("run exceeded %d s" % RUN_BUDGET_S)
        return 3
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    result = parse_result(lines[-1]) if lines else None
    if result is None:
        for line in lines:
            print(line)
        log("no result line (exit %d)" % run.returncode)
        return run.returncode or 4
    for line in lines[:-1]:
        print(line)
    print(json.dumps({"machine": context}))
    print(json.dumps(result))
    if run.returncode != 0 or result["correct"] is not True or result["failed"]:
        return run.returncode or 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
