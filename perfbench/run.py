#!/usr/bin/env python3
"""Run one perfbench workload from the root of a swpm checkout.

    python3 perfbench/run.py --workload tune-shard --seed 1 --seconds 50 --trace 0

Builds the driver and swmodel from source (dune, build directory
.bench_build), runs the workload, and prints the driver's result as the
last line of standard output, with the peak RSS of the whole process
tree (driver, daemon, shard workers) added to the end-to-end metrics.
Exits non-zero when the build or the run fails or a correctness check
does not hold.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import threading

WORKLOADS = ("tune-shard", "serve-mix")
BUILD_DIR = ".bench_build"
DRIVER = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
SWMODEL = os.path.join(BUILD_DIR, "default", "bin", "swmodel.exe")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "./perfbench/main.exe", "./bin/swmodel.exe"]
    done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    return done.returncode == 0


def run_driver(argv, env):
    """Run the driver; return (exit status, stdout, peak RSS in MB of its tree)."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, start_new_session=True)

    def kill():
        log(f"run exceeded {RUN_TIMEOUT_S} s, killing it")
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    timer = threading.Timer(RUN_TIMEOUT_S, kill)
    timer.start()
    out = proc.stdout.read().decode()
    proc.stdout.close()
    # wait4 reports the largest RSS of the driver and every descendant it reaped
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    timer.cancel()
    try:
        os.killpg(proc.pid, signal.SIGKILL)  # nothing of the run may outlive it
    except ProcessLookupError:
        pass
    return proc.returncode, out, usage.ru_maxrss / 1024.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not all(os.path.exists(p) for p in ("dune-project", "lib", "bin", "perfbench/dune")):
        log("run this from the root of a swpm checkout (dune-project, lib/, bin/ not found)")
        return 2
    if not build():
        log("build failed")
        return 2

    root = os.getcwd()
    work = os.path.join(root, ".bench_work", f"{args.workload}-{os.getpid()}")
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    argv = [os.path.join(root, DRIVER), "run",
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--expected", os.path.join(root, "perfbench", "expected.json"),
            "--swmodel", os.path.join(root, SWMODEL),
            "--work", work]
    if args.trace:
        argv += ["--trace-out", os.path.join(out_dir, f"trace-{args.workload}.json")]
    # temp files (ephemeral shard journals) stay inside the checkout
    env = dict(os.environ, TMPDIR=work)
    try:
        status, out, rss_mb = run_driver(argv, env)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = out.splitlines()
    if status != 0 or not lines:
        sys.stderr.write(out)  # no result line on failure
        log(f"driver exited with status {status}")
        return 1
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    if not args.trace:
        result["metrics"]["peak_rss_mb"] = {"value": rss_mb, "unit": "MB"}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
