#!/usr/bin/env python3
"""Build and run the ASCEND benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (a CMake package that compiles the repository's libraries
from ../src) into .bench_build/perfbench, then runs one workload in its own
process. The last stdout line is the run's JSON result; the exit code is
non-zero when the build fails, the run fails or any output check fails.
`--workload all` runs every workload one after another.
"""

import argparse
import fcntl
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(__file__).resolve().parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
WORKLOADS = ["paper-offline", "fig8-dse"]
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure (once) and build; serialized by a lock so runs never race."""
    BUILD.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(BUILD.parent / "perfbench.lock", "w") as lock, open(BUILD / "build.log", "w") as out:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(PACKAGE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench", "-j", jobs])
        for cmd in steps:
            # Own process group, so a timeout stops make and the compilers too.
            proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT,
                                    start_new_session=True)
            try:
                rc = proc.wait(timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                rc = -1
            if rc != 0:
                out.flush()
                tail = (BUILD / "build.log").read_text(errors="replace").splitlines()[-30:]
                log("build failed:\n" + "\n".join(tail))
                # A failed configure must not leave a cache that skips it next time.
                if cmd[1] == "-S":
                    shutil.rmtree(BUILD, ignore_errors=True)
                return False
    return True


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_one(workload, seed, seconds, trace):
    """Run one workload; returns (exit code, result line or None)."""
    scratch = ROOT / ".bench_build" / f"run-{os.getpid()}-{workload}"
    scratch.mkdir(parents=True, exist_ok=True)
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--scratch", str(scratch)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"{workload}: no result within {RUN_TIMEOUT_S} s")
        return 1, None
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = out.rstrip("\n").split("\n")
    body, last = lines[:-1], lines[-1] if lines else ""
    if body:
        print("\n".join(body), flush=True)
    try:
        result = json.loads(last)
    except json.JSONDecodeError:
        log(f"{workload}: exited {proc.returncode} without a result line")
        return proc.returncode or 1, None
    want = expected_metrics(trace)
    if (sorted(result) != ["attempted", "correct", "failed", "metrics"]
            or sorted(result["metrics"]) != sorted(want)):
        log(f"{workload}: result line does not carry exactly the declared metrics")
        return 1, None
    return proc.returncode, last


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = p.parse_args()
    if not build():
        return 1
    if a.workload != "all":
        rc, line = run_one(a.workload, a.seed, a.seconds, a.trace)
        if line is not None:
            print(line, flush=True)
        return rc
    worst = 0
    for w in WORKLOADS:
        rc, line = run_one(w, a.seed, a.seconds, a.trace)
        print(f"== {w}: {line if line else 'no result'}", flush=True)
        worst = worst or rc
    return worst


if __name__ == "__main__":
    sys.exit(main())
