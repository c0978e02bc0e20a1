#!/usr/bin/env python3
"""Builds the end-to-end mining benchmark from this checkout and runs it.

    python3 perfbench/run.py --workload <tc-evict|mcf-skew|tc-tcp2> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The benchmark program (gtbench.cc) is compiled
together with the framework sources under src/ into $CARGO_TARGET_DIR (default
.bench_build); spill files and traces go to <build dir>/work. Build output
goes to stderr. The last line of stdout is gtbench's JSON result; if the
build or the run fails, no result is printed and the exit code is non-zero.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
# A run after the first (which also builds) must end within 180 s.
RUN_TIMEOUT_S = 170


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def run_quiet(cmd):
    """Runs a build step with its output on stderr; True on success."""
    return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                          stderr=sys.stderr).returncode == 0


def build(out):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        if not run_quiet(["cmake", "-S", BENCH_DIR, "-B", out,
                          "-DCMAKE_BUILD_TYPE=Release"]):
            return None
    if not run_quiet(["cmake", "--build", out, "--target", "gtbench",
                      "-j", jobs]):
        return None
    return os.path.join(out, "gtbench")


def stop_group(proc):
    """Kills what is left of gtbench's session (gtbench itself after a
    timeout, or the ranks of a gtbench that crashed mid-job) and waits, for at
    most 5 s, until the session is empty."""
    for _ in range(100):
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            return
        proc.poll()  # reaps gtbench once it has died
        time.sleep(0.05)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    out = build_dir()
    work = os.path.join(out, "work")
    os.makedirs(work, exist_ok=True)
    # Compiler and program temp files stay inside the checkout too.
    os.environ["TMPDIR"] = work
    binary = build(out)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--work-dir", work]
    # Own session, so a timeout can kill gtbench and its forked ranks.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc)
        proc.communicate()
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    stop_group(proc)

    lines = stdout.rstrip("\n").split("\n")
    result = None
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        pass
    ok = (proc.returncode == 0 and isinstance(result, dict) and
          set(result) == {"correct", "attempted", "failed", "metrics"})
    if not ok and result is not None:
        lines = lines[:-1]  # never print a result from a failed run
    sys.stdout.write("".join(line + "\n" for line in lines if line))
    if not ok:
        print("perfbench: gtbench exited with %d and no valid result"
              % proc.returncode, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
