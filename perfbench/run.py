#!/usr/bin/env python3
"""Build the serving benchmark from source and run one repetition.

Usage (from the repository root):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--record FILE]
    python3 perfbench/run.py --self-test

--record appends {"workload", "seed", "trace", "result"} to FILE, one run
per line, for perfbench/compare.py.

The program and the benchmark are compiled into .bench_build/ on the
first call (later calls rebuild only what changed). Build output goes to
standard error, so the last line of standard output is the benchmark's
JSON result. Traced runs write their Chrome trace under .bench_out/.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "serve", "service.hh")):
        fail("program sources not found under " + os.path.join(ROOT, "src"))
    jobs = str(os.cpu_count() or 2)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "servebench", "harness_test"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def run(cmd):
    """Run `cmd`, echoing its standard output; return (code, last line)."""
    last = ""
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            fail("timed out after %d s: %s" % (RUN_TIMEOUT_S, " ".join(cmd)))
    sys.stdout.write(out)
    lines = out.strip().splitlines()
    if lines:
        last = lines[-1]
    return proc.returncode, last


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--record")
    args = ap.parse_args()
    build()
    if args.self_test:
        sys.exit(run([os.path.join(BUILD, "harness_test")])[0])
    if not args.workload:
        fail("--workload is required")
    code, last = run([os.path.join(BUILD, "servebench"),
                      "--workload", args.workload, "--seed", str(args.seed),
                      "--seconds", str(args.seconds),
                      "--trace", str(args.trace), "--out-dir", OUT])
    if args.record and code == 0:
        with open(args.record, "a") as f:
            f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                "trace": args.trace,
                                "result": json.loads(last)}) + "\n")
    sys.exit(code)


if __name__ == "__main__":
    main()
