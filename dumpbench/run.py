#!/usr/bin/env python3
"""Dump-to-keys benchmark: the command BENCHMARK.json names.

Builds the benchmark binary from this checkout's sources (first run
only), makes the workload's captures from --seed, measures, and
forwards the binary's report. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

    python3 dumpbench/run.py --workload e4_attack --seed 1 \
        --seconds 45 --trace 0

Everything it writes goes under .bench_build/ in the checkout.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "dumpbench")
WORK = os.path.join(ROOT, ".bench_build", "dumpbench-work")
WORKLOADS = ("e4_attack", "e3_mine", "served_decay")


def fail(msg):
    print("dumpbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then let the build tool skip up-to-date work."""
    if not os.path.isfile(os.path.join(ROOT, "src", "attack", "key_miner.cc")):
        fail("no repository sources next to the benchmark; "
             "nothing to build")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    if subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(BUILD, "dumpbench")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    binary = build()
    work = os.path.join(WORK, "%s-%d" % (args.workload, args.seed))
    os.makedirs(work, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--dir", work]
    if subprocess.run([binary, "gen"] + common,
                      stdout=sys.stderr).returncode != 0:
        fail("capture generation failed")
    run = subprocess.run(
        [binary, "run"] + common + ["--seconds", "%g" % args.seconds,
                                    "--trace", str(args.trace)],
        stdout=subprocess.PIPE, text=True)
    lines = run.stdout.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("the benchmark printed no result (exit %d)" % run.returncode)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != declared_metrics(args.trace):
        fail("reported metrics differ from BENCHMARK.json")
    print(json.dumps(result))
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
