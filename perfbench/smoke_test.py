#!/usr/bin/env python3
"""Tiny-scale smoke test of the repository benchmark.

    python3 perfbench/smoke_test.py

Runs every workload, untraced and traced, at the tiny sizes of the "smoke"
section of perfbench/workloads.json and checks the final result line: all
answers correct, nothing failed, and every metric BENCHMARK.json lists
present. Then checks that the benchmark refuses to run, without printing a
result, in a directory holding only BENCHMARK.json and perfbench/. Exits
non-zero on the first failed check.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print("smoke_test: FAIL: " + msg)
    sys.exit(1)


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "all",
         "--smoke"], cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("run.py --workload all --smoke exited %d" % proc.returncode)
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        fail("incorrect or failed operations: %s" % lines[-1])
    for w in bench["workloads"]:
        for m in bench["end_to_end"] + bench["per_layer"]:
            key = "%s/%s" % (w["name"], m["name"])
            if key not in result["metrics"]:
                fail("missing metric " + key)
    for m in bench["end_to_end"]:
        for w in bench["workloads"]:
            if result["metrics"]["%s/%s" % (w["name"], m["name"])]["value"] <= 0:
                fail("end-to-end metric %s is not positive on %s"
                     % (m["name"], w["name"]))

    # Without the library sources there is nothing to build: the command
    # must fail and print no result.
    bare = os.path.join(ROOT, ".bench_build", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        cmd = bench["command"] + ["--workload", bench["workloads"][0]["name"],
                                  "--seed", "1", "--seconds", "1",
                                  "--trace", "0"]
        proc = subprocess.run(cmd, cwd=bare, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True,
                              timeout=180)
        if proc.returncode == 0 or "{" in proc.stdout:
            fail("the benchmark ran in a directory without sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("smoke_test: ok")


if __name__ == "__main__":
    main()
