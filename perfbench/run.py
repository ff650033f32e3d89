#!/usr/bin/env python3
"""The repository benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Run from the root of a checkout. The first call configures and builds
perfbench/CMakeLists.txt (the library plus the perfbench binary) into .bench_build/;
later calls only bring that build up to date. Each run prints every metric
it measured by name, with unit and sample count, then a final JSON line
{"correct", "attempted", "failed", "metrics"} holding the end-to-end
metrics of BENCHMARK.json (--trace 0) or its per-layer metrics (--trace 1).
Workload sizes live in perfbench/workloads.json. The exit code is non-zero
when any answer was wrong, the run was void, or the build failed.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench", "perfbench")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the binary; build output goes to stderr."""
    out = os.path.join(BUILD, "perfbench")
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", out, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build failed: " + " ".join(cmd))
            return False
    return True


def load_json(path):
    with open(path) as f:
        return json.load(f)


def param_flags(params):
    flags = []
    for name, value in sorted(params.items()):
        if isinstance(value, list):
            value = ",".join(str(v) for v in value)
        flags += ["--param", "%s=%s" % (name, value)]
    return flags


def run_once(workload, seed, seconds, trace, config, smoke):
    """Runs the binary once; returns (ok, metrics, info, result) where
    metrics maps name -> (value, unit, samples)."""
    params = dict(config["workloads"][workload]["params"])
    if smoke:
        params.update({k: v for k, v in config["smoke"]["params"].items()
                       if k in params})
    work = os.path.join(BUILD, "work", "%s-%d" % (workload, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    traces = os.path.join(BUILD, "traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", str(trace),
           "--work-dir", work,
           "--trace-out", os.path.join(traces, "%s-seed%d.jsonl"
                                       % (workload, seed))]
    cmd += param_flags(params)
    # Its own process group, so that a timeout also stops the serving
    # workers the binary forks.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log("perfbench: %s timed out" % workload)
        return False, {}, {}, None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics, info, result = {}, {}, None
    for line in stdout.splitlines():
        f = line.split("\t")
        if f[0] == "metric" and len(f) == 5:
            metrics[f[1]] = (float(f[3]), f[2], int(f[4]))
        elif f[0] == "info" and len(f) == 3:
            info[f[1]] = f[2]
        elif f[0] == "result" and len(f) == 4:
            result = (f[1] == "1", int(f[2]), int(f[3]))
    if proc.returncode != 0 or result is None:
        log("perfbench: %s exited with code %d" % (workload, proc.returncode))
        return False, metrics, info, None
    return True, metrics, info, result


def print_table(workload, seed, trace, metrics, info, listed):
    print("== %s seed=%d trace=%d  %s" % (
        workload, seed, trace,
        " ".join("%s=%s" % kv for kv in sorted(info.items()))))
    for name in sorted(set(metrics) | set(listed)):
        if name in metrics:
            value, unit, n = metrics[name]
            print("  %-34s %16.6g %-9s n=%d" % (name, value, unit, n))
        else:
            print("  %-34s %16s %-9s n=0  (layer not run by this workload)"
                  % (name, "n/a", listed[name]))


def contract_metrics(metrics, spec):
    """The metrics BENCHMARK.json lists for this mode. A missing end-to-end
    metric is an error; a per-layer metric of a layer the workload does not
    run is reported as 0 (its sample count above is 0)."""
    out, missing = {}, []
    for m in spec:
        if m["name"] in metrics:
            value, _, _ = metrics[m["name"]]
            out[m["name"]] = {"value": value, "unit": m["unit"]}
        else:
            missing.append(m["name"])
            out[m["name"]] = {"value": 0.0, "unit": m["unit"]}
    return out, missing


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="a workload of BENCHMARK.json, or 'all'")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, for the smoke test")
    args = ap.parse_args()

    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    config = load_json(os.path.join(HERE, "workloads.json"))
    # Every workload of workloads.json runs by name and under 'all';
    # BENCHMARK.json lists the ones steady enough to gate a change on.
    names = list(config["workloads"])
    if args.workload != "all" and args.workload not in names:
        log("perfbench: unknown workload %r (have %s)"
            % (args.workload, ", ".join(names)))
        return 2
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    if args.smoke:
        seconds = config["smoke"]["seconds"]
    if not build():
        return 1

    runs = ([(w, t) for w in names for t in (0, 1)] if args.workload == "all"
            else [(args.workload, args.trace)])
    all_ok, correct, attempted, failed, summary = True, True, 0, 0, {}
    for workload, trace in runs:
        spec = bench["per_layer"] if trace else bench["end_to_end"]
        ok, metrics, info, result = run_once(workload, args.seed, seconds,
                                             trace, config, args.smoke)
        print_table(workload, args.seed, trace, metrics, info,
                    {m["name"]: m["unit"] for m in spec})
        # dict_serve is not listed in BENCHMARK.json, so the traced run of
        # dict_batch also makes a traced dict_serve run and carries its
        # serve.* and gen.* metrics: every layer is measured on a listed
        # workload.
        if trace and ok and workload == "dict_batch":
            ok, more, more_info, more_result = run_once(
                "dict_serve", args.seed, seconds, 1, config, args.smoke)
            print_table("dict_serve", args.seed, trace, more, more_info, {})
            if ok:
                metrics.update({n: v for n, v in more.items()
                                if n.startswith(("serve.", "gen."))})
                result = (result[0] and more_result[0],
                          result[1] + more_result[1],
                          result[2] + more_result[2])
        if not ok:
            all_ok = False
            continue
        chosen, missing = contract_metrics(metrics, spec)
        if missing and not trace:
            log("perfbench: %s did not measure %s" % (workload,
                                                      ", ".join(missing)))
            all_ok = False
        correct = correct and result[0]
        attempted += result[1]
        failed += result[2]
        for name, m in chosen.items():
            key = name if len(runs) == 1 else "%s/%s" % (workload, name)
            summary[key] = m
    if not all_ok:
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": summary}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
