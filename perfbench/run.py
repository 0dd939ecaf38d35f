#!/usr/bin/env python3
"""flashsim benchmark: build flashbench, run one workload, print its metrics.

    python3 perfbench/run.py --workload block_gc|phone_fs|fleet --seed N \
        --seconds S --trace 0|1

Run it from the repository root. The first run configures and builds the
benchmark (and the library, from ../src) into .bench_build/; later runs only
re-check the build. Each workload run is its own flashbench process, so peak
RSS is never inherited from another workload.

--trace 0 runs the workload once and reports the end-to-end metrics.
--trace 1 runs it untraced and then traced (timing decorators around the
objects handed to the library), reports the per-layer metrics and the
tracing overhead, and fails the output check unless both runs produced the
same simulated-output digest.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. Everything else goes to stdout before it or to stderr.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "runs")
BINARY = os.path.join(BUILD_DIR, "flashbench")
WORKLOADS = ("block_gc", "phone_fs", "fleet")
# Two flashbench processes (untraced, traced) must fit the 180 s run limit.
RUN_TIMEOUT_S = 80
HOST_PAGE_BYTES = 4096
MIB = 1024 * 1024


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configure once, then (re)build; compiler output goes to stderr."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "flashbench", "-j", jobs],
        check=True, stdout=sys.stderr)


def run_flashbench(args, traced):
    """Runs one flashbench process and returns its JSON result line."""
    tag = "%s-seed%d%s" % (args.workload, args.seed, "-traced" if traced else "")
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--digest-out", os.path.join(OUT_DIR, tag + ".digest.txt")]
    if traced:
        cmd += ["--trace", "--spans", os.path.join(OUT_DIR, tag + ".spans.jsonl")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                          check=True, text=True)
    line = proc.stdout.strip().splitlines()[-1]
    with open(os.path.join(OUT_DIR, tag + ".result.json"), "w") as out:
        out.write(line + "\n")
    return json.loads(line)


def metric(value, unit):
    return {"value": value, "unit": unit}


def median_rate(rounds, key, scale):
    return statistics.median(
        r[key] / scale / r["cpu_s"] * r["slowdown"] for r in rounds)


def end_to_end(result):
    """Mean set-up time and median round rates, in reference-host seconds.

    Set-up and measured phases are timed on the process's CPU clock, which
    leaves out time the host gave to other tenants. What the CPU clock still
    sees -- other tenants slowing the cores, caches and memory this process
    shares with them -- the host probe measures next to every phase, and each
    time is divided by the probe's slowdown at that moment. Set-up takes the
    mean, not the median: the fleet's spec parse runs at one of two speeds
    depending on the host's state, and a median over ten set-ups jumps
    between the two.
    """
    rounds = result["rounds"]
    setups = [s / slow for s, slow in
              zip(result["setup_samples"], result["setup_slowdowns"])]
    return {
        "setup_s": metric(statistics.mean(setups), "s"),
        "host_pages_per_s": metric(
            median_rate(rounds, "host_bytes", HOST_PAGE_BYTES), "1/s"),
        "app_mib_per_s": metric(median_rate(rounds, "app_bytes", MIB), "MiB/s"),
        "devices_per_s": metric(median_rate(rounds, "devices", 1), "1/s"),
        # The host probe's buffers are resident from process start to end.
        "peak_rss_mib": metric(
            (result["maxrss_kib"] - result["probe_kib"]) / 1024.0, "MiB"),
    }


def per_layer(plain, traced):
    metrics = {name: metric(v["value"], v["unit"])
               for name, v in traced["layers"].items()}
    metrics["trace.overhead"] = metric(traced["cpu_s"] / plain["cpu_s"], "ratio")
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    build()
    os.makedirs(OUT_DIR, exist_ok=True)
    plain = run_flashbench(args, traced=False)
    results = [plain]
    if args.trace:
        traced = run_flashbench(args, traced=True)
        results.append(traced)

    errors = [e for r in results for e in r["errors"]]
    failed = plain["failed"]
    if args.trace:
        # Both runs simulate the same operations; count each failure once.
        failed = max(failed, traced["failed"])
        if traced["digest"] != plain["digest"]:
            errors.append("traced digest %s != untraced digest %s"
                          % (traced["digest"], plain["digest"]))
            failed += 1
    for e in errors:
        log("check failed: " + e)

    metrics = per_layer(plain, traced) if args.trace else end_to_end(plain)
    print("workload %s seed %d: %d rounds, digest %s"
          % (args.workload, args.seed, len(plain["rounds"]), plain["digest"]))
    for name, m in metrics.items():
        print("  %-40s %14.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({
        "correct": not errors,
        "attempted": max(1, plain["attempted"]),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError, ValueError, KeyError, IndexError) as err:
        log("benchmark failed: %s" % err)
        sys.exit(1)
