#!/usr/bin/env python3
"""Runs the benchmark over several seeds and prints each end-to-end metric's
median and quartile spread (IQR / median) beside its bound in BENCHMARK.json.

    python3 perfbench/spread.py [--runs 10] [--seconds N] [--workload NAME ...] [--same-seed]

Run from the repository root.
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    spec = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--workload", action="append")
    ap.add_argument("--same-seed", action="store_true",
                    help="repeat seed 1 instead of seeds 1..runs")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    worst = 0.0
    for workload in workloads:
        values = {}
        for i in range(args.runs):
            seed = 1 if args.same_seed else i + 1
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(args.seconds), "--trace", "0"]
            out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            if out.returncode != 0:
                print(f"{workload} seed {seed}: exit {out.returncode}\n{out.stdout[-2000:]}{out.stderr[-2000:]}")
                sys.exit(1)
            lines = out.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            # The same rate per host second, unscaled by the host-speed probe.
            for line in lines:
                if line.startswith("# host speed: inst_per_s"):
                    values.setdefault("(host) inst_per_s", []).append(float(line.split()[-4]))
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"== {workload} ({args.runs} seeds, {args.seconds} s)")
        for name, vals in values.items():
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4)
            spread = (q[2] - q[0]) / med if med else float("inf")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                worst = max(worst, spread / bound)
                flag = " !" if spread > bound / 3 else ""
            print(f"  {name:20s} median {med:14.6g} spread {spread:8.4f} bound {bound}{flag}")
    print(f"worst spread/bound (setup_s excluded): {worst:.3f}")


if __name__ == "__main__":
    main()
