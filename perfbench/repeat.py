#!/usr/bin/env python3
"""Repeats one workload of the end-to-end benchmark and summarizes it.

    python3 perfbench/repeat.py --workload control [--runs 10] [--seconds 10]
        [--seed0 1] [--traced 2] [--baseline OTHER_CHECKOUT]

Run from the root of a checkout. Each untraced run uses a new seed
(seed0, seed0 + 1, ...). For every end-to-end metric it prints the median,
the first and third quartiles (statistics.quantiles(values, n=4)) and the
spread (q3 - q1) / median next to the metric's bound in BENCHMARK.json;
"!" marks a spread above a third of the bound, "!!" one above the bound.
It also prints the share of failed transmissions of every run.

--baseline runs the same seeds in a second checkout, alternating which
side goes first in each pair, and adds the change of each median against
the baseline's. --traced runs that many traced runs after the untraced ones
and prints each per-layer metric's median, trace.overhead_pct among them.
The summary is also written to .bench_out/repeat-<workload>.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(root, workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"run failed in {root} (seed {seed})")
    return json.loads(lines[-1])


def summarize(runs):
    values = {}
    for r in runs:
        for name, m in r["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    out = {}
    for name, v in values.items():
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (med, med, med)
        spread = (q3 - q1) / abs(med) if med else 0.0
        out[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                     "values": v}
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--traced", type=int, default=0)
    parser.add_argument("--baseline", default=None)
    args = parser.parse_args()

    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]

    cand, base = [], []
    for i in range(args.runs):
        seed = args.seed0 + i
        order = [(root, cand)]
        if args.baseline:
            order.append((args.baseline, base))
            if i % 2:
                order.reverse()
        for where, sink in order:
            r = run_once(where, args.workload, seed, seconds, 0)
            sink.append(r)
            print(f"run {i + 1}/{args.runs} seed {seed} "
                  f"{'base' if sink is base else 'cand'}: "
                  f"attempted {r['attempted']} failed {r['failed']} "
                  f"correct {r['correct']}", file=sys.stderr)

    summary = {"workload": args.workload, "seconds": seconds,
               "candidate": summarize(cand),
               "failed_share": [r["failed"] / r["attempted"] for r in cand]}
    if base:
        summary["baseline"] = summarize(base)

    print(f"{args.workload}: {len(cand)} runs of {seconds} s")
    print(f"{'metric':30} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}" + ("  vs base" if base else ""))
    for name, s in summary["candidate"].items():
        bound = bounds.get(name, 0)
        mark = ""
        if bound and name != "setup_s":
            mark = "!!" if s["spread"] > bound else "!" if s["spread"] > bound / 3 else ""
        line = (f"{name:30} {s['median']:12.4f} {s['q1']:12.4f} "
                f"{s['q3']:12.4f} {s['spread']:8.3f} {bound:6.2f} {mark:2}")
        if base:
            b = summary["baseline"][name]["median"]
            line += f" {((s['median'] - b) / b * 100 if b else 0):+7.1f}%"
        print(line)
    print("failed share per run:", summary["failed_share"])

    if args.traced:
        traced = [run_once(root, args.workload, args.seed0 + args.runs + i,
                           seconds, 1) for i in range(args.traced)]
        summary["traced"] = summarize(traced)
        print(f"\ntraced: {len(traced)} runs (medians)")
        for name, s in summary["traced"].items():
            print(f"  {name:36} {s['median']:12.4f}")

    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"repeat-{args.workload}.json"), "w") as f:
        json.dump(summary, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
