#!/usr/bin/env python3
"""Negative self-test of the benchmark's correctness checks.

    python3 perfbench/selftest.py [--seconds 1]

Run from the root of a checkout. Runs a short clean run of each workload the
faults use, then one short run per injected fault, and shows that the
matching check fires and that the failed transmissions are counted:

    hide     a subscriber hides three receipts (faults::HidingBehavior via
             ComponentOptions::pipe_wrapper)      -> logged, audit
    corrupt  one stored record is corrupted
             (LogServer::CorruptRecordForTest)    -> store, merkle_root
    swallow  the benchmark's callback swallows
             one delivery                         -> delivery, counters
    lag      replica 2 stops ingesting after the
             warm-up and is left behind           -> logged, replicas_converge

Exits 0 when every clean run reports 0 failed with every check quiet and
every fault run trips its checks with at least one failed transmission.
"""
import argparse
import json
import os
import subprocess
import sys

CASES = [
    # (fault, workload, checks that must fire)
    (None, "control", []),
    (None, "ledger", []),
    ("hide", "control", ["logged", "audit"]),
    ("corrupt", "control", ["store", "merkle_root"]),
    ("swallow", "control", ["delivery", "counters"]),
    ("lag", "ledger", ["logged", "replicas_converge"]),
]


def run(workload, fault, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "7", "--seconds", str(seconds), "--trace", "0"]
    if fault:
        cmd += ["--fault", fault]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload}/{fault}: run failed\n{proc.stderr}")
    fired = {}
    for line in proc.stderr.splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[0] == "check":
            fired[parts[1]] = int(parts[2])
    return json.loads(lines[-1]), fired


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=1)
    args = parser.parse_args()
    if not os.path.exists("perfbench/run.py"):
        print("run from the root of a checkout", file=sys.stderr)
        return 2

    ok = True
    print(f"{'fault':8} {'workload':8} {'attempted':>9} {'failed':>6} "
          f"{'correct':>7}  checks fired")
    for fault, workload, expect in CASES:
        result, fired = run(workload, fault, args.seconds)
        firing = sorted(name for name, n in fired.items() if n > 0)
        if fault is None:
            passed = result["failed"] == 0 and result["correct"] and not firing
        else:
            passed = result["failed"] > 0 and all(c in firing for c in expect)
        ok &= passed
        print(f"{fault or 'none':8} {workload:8} {result['attempted']:9} "
              f"{result['failed']:6} {str(result['correct']):>7}  "
              f"{', '.join(firing) or '-'}  "
              f"(expect {', '.join(expect) or 'none'})  "
              f"{'PASS' if passed else 'FAIL'}")
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
