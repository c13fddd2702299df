#!/usr/bin/env python3
"""Checks that the benchmark is steady: runs one workload once per seed
and reports, for every end-to-end metric, the spread of its values (the
distance between the first and third quartile as a share of the
median) against the metric's bound in BENCHMARK.json.

Run from the repository root:

    python3 perfbench/steady.py --workload sim-cold --seeds 1-10 --out a.json
    python3 perfbench/steady.py --workload sim-cold --seeds 11-20 --against a.json

A spread above a third of the bound is flagged; with --against, so is a
median that is worse than the earlier set's by more than the bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worsening(before, after, better):
    """How much worse the median of `after` is than that of `before`, as
    a share of the earlier median (negative when it improved)."""
    b, a = statistics.median(before), statistics.median(after)
    return (a - b) / b if better == "lower" else (b - a) / b


def seeds(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"seed {seed}: incorrect result {lines[-1]}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--out", help="write the per-seed values here")
    parser.add_argument("--against", help="values written by an earlier --out")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    values = {name: [] for name in metrics}
    for seed in seeds(args.seeds):
        measured = run(bench["command"], args.workload, seed, bench["run_seconds"])
        for name in metrics:
            values[name].append(measured[name])
        print(f"seed {seed}: " + " ".join(f"{n}={v:.6g}" for n, v in measured.items()),
              flush=True)
    earlier = None
    if args.against:
        with open(args.against) as f:
            earlier = json.load(f)
    steady = True
    for name, m in metrics.items():
        s = spread(values[name])
        flag = "" if s <= m["bound"] / 3 or name == "setup_s" else "  SPREAD ABOVE BOUND/3"
        line = (f"{args.workload:14} {name:12} median={statistics.median(values[name]):.6g} "
                f"spread={s:.4f} bound={m['bound']}")
        if earlier:
            w = worsening(earlier[name], values[name], m["better"])
            line += f" worse_by={w:+.4f}"
            if w > m["bound"]:
                flag += "  MEDIAN WORSE THAN BOUND"
        steady = steady and not flag
        print(line + flag)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(values, f)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
