#!/usr/bin/env python3
"""Rerun one benchmark workload and report the spread of every metric.

Run from the repository root:

    python3 pricebench/spread.py --workload wire-reads-fast-100k --runs 10

Each run uses the command in BENCHMARK.json with the next seed (or the
same seed with --same-seed). For every metric the report gives the
median, the quartiles (statistics.quantiles, n=4), the quartile spread
and the relative range (max - min) / median, both as shares of the
median, and the sample counts behind it. host.ref_ms, a fixed kernel
that does not touch the program, sampled across each run, and
host.steal_frac, the share of the machine's CPU time the hypervisor stole
during the measured segments, are printed beside each run so a shift can
be told apart as host drift or program change; the last column is the quartile spread of the metric divided by
its run's host.ref_ms (multiplied, for a rate), which stays small when
the metric only follows the host.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds, trace):
    args = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    proc = subprocess.run(args, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
    result = json.loads(lines[-1])
    samples, host = {}, {}
    for line in lines[:-1]:
        words = line.split()
        if len(words) == 5 and words[0] in ("metric", "layer"):
            samples[words[1]] = int(words[4].removeprefix("samples="))
        elif len(words) == 2 and words[0] in ("host.ref_ms", "host.steal_frac"):
            host[words[0]] = float(words[1])
    return result, samples, host


def quartile_spread(xs):
    """(q3 - q1) / median, as the acceptance check computes it."""
    med = statistics.median(xs)
    if len(xs) < 2 or not med:
        return float("nan")
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return (q3 - q1) / abs(med)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seed", type=int, default=1, help="first seed")
    parser.add_argument("--same-seed", action="store_true")
    opts = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = opts.seconds or bench["run_seconds"]
    values, counts, host_refs, steals = {}, {}, [], []
    for i in range(opts.runs):
        seed = opts.seed if opts.same_seed else opts.seed + i
        result, samples, host = run_once(
            bench["command"], opts.workload, seed, seconds, opts.trace)
        host_refs.append(host.get("host.ref_ms"))
        steals.append(host.get("host.steal_frac"))
        print(f"run {i + 1}/{opts.runs} seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              f"host.ref_ms={host_refs[-1]} host.steal_frac={steals[-1]}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append((metric["value"], metric["unit"]))
            counts.setdefault(name, []).append(samples.get(name, 0))

    names = list(values)
    print("per run: host.ref_ms host.steal_frac | " + " ".join(names))
    for i, (ref, steal) in enumerate(zip(host_refs, steals)):
        row = " ".join(f"{values[name][i][0]:.4g}" for name in names)
        print(f"  {ref:.4g} {steal:.4f} | {row}")
    header = (f"{'metric':32} {'unit':6} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'iqr/med':>8} {'range/med':>9} {'samples':>11} {'per-ref iqr/med':>15}")
    print(header)
    for name, pairs in values.items():
        xs = [v for v, _ in pairs]
        n = counts[name]
        spread = quartile_spread(xs)
        # A rate moves against a time: scale it by the reference instead.
        rate = pairs[0][1].startswith("1/")
        per_ref = (quartile_spread([x * r if rate else x / r for x, r in zip(xs, host_refs)])
                   if None not in host_refs else float("nan"))
        med = statistics.median(xs)
        q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (med, med, med)
        scale = abs(med) if med else float("nan")
        print(f"{name:32} {pairs[0][1]:6} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{spread:8.4f} {(max(xs) - min(xs)) / scale:9.4f} "
              f"{f'{min(n)}..{max(n)}':>11} {per_ref:15.4f}")
    for name, xs in (("host.ref_ms", host_refs), ("host.steal_frac", steals)):
        xs = [x for x in xs if x is not None]
        if xs:
            print(f"{name + ' (beside)':32} {'':6} {statistics.median(xs):12.6g} "
                  f"min {min(xs):.4g} max {max(xs):.4g}")


if __name__ == "__main__":
    main()
