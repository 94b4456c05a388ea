"""Run the benchmark over several seeds and print each metric's spread.

::

    python3 e2ebench/spread.py [--workloads a,b] [--seeds 1-10]
                               [--seconds 10] [--trace 0|1] [--out FILE]
    python3 e2ebench/spread.py --table FIRST.jsonl [SECOND.jsonl]

For every workload it runs ``run.py`` once per seed, one run at a time,
and prints per metric the median and the distance between the first and
third quartile (``statistics.quantiles(values, n=4)``) as a share of the
median.  ``--out`` also appends every raw result line, tagged with the
workload, seed, wall time and the run's summary lines from standard
error, to a JSON-lines file.

``--table`` prints the README's reference tables from such files: with
two files of untraced runs, each end-to-end metric's median and spread
in both sets and the shift of the second median against the first; with
one file of traced runs, each per-layer metric's median per workload.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = "table51_cold,table51_warm,service_eco,signoff"


def seeds_of(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def median_spread(values):
    mid = statistics.median(values)
    if len(values) < 2 or not mid:
        return mid, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return mid, (q3 - q1) / mid


def values_of(results, name):
    return [r["metrics"][name]["value"] for r in results]


def summarise(workload, results):
    walls = [r["wall_s"] for r in results]
    print(f"{workload}: {len(results)} runs of {min(walls):.0f}-"
          f"{max(walls):.0f} s, failed/attempted "
          f"{sorted({(r['failed'], r['attempted']) for r in results})}")
    for name, metric in results[0]["metrics"].items():
        mid, spread = median_spread(values_of(results, name))
        print(f"  {name:34s} median {mid:12.6g} "
              f"{metric['unit']:6s} spread {spread:6.3f}")


def load(path):
    by_workload = {}
    with open(path) as handle:
        for line in handle:
            row = json.loads(line)
            by_workload.setdefault(row["workload"], []).append(row)
    return by_workload


def print_tables(paths):
    sets = [load(path) for path in paths]
    first = sets[0]
    if len(sets) == 1:
        workloads = list(first)
        print("| per-layer metric | unit | "
              + " | ".join(f"`{w}`" for w in workloads) + " |")
        print("|---|---|" + "---|" * len(workloads))
        for name, metric in first[workloads[0]][0]["metrics"].items():
            cells = [
                f"{statistics.median(values_of(first[w], name)):.4g}"
                for w in workloads
            ]
            print(f"| `{name}` | {metric['unit']} | " + " | ".join(cells)
                  + " |")
        return
    second = sets[1]
    print("| workload | metric | unit | set 1 median | spread "
          "| set 2 median | spread | shift |")
    print("|---|---|---|---|---|---|---|---|")
    for workload, results in first.items():
        for name, metric in results[0]["metrics"].items():
            mid1, spread1 = median_spread(values_of(results, name))
            mid2, spread2 = median_spread(values_of(second[workload], name))
            shift = (mid2 / mid1 - 1.0) * 100.0 if mid1 else 0.0
            print(f"| `{workload}` | `{name}` | {metric['unit']} | "
                  f"{mid1:.4g} | {spread1:.3f} | {mid2:.4g} | "
                  f"{spread2:.3f} | {shift:+.1f}% |")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=WORKLOADS)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", default="10")
    parser.add_argument("--trace", default="0")
    parser.add_argument("--out")
    parser.add_argument("--table", nargs="+", metavar="FILE")
    args = parser.parse_args(argv)
    if args.table:
        print_tables(args.table)
        return
    for workload in args.workloads.split(","):
        results = []
        for seed in seeds_of(args.seeds):
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", args.seconds, "--trace", args.trace],
                capture_output=True, text=True,
            )
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr[-2000:])
                raise SystemExit(f"{workload} seed {seed} failed")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["wall_s"] = time.perf_counter() - start
            # the run's own summary lines (op kinds, period model)
            result["log"] = [
                line for line in proc.stderr.splitlines()
                if line.startswith((workload + ":", "PERIOD MODEL:"))
            ]
            results.append(result)
            if args.out:
                with open(args.out, "a") as handle:
                    handle.write(json.dumps(
                        {"workload": workload, "seed": seed, **result}
                    ) + "\n")
        summarise(workload, results)


if __name__ == "__main__":
    main()
