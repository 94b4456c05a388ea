"""End-to-end benchmark of the desynchronization flow.

::

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1
                            [--size full|small]

Runs one workload (``table51_cold``, ``table51_warm``, ``service_eco``,
``signoff``) from the repository checkout it lives in, checks the
program's outputs, and prints one JSON object as the last line of
standard output::

    {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of an untraced run.
``--trace 1`` runs ops both untraced and under the per-layer probes,
and reports the per-layer metrics plus the probes' overhead on the op
time (``common.run_loop``).  A failed operation is logged
to standard error with its input and the run carries on; a wrong output
makes ``correct`` false.  ``--size small`` runs a reduced DLX (tests).
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full")
    parser.add_argument("--setup-only", action="store_true",
                        help="run the set-up alone and print its seconds")
    return parser.parse_args(argv)


def repeat_setup(args, runs: int) -> list:
    """Set-up seconds of ``runs`` further set-ups, each in a fresh
    process as the first one was (imports included), one at a time."""
    import subprocess

    command = [
        sys.executable, os.path.abspath(__file__),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", "0", "--size", args.size, "--setup-only",
    ]
    seconds = []
    for _ in range(runs):
        proc = subprocess.run(command, capture_output=True, text=True,
                              timeout=120, check=True)
        seconds.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return seconds


def run(args) -> dict:
    from common import (
        END_TO_END, PER_LAYER, CheckError, Probes, Scratch, run_loop,
    )
    from workloads import WORKLOADS, Context

    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; "
                         f"known: {', '.join(sorted(WORKLOADS))}")
    scratch = Scratch(ROOT)
    probes = Probes()
    workload = WORKLOADS[args.workload](
        Context(args.seed, args.size, scratch, probes)
    )
    correct = True
    try:
        workload.setup()
        setup_s = time.perf_counter() - START
        if args.setup_only:
            return {"setup_s": setup_s}
        if workload.setup_runs > 1:
            from common import median

            setup_s = median(
                [setup_s] + repeat_setup(args, workload.setup_runs - 1)
            )
        stats, traced = run_loop(
            workload, args.seconds, probes if args.trace else None
        )
        quality = workload.finish()
    except CheckError as exc:
        print(f"CHECK FAILED: {exc}", file=sys.stderr)
        correct = False
    finally:
        workload.close()
        scratch.close()
    if not correct:
        return {"correct": False, "attempted": 1, "failed": 0, "metrics": {}}
    for failure in stats.failures + traced.failures:
        print(f"FAILED OP: {failure}", file=sys.stderr)
    if args.trace:
        values = probes.per_op(len(traced.times),
                               traced.overhead_pct(stats))
        metrics = {
            name: {"value": values[name], "unit": PER_LAYER[name]}
            for name in PER_LAYER
        }
    else:
        values = {
            "setup_s": setup_s,
            "op_s.p50": stats.p50,
            "ops_per_s": stats.ops_per_s,
            "peak_rss_mb": stats.peak_rss_mb,
            **quality,
        }
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, (unit, _better) in END_TO_END.items()
        }
    for kind in sorted(set(stats.kinds) - {""}):
        times = stats.of_kind(kind)
        print(f"{args.workload}: {kind}: {len(times)} untraced ops, "
              f"{sum(times):.3f}s", file=sys.stderr)
    print(
        f"{args.workload}: {len(stats.times)} untraced and "
        f"{len(traced.times)} traced timed ops, p50 {stats.p50:.4f}s, "
        f"setup {setup_s:.2f}s",
        file=sys.stderr,
    )
    return {
        "correct": True,
        "attempted": stats.attempted + traced.attempted,
        "failed": stats.failed + traced.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    result = run(args)
    print(json.dumps(result))
    return 0 if result.get("correct", True) else 1


if __name__ == "__main__":
    sys.exit(main())
