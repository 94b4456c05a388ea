"""Shared machinery of the end-to-end benchmark: the metric catalogue,
the measured loop and the per-layer probes.

Nothing here imports ``repro`` at module level, so ``run.py`` can refuse
to start (with a non-zero exit and no result line) when the source tree
is missing.
"""

from __future__ import annotations

import importlib
import os
import resource
import shutil
import statistics
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: stages of the Table 5.1 comparison graph, as ``branch:stage``
COMPARISON_STAGES: Tuple[str, ...] = (
    "sync:report.synth",
    "sync:sta",
    "sync:pnr",
    "sync:report.layout",
    "desync:import",
    "desync:group",
    "desync:ffsub",
    "desync:ddg",
    "desync:delays",
    "desync:network",
    "desync:constraints",
    "desync:report.synth",
    "desync:pnr",
    "desync:report.layout",
)

ECO_PATHS: Tuple[str, ...] = ("splice", "network", "deep")

#: end-to-end metrics: name -> (unit, better).  Every workload reports
#: every one of them from its untraced run.
END_TO_END: Dict[str, Tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "op_s.p50": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "desync_cell_area_um2": ("um2", "lower"),
    "desync_period_ns": ("sim_ns", "lower"),
}


def _per_layer() -> Dict[str, str]:
    """Per-layer metrics: name -> unit.  Values are per measured op
    (totals divided by the op count) unless the name says otherwise."""
    out = {
        "engine.stage_s." + stage.replace(":", "."): "s"
        for stage in COMPARISON_STAGES
    }
    out.update({
        "designs.generate_s": "s",
        "engine.cache.put_s": "s",
        "engine.cache.put_mb": "MB",
        "engine.cache.load_s": "s",
        "engine.cache.load_mb": "MB",
        "engine.cache.load_mb_per_s": "MB/s",
        "engine.cache.hit_ratio": "ratio",
        "engine.key_s": "s",
        "engine.run_overhead_s": "s",
        "netlist.copy_from_s": "s",
        "netlist.write_module_s": "s",
        "flow.incr.apply_s": "s",
    })
    out.update({f"flow.incr.path.{path}": "ratio" for path in ECO_PATHS})
    out.update({
        "service.submit_s": "s",
        "service.queue_wait_s": "s",
        "service.job_run_s": "s",
        "service.client_overhead_s": "s",
        "service.polls_per_job": "count",
        "service.result_bytes": "bytes",
        "sim.run_until_s": "s",
        "sim.events": "count",
        "sim.events_per_s": "1/s",
        "sim.batch.run_s": "s",
        "sim.batch.lane_evals_per_s": "1/s",
        "variability.run_study_s": "s",
        "variability.chips_per_s": "1/s",
        "sta.min_clock_period_s": "s",
        "trace.overhead_pct": "%",
    })
    return out


PER_LAYER: Dict[str, str] = _per_layer()

#: totals whose per-op value is a rate or a share of two other totals:
#: name -> (numerator total, denominator total)
_RATIOS: Dict[str, Tuple[str, str]] = {
    "engine.cache.load_mb_per_s": ("engine.cache.load_mb", "engine.cache.load_s"),
    "engine.cache.hit_ratio": ("cache.hits", "cache.lookups"),
    "sim.events_per_s": ("sim.events", "sim.run_until_s"),
    "sim.batch.lane_evals_per_s": ("sim.batch.lane_evals", "sim.batch.run_s"),
    "variability.chips_per_s": ("variability.chips", "variability.run_study_s"),
}
_RATIOS.update({
    f"flow.incr.path.{path}": (f"eco.path.{path}", "eco.jobs")
    for path in ECO_PATHS
})


class CheckError(AssertionError):
    """An output of the program is wrong."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# scratch space
# ----------------------------------------------------------------------
class Scratch:
    """A fresh directory inside the checkout for one run's caches and
    service run dir; removed when the run ends.

    Every run gets its own, so no run ever reads a cache another run
    (or another commit) wrote: stage keys do not cover code changes.
    """

    def __init__(self, root: str):
        base = os.path.join(root, ".e2ebench_tmp")
        os.makedirs(base, exist_ok=True)
        self.path = tempfile.mkdtemp(prefix="run-", dir=base)

    def sub(self, name: str) -> str:
        path = os.path.join(self.path, name)
        os.makedirs(path, exist_ok=True)
        return path

    def remove(self, name: str) -> None:
        shutil.rmtree(os.path.join(self.path, name), ignore_errors=True)

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        base = os.path.dirname(self.path)
        try:
            os.rmdir(base)
        except OSError:
            pass


# ----------------------------------------------------------------------
# per-layer probes
# ----------------------------------------------------------------------
class Probes:
    """Totals for the per-layer metrics of one traced loop.

    ``install`` wraps public functions of the program's layers from
    outside (the program itself is not instrumented); ``remove`` puts
    the originals back.  While not installed, ``add`` ignores
    everything not marked ``always``.
    """

    def __init__(self):
        self.enabled = False
        self.totals: Dict[str, float] = {}
        self._lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []
        self._loaded: set = set()

    def add(self, name: str, value: float, always: bool = False) -> None:
        """Add to a total; only while installed unless ``always``."""
        if not (self.enabled or always):
            return
        with self._lock:
            self.totals[name] = self.totals.get(name, 0.0) + value

    def _wrap(self, owner, attr: str, metric: str,
              after: Optional[Callable] = None) -> None:
        original = getattr(owner, attr)
        probes = self

        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                probes.add(metric, time.perf_counter() - start)
                if after is not None:
                    after(args, kwargs)

        timed.__wrapped__ = original
        setattr(owner, attr, timed)
        self._patches.append((owner, attr, original))

    def install(self) -> None:
        """Wrap the layer entry points the per-layer metrics time."""
        self.enabled = True
        self._loaded.clear()
        cache_mod = importlib.import_module("repro.engine.cache")
        executor = importlib.import_module("repro.engine.executor")
        netlist = importlib.import_module("repro.netlist.core")
        jobs = importlib.import_module("repro.service.jobs")
        incremental = importlib.import_module("repro.flow.incremental")
        simulator = importlib.import_module("repro.sim.simulator")
        analysis = importlib.import_module("repro.sta.analysis")
        implementation = importlib.import_module("repro.flow.implementation")

        def put_bytes(args, _kwargs):
            cache, key = args[0], args[1]
            folder = os.path.join(cache.directory, key[:2])
            size = sum(
                entry.stat().st_size
                for entry in os.scandir(folder)
                if entry.name.startswith(key) and entry.name.endswith(".pkl")
            )
            self.add("engine.cache.put_mb", size / 1e6)

        def load_bytes(args, _kwargs):
            artifact = args[0]
            if id(artifact) not in self._loaded:
                self._loaded.add(id(artifact))
                self.add(
                    "engine.cache.load_mb",
                    os.path.getsize(artifact.path) / 1e6,
                )

        self._wrap(cache_mod.ArtifactCache, "put", "engine.cache.put_s",
                   after=put_bytes)
        self._wrap(cache_mod.ArtifactCache, "get_lazy", "engine.cache.load_s")
        self._wrap(cache_mod.LazyArtifact, "load", "engine.cache.load_s",
                   after=load_bytes)
        self._wrap(executor, "stable_hash", "engine.key_s")
        self._wrap(netlist.Module, "copy_from", "netlist.copy_from_s")
        self._wrap(jobs, "write_module", "netlist.write_module_s")
        self._wrap(incremental.IncrementalSession, "apply",
                   "flow.incr.apply_s")
        self._wrap(simulator.Simulator, "run_until", "sim.run_until_s")
        # callers bind min_clock_period at import time or per call
        for owner in (analysis, implementation, incremental):
            self._wrap(owner, "min_clock_period", "sta.min_clock_period_s")

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self.enabled = False

    def per_op(self, ops: int, overhead_pct: float) -> Dict[str, float]:
        """Every per-layer metric, as a value per measured op."""
        totals = self.totals
        out: Dict[str, float] = {}
        for name in PER_LAYER:
            if name == "trace.overhead_pct":
                out[name] = overhead_pct
            elif name in _RATIOS:
                num, den = _RATIOS[name]
                denominator = totals.get(den, 0.0)
                out[name] = (
                    totals.get(num, 0.0) / denominator if denominator else 0.0
                )
            else:
                out[name] = totals.get(name, 0.0) / max(ops, 1)
        return out


# ----------------------------------------------------------------------
# the measured loop
# ----------------------------------------------------------------------
@dataclass
class OpResult:
    """One attempted operation: its wall time, the kind of work it did
    (ops of one kind are alike in cost) and the error that failed it,
    if any."""

    seconds: Optional[float] = None
    kind: str = ""
    error: Optional[str] = None


@dataclass
class LoopStats:
    attempted: int = 0
    failed: int = 0
    times: List[float] = field(default_factory=list)
    kinds: List[str] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    #: peak resident set once set-up and the first round are done
    peak_rss_mb: float = 0.0

    def record(self, op_input, result: OpResult) -> None:
        self.attempted += 1
        if result.error is not None:
            self.failed += 1
            self.failures.append(f"{op_input!r}: {result.error}")
        elif result.seconds is not None:
            self.times.append(result.seconds)
            self.kinds.append(result.kind)

    @property
    def p50(self) -> float:
        return median(self.times)

    @property
    def ops_per_s(self) -> float:
        # time inside the ops only: the benchmark's own output checks
        # between ops are not the program's work
        busy = sum(self.times)
        return len(self.times) / busy if busy > 0 else 0.0

    def of_kind(self, kind: str) -> List[float]:
        return [t for t, k in zip(self.times, self.kinds) if k == kind]


@dataclass
class TracedStats(LoopStats):
    #: traced over untraced wall time of the same input, one per pair
    pair_ratios: List[float] = field(default_factory=list)

    def overhead_pct(self, plain: LoopStats) -> float:
        """The probes' cost on the op time, in percent.

        From pairs of the same input run untraced and traced where the
        workload can repeat an input; otherwise from the ops of the most
        common kind on each side, so that like is compared with like."""
        if self.pair_ratios:
            return (median(self.pair_ratios) - 1.0) * 100.0
        kind = max(set(plain.kinds), key=plain.kinds.count, default="")
        traced, untraced = self.of_kind(kind), plain.of_kind(kind)
        if not traced or not untraced:
            return 0.0
        return (median(traced) / median(untraced) - 1.0) * 100.0


def _attempt(workload, op_input) -> OpResult:
    try:
        return workload.run_op(op_input)
    except CheckError:
        raise
    except Exception as exc:  # a failed op is logged; the run goes on
        traceback.print_exc(file=sys.stderr)
        return OpResult(error=f"{type(exc).__name__}: {exc}")


def _traced(workload, op_input, probes: Probes) -> OpResult:
    probes.install()
    try:
        return _attempt(workload, op_input)
    finally:
        probes.remove()


def run_loop(workload, seconds: float, probes: Optional[Probes] = None
             ) -> Tuple[LoopStats, TracedStats]:
    """Run whole rounds of ``workload`` until ``seconds`` have passed.

    Every round attempts the same operations, so the share of failed
    operations is the same whatever the seed and the run length.

    With ``probes``, a workload that can repeat an input
    (``workload.repeatable``) runs every input twice, untraced and
    traced, in an order that swaps from one input to the next, and runs
    until both orders are as common; one that cannot alternates untraced
    and traced inputs and runs until both halves hold as many timed ops.
    Returns the untraced and the traced stats.
    """
    plain, traced = LoopStats(), TracedStats()
    index = pairs = 0
    start = time.perf_counter()
    while True:
        for op_input in workload.round_inputs(index):
            if probes is None:
                plain.record(op_input, _attempt(workload, op_input))
            elif workload.repeatable:
                pairs += 1
                if pairs % 2:
                    without = _attempt(workload, op_input)
                    with_probes = _traced(workload, op_input, probes)
                else:
                    with_probes = _traced(workload, op_input, probes)
                    without = _attempt(workload, op_input)
                plain.record(op_input, without)
                traced.record(op_input, with_probes)
                if with_probes.error is None and without.error is None:
                    traced.pair_ratios.append(
                        with_probes.seconds / without.seconds
                    )
            elif len(plain.times) > len(traced.times):
                traced.record(op_input, _traced(workload, op_input, probes))
            else:
                plain.record(op_input, _attempt(workload, op_input))
        if index == 0:
            # after one round, not the whole loop: how many rounds fit
            # in a run depends on the machine's speed, and the flow keeps
            # every timed module alive (see README), so peak memory
            # would grow with the round count
            plain.peak_rss_mb = peak_rss_mb()
        index += 1
        elapsed = time.perf_counter() - start
        if probes is None:
            balanced = True
        elif workload.repeatable:
            # as many pairs timed traced-first as untraced-first
            balanced = pairs % 2 == 0
        else:
            balanced = len(plain.times) == len(traced.times)
        # the 3x cap ends a traced loop whose traced ops keep failing
        if elapsed >= seconds and (balanced or elapsed >= 3 * seconds):
            return plain, traced
