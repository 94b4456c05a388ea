"""The four workloads of the end-to-end benchmark.

Each workload has a set-up, a seeded round of operations, an op that
the loop times, and a ``finish`` that checks what is left to check and
returns the two design-quality metrics of its output.  Why each
workload exists is in README.md.
"""

from __future__ import annotations

import gc
import json
import sys
import time
from typing import Dict, List

import checks
import inputs
from common import COMPARISON_STAGES, OpResult, Probes, Scratch, check

#: DLX generator parameters: the full core, and a small one for tests
SIZES = {
    "full": {"registers": 32, "multiplier": True, "width": 32},
    "small": {"registers": 8, "multiplier": False, "width": 16},
}

#: Table 5.1 utilisation targets (paper: 95.06% sync, 91.16% desync)
SYNC_UTILIZATION = 0.95
DESYNC_UTILIZATION = 0.91

#: handshake items simulated to measure the steady-state period
PERIOD_ITEMS = 8

#: the period-model tolerance the test suite uses
#: (tests/test_power_variability_perf.py: rel=0.6)
PERIOD_MODEL_REL = 0.6


class Context:
    """What every workload receives: seed, size, scratch and probes."""

    def __init__(self, seed: int, size: str, scratch: Scratch,
                 probes: Probes):
        self.seed = seed
        self.size = size
        self.params = SIZES[size]
        self.scratch = scratch
        self.probes = probes


def measured_period(result, library) -> float:
    """Steady-state handshake period of a desynchronized netlist, from
    a handshake simulation of ``PERIOD_ITEMS`` items."""
    from repro.flow.observe import observe_handshake

    report = observe_handshake(result, library, items=PERIOD_ITEMS).report
    period = report.get("effective_period_measured_ns")
    check(period is not None and period > 0,
          f"no steady handshake period measured: {report.get('error')}")
    return period


class Workload:
    name = ""
    #: whether an op input can run twice with the same work (a traced
    #: run then times each input untraced and traced; see run_loop)
    repeatable = True
    #: set-ups a run times (the first in-process, the rest each in a
    #: fresh process) to report their median as ``setup_s``
    setup_runs = 1

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.probes = ctx.probes

    def setup(self) -> None:
        from repro.liberty import core9_hs

        self.library = core9_hs()

    def generate(self):
        from repro.designs import dlx_core

        start = time.perf_counter()
        module = dlx_core(self.library, **self.ctx.params)
        self.probes.add("designs.generate_s", time.perf_counter() - start)
        return module

    def round_inputs(self, index: int) -> List:
        return [index]

    def run_op(self, op_input) -> OpResult:
        raise NotImplementedError

    def finish(self) -> Dict[str, float]:
        raise NotImplementedError

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# Table 5.1: the DLX comparison, cold and warm
# ----------------------------------------------------------------------
class _Table51(Workload):
    def setup(self) -> None:
        super().setup()
        self.last = None

    def compare(self, cache):
        """One full Table 5.1 comparison on a serial engine."""
        from repro.engine import FlowEngine
        from repro.flow.implementation import implement_comparison

        # start every comparison from the same heap: the previous op's
        # outputs are released and its garbage collected first, so that
        # cost does not land on this op
        self.last = None
        gc.collect()
        engine = FlowEngine(cache=cache, jobs=1)
        hits, lookups = cache.stats.hits, cache.stats.lookups
        start = time.perf_counter()
        sync_module = self.generate()
        sync, desync, table = implement_comparison(
            "DLX",
            sync_module,
            sync_module.clone(),
            self.library,
            sync_utilization=SYNC_UTILIZATION,
            desync_utilization=DESYNC_UTILIZATION,
            engine=engine,
        )
        seconds = time.perf_counter() - start
        probes = self.probes
        for run in engine.results:
            stage_time = 0.0
            for name, record in run.records.items():
                probes.add("engine.stage_s." + name.replace(":", "."),
                           record.duration)
                stage_time += record.duration
            probes.add("engine.run_overhead_s", run.wall_time - stage_time)
        probes.add("cache.hits", cache.stats.hits - hits)
        probes.add("cache.lookups", cache.stats.lookups - lookups)
        return seconds, (sync, desync, table, engine.results[-1])

    def check_output(self, output) -> None:
        sync, desync, table, run = output
        check(sorted(run.records) == sorted(COMPARISON_STAGES),
              f"unexpected comparison stages {sorted(run.records)}")
        check(not sync.failures and not desync.failures,
              f"tolerated stage failures: {sync.failures} {desync.failures}")
        checks.check_table_areas(table, sync.module, desync.module,
                                 self.library)
        checks.check_latch_pairs(sync.module, desync.module, self.library)

    def finish(self) -> Dict[str, float]:
        _sync, desync, table, _run = self.last
        return {
            "desync_cell_area_um2":
                table.phases["Post Layout"]["cell area (um2)"]["desync"],
            "desync_period_ns": measured_period(desync.desync, self.library),
        }


class Table51Cold(_Table51):
    """Every op runs the comparison against an empty artifact cache."""

    name = "table51_cold"
    #: its set-up is the imports alone, ~0.7 s: cheap to repeat, and
    #: short enough that one measurement is at the mercy of the machine
    setup_runs = 5

    def round_inputs(self, index: int) -> List:
        # two comparisons per round: a ~10 s op alone is a short window
        # on a machine whose speed swings from one 10 s window to the next
        return [2 * index, 2 * index + 1]

    def run_op(self, index) -> OpResult:
        from repro.engine import ArtifactCache

        folder = f"cache-{index}"
        try:
            seconds, output = self.compare(
                ArtifactCache(self.ctx.scratch.sub(folder))
            )
        finally:
            self.ctx.scratch.remove(folder)
        self.check_output(output)
        self.last = output
        return OpResult(seconds)


class Table51Warm(_Table51):
    """Every op runs the comparison against a cache filled in set-up."""

    name = "table51_warm"

    def setup(self) -> None:
        from repro.engine import ArtifactCache

        super().setup()
        self.cache = ArtifactCache(self.ctx.scratch.sub("cache"))
        _seconds, output = self.compare(self.cache)
        self.check_output(output)
        self.cold_phases = output[2].phases

    def run_op(self, _index) -> OpResult:
        seconds, output = self.compare(self.cache)
        run = output[3]
        check(len(run.cached_stages()) == len(run.records),
              "warm comparison ran stages: "
              f"{sorted(set(run.records) - set(run.cached_stages()))}")
        check(output[2].phases == self.cold_phases,
              "warm Table 5.1 differs from the one computed cold")
        self.check_output(output)
        self.last = output
        return OpResult(seconds)


# ----------------------------------------------------------------------
# the job service under a stream of ECO edits
# ----------------------------------------------------------------------
#: status poll interval of the closed-loop client.  ServiceClient.wait
#: defaults to 50 ms, a fifth of a splice job, which would quantise op
#: times onto a 50 ms grid; 5 ms keeps the grid under 5% of an op.
POLL_S = 0.005
#: longest a single job may take before the run gives up on it
JOB_TIMEOUT_S = 120.0


class ServiceEco(Workload):
    """One client chains single-edit ECO jobs on a one-worker daemon."""

    name = "service_eco"
    #: each edit applies on top of the previous one
    repeatable = False

    def setup(self) -> None:
        from repro.service import ServiceClient, ServiceDaemon, make_server

        super().setup()
        self.daemon = ServiceDaemon(
            run_dir=self.ctx.scratch.sub("service"), workers=1, flow_jobs=1
        )
        self.server = make_server(self.daemon).start_background()
        self.client = ServiceClient(self.server.url, timeout=300.0)
        # count the status requests ServiceClient.wait makes
        self.polls = 0
        fetch_status = self.client.status

        def counted_status(job_id):
            self.polls += 1
            return fetch_status(job_id)

        self.client.status = counted_status
        self.edits = inputs.EcoEdits(self.generate(), self.library,
                                     self.ctx.seed)
        self.applied: List[Dict] = []
        status, _result, _seconds = self._job(
            {"design": "dlx", "params": dict(self.ctx.params)}
        )
        self.parent = status["id"]
        self.run_op(self.edits.warmup())

    def _job(self, spec: Dict):
        client = self.client
        start = time.perf_counter()
        ticket = client.submit(spec, reuse=False)
        submitted = time.perf_counter()
        polls = self.polls
        status = client.wait(ticket["id"], timeout=JOB_TIMEOUT_S, poll=POLL_S)
        if status["state"] != "done":
            raise RuntimeError(f"job {ticket['id']} {status['state']}: "
                               f"{status.get('error')}")
        result = client.result(ticket["id"])
        seconds = time.perf_counter() - start
        probes = self.probes
        if probes.enabled:
            probes.add("service.submit_s", submitted - start)
            probes.add("service.queue_wait_s",
                       status["started_at"] - status["submitted_at"])
            probes.add("service.job_run_s", status["wall_time"])
            probes.add("service.client_overhead_s",
                       seconds - status["wall_time"])
            probes.add("service.polls_per_job", self.polls - polls)
            probes.add("service.result_bytes", len(json.dumps(result)))
        return status, result, seconds

    def run_op(self, edit: Dict) -> OpResult:
        status, result, seconds = self._job(
            {"parent": self.parent, "edits": [edit]}
        )
        self.parent = status["id"]
        self.applied.append(edit)
        path = result["eco"]["path"]
        check(path in ("splice", "network", "deep"), f"unknown path {path}")
        # path shares count every job of the run, traced or not
        self.probes.add("eco.jobs", 1, always=True)
        self.probes.add(f"eco.path.{path}", 1, always=True)
        return OpResult(seconds, kind=f"{edit['op']}/{path}")

    def round_inputs(self, index: int) -> List:
        return self.edits.round(index)

    def finish(self) -> Dict[str, float]:
        from repro.desync import DesyncOptions, desynchronize
        from repro.flow.incremental import NetlistEdit, apply_edit

        last = self.client.result(self.parent, include_verilog=True)
        module = self.generate()
        for record in self.applied:
            apply_edit(module, self.library, NetlistEdit.from_dict(record))
        oracle = desynchronize(module, self.library, DesyncOptions())
        checks.check_eco_result(last["verilog"], last["sdc"], oracle)
        area = checks.recount_area(oracle.module, self.library)
        return {
            "desync_cell_area_um2": area["cell area (um2)"],
            "desync_period_ns": measured_period(oracle, self.library),
        }

    def close(self) -> None:
        server = getattr(self, "server", None)
        if server is not None:
            server.stop()
        daemon = getattr(self, "daemon", None)
        if daemon is not None:
            daemon.close(timeout=60.0)


# ----------------------------------------------------------------------
# signoff: flow equivalence and the Monte-Carlo study
# ----------------------------------------------------------------------
#: FE cycles / study chips per op, by size
SIGNOFF = {
    "full": {"cycles": 40, "chips": 128},
    "small": {"cycles": 16, "chips": 64},
}


class Signoff(Workload):
    """Every op checks one seeded DLX program on the desynchronized
    DLX: flow equivalence, then a lane-batched Monte-Carlo study.

    ``finish`` also compares the measured handshake period with
    ``effective_period_model`` and prints the outcome to standard error
    (see README.md, *The period-model comparison*); it is not an op and
    does not set ``correct``.
    """

    name = "signoff"

    def setup(self) -> None:
        from repro.desync import Drdesync
        from repro.perf import effective_period_model
        from repro.variability import VariabilityModel

        super().setup()
        self.golden = self.generate()
        self.result = Drdesync(self.library).run(self.golden.clone())
        self.model_period = effective_period_model(
            self.result, self.library, "worst"
        ).effective_period
        derate = self.library.corner("worst").derate
        self.nominal = self.model_period / derate
        self.variability = VariabilityModel(sigma_inter=0.12,
                                            sigma_intra=0.04)
        self.regions = self._study_regions()
        self.latch = sorted(
            name for name in self.result.module.instances
            if name.endswith("_lm")
        )[0]
        self.periods: List[float] = []
        self.sizes = SIGNOFF[self.ctx.size]
        self.flops = sum(
            1 for inst in self.golden.instances.values()
            if self.library.cells[inst.cell].kind.value == "flip_flop"
        )

    def _study_regions(self):
        """Desync regions mapped back onto the synchronous flip-flops
        whose sampled variation scales them (``r_lm``/``r_ls`` -> ``r``)."""
        regions = {}
        for name, region in self.result.region_map.regions.items():
            members = sorted({
                inst[:-3] for inst in region.instances
                if inst.endswith(("_lm", "_ls"))
                and inst[:-3] in self.golden.instances
            })
            if members:
                regions[name] = (self.nominal, members)
        return regions

    def run_op(self, index: int) -> OpResult:
        from repro.designs import DlxMemories
        from repro.designs.dlx_env import dlx_respond
        from repro.perf import measure_effective_period
        from repro.sim.flowequiv import check_flow_equivalence_reactive
        from repro.variability import SimBackendConfig, run_study

        params = self.ctx.params
        cycles, chips = self.sizes["cycles"], self.sizes["chips"]
        # longer than the simulated cycles, so fetch never wraps around
        program = inputs.dlx_program(
            self.ctx.seed, index, cycles + inputs.PIPELINE_DEPTH,
            params["registers"], params["multiplier"],
        )
        words = inputs.encode(program)
        width = params["width"]
        runs = []

        def respond_factory(simulator):
            memories = DlxMemories(words)
            runs.append((simulator, memories))
            return dlx_respond(memories, width=width)

        bits = self.golden.port_bits()

        def stimulus_factory(batch):
            batches.append(batch)
            respond = dlx_respond(DlxMemories(words), width=width)
            return lambda cycle: respond(
                cycle, {bit: batch.net_values.get(bit) for bit in bits}
            )

        chip_seed = inputs.stream(self.ctx.seed, "chips", index).randrange(
            1 << 31
        )
        batches = []
        start = time.perf_counter()
        report = check_flow_equivalence_reactive(
            self.golden, self.result, self.library, cycles=cycles,
            respond_factory=respond_factory,
        )
        study_start = time.perf_counter()
        study = run_study(
            self.nominal, model=self.variability, n_chips=chips, margin=0.10,
            seed=chip_seed, backend="sim", lanes=64,
            sim=SimBackendConfig(
                module=self.golden, library=self.library,
                stimulus_factory=stimulus_factory,
                cycles=cycles, regions=self.regions,
            ),
        )
        end = time.perf_counter()

        check(report.equivalent and report.compared == self.flops,
              f"program {index}: flow equivalence over {report.compared} "
              f"of {self.flops} flip-flops, "
              f"mismatches {report.mismatches[:2]}")
        # an instruction stores in its MEM stage, PIPELINE_DEPTH - 1
        # cycles after its fetch
        expected = inputs.interpret(
            program, width, params["registers"], params["multiplier"],
            steps=cycles - inputs.PIPELINE_DEPTH + 1,
        )
        for (_sim, memories), side in zip(runs, ("sync", "desync")):
            checks.check_store_log(f"program {index} {side}",
                                   memories.store_log, expected)
        check(len(study.desync_periods) == chips
              and all(p > 0 for p in study.desync_periods),
              f"program {index}: study returned {len(study.desync_periods)} "
              f"periods for {chips} chips")
        period = measure_effective_period(runs[1][0], self.latch)
        check(period is not None, f"program {index}: no steady period")
        self.periods.append(period)

        probes = self.probes
        if probes.enabled:
            probes.add("sim.events", sum(s.event_count for s, _ in runs))
            stats = [batch.stats() for batch in batches]
            probes.add("sim.batch.lane_evals",
                       sum(s["cell_evals"] * s["lanes"] for s in stats))
            probes.add("sim.batch.run_s", study.sim_stats["sim_seconds"])
            probes.add("variability.run_study_s", end - study_start)
            probes.add("variability.chips", chips)
        return OpResult(end - start)

    def period_model_report(self, period: float) -> str:
        ratio = period / self.model_period
        verdict = "within" if abs(ratio - 1.0) <= PERIOD_MODEL_REL \
            else "outside"
        return (f"PERIOD MODEL: measured {period:.4f} ns, "
                f"effective_period_model {self.model_period:.4f} ns, "
                f"ratio {ratio:.4f}: {verdict} the test suite's "
                f"rel={PERIOD_MODEL_REL} tolerance")

    def finish(self) -> Dict[str, float]:
        print(self.period_model_report(self.periods[-1]), file=sys.stderr)
        area = checks.recount_area(self.result.module, self.library)
        return {
            "desync_cell_area_um2": area["cell area (um2)"],
            "desync_period_ns": self.periods[-1],
        }


WORKLOADS = {
    cls.name: cls for cls in (Table51Cold, Table51Warm, ServiceEco, Signoff)
}
