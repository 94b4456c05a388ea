"""Tests of the end-to-end benchmark itself.

Run from the repository root::

    python3 -m pytest e2ebench -q

Every workload runs end to end on the small DLX, and every output check
is shown to fail on a corrupted output.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
from common import (  # noqa: E402
    END_TO_END, PER_LAYER, CheckError, LoopStats, OpResult, Probes, Scratch,
    TracedStats,
)
from workloads import SIZES, WORKLOADS, Context  # noqa: E402

SMALL = SIZES["small"]


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join("e2ebench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def library():
    from repro.liberty import core9_hs

    return core9_hs()


@pytest.fixture(scope="module")
def small_desync(library):
    from repro.designs import dlx_core
    from repro.desync import Drdesync

    golden = dlx_core(library, **SMALL)
    return golden, Drdesync(library).run(golden.clone())


# ----------------------------------------------------------------------
# the benchmark's contract
# ----------------------------------------------------------------------
def test_benchmark_json_matches_the_catalogue():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert spec["command"] == ["python3", "e2ebench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} \
        == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_small_workload_end_to_end(workload):
    proc = run_bench(
        "--workload", workload, "--seed", "3", "--seconds", "0.1",
        "--trace", "0", "--size", "small",
    )
    result = result_of(proc)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert set(result["metrics"]) == set(END_TO_END)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == END_TO_END[name][0]
        assert metric["value"] > 0, name
    if workload == "signoff":
        # reported apart from the ops (see README)
        assert "PERIOD MODEL: measured" in proc.stderr


def test_traced_run_reports_every_layer_metric():
    result = result_of(run_bench(
        "--workload", "table51_warm", "--seed", "3", "--seconds", "0.1",
        "--trace", "1", "--size", "small",
    ))
    assert set(result["metrics"]) == set(PER_LAYER)
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["engine.cache.hit_ratio"] == 1.0
    assert metrics["engine.cache.load_mb"] > 0
    assert metrics["engine.cache.put_s"] == 0.0


def test_overhead_compares_like_with_like():
    plain, traced = LoopStats(), TracedStats()
    for seconds, kind in ((1.0, "swap"), (0.1, "annotate"), (1.0, "swap")):
        plain.record(None, OpResult(seconds, kind))
    for seconds, kind in ((1.1, "swap"), (0.1, "annotate"),
                          (0.1, "annotate")):
        traced.record(None, OpResult(seconds, kind))
    # the most common kind untraced is "swap": 1.1 s against 1.0 s
    assert traced.overhead_pct(plain) == pytest.approx(10.0)
    traced.pair_ratios = [1.02, 1.04, 1.03]
    assert traced.overhead_pct(plain) == pytest.approx(3.0)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = run_bench("--workload", "signoff", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert "{" not in proc.stdout


# ----------------------------------------------------------------------
# seeded inputs
# ----------------------------------------------------------------------
def test_inputs_depend_only_on_the_seed(library):
    from repro.designs import dlx_core

    first = inputs.dlx_program(5, 0, 40, 32, True)
    assert first == inputs.dlx_program(5, 0, 40, 32, True)
    assert first != inputs.dlx_program(6, 0, 40, 32, True)
    module = dlx_core(library, **SMALL)
    edits = inputs.EcoEdits(module, library, 5)
    assert edits.round(0) == inputs.EcoEdits(module, library, 5).round(0)
    assert edits.round(0) != inputs.EcoEdits(module, library, 6).round(0)
    assert edits.round(0) != edits.round(1)


def test_programs_are_hazard_free():
    for seed in range(5):
        program = inputs.dlx_program(seed, 0, 60, 8, False)
        writes = []
        for inst in program:
            op = inst[0]
            if op in inputs.FUNCTS:
                reads = {inst[2]} | (
                    set() if op in ("sll", "srl", "sra") else {inst[3]}
                )
                dest = inst[1]
            elif op == "sw":
                reads, dest = {inst[1], inst[2]}, 0
            elif op == "lui":
                reads, dest = set(), inst[1]
            else:
                reads, dest = {inst[2]}, inst[1]
            assert not (reads - {0}) & set(writes[-2:]), program
            writes.append(dest)


def test_interpreter_store_log():
    program = [
        ("addi", 1, 0, 5), ("addi", 2, 0, -3), ("lui", 3, 1),
        ("sw", 1, 0, 4), ("sub", 4, 1, 2), ("sll", 5, 1, 3),
        ("sw", 2, 0, 1), ("slt", 6, 2, 1), ("lw", 7, 0, 4),
        ("sw", 4, 0, 2), ("sw", 5, 0, 3), ("sw", 6, 0, 5),
        ("sw", 3, 0, 6), ("sw", 7, 0, 7),
    ]
    log = inputs.interpret(program, 32, 8, True, steps=len(program))
    assert log == [
        {"addr": 4, "value": 5},
        {"addr": 1, "value": 0xFFFFFFFD},
        {"addr": 2, "value": 8},
        {"addr": 3, "value": 40},
        {"addr": 5, "value": 1},
        {"addr": 6, "value": 0x10000},
        {"addr": 7, "value": 5},
    ]


# ----------------------------------------------------------------------
# every check fails on a corrupted output
# ----------------------------------------------------------------------
def test_store_log_check_catches_a_wrong_stored_value(tmp_path, monkeypatch):
    from repro.designs import dlx_env

    workload = WORKLOADS["signoff"](
        Context(3, "small", Scratch(str(tmp_path)), Probes())
    )
    workload.setup()
    assert workload.run_op(0).error is None

    store = dlx_env.DlxMemories.store

    def corrupted(self, address, value):
        store(self, address, value ^ 1)

    monkeypatch.setattr(dlx_env.DlxMemories, "store", corrupted)
    with pytest.raises(CheckError, match="store log"):
        workload.run_op(0)


def test_latch_pair_check_catches_a_missing_latch(small_desync, library):
    golden, result = small_desync
    checks.check_latch_pairs(golden, result.module, library)
    broken = result.module.clone()
    victim = sorted(n for n in broken.instances if n.endswith("_ls"))[0]
    broken.remove_instance(victim)
    with pytest.raises(CheckError, match=victim):
        checks.check_latch_pairs(golden, broken, library)


def test_eco_check_catches_a_wrong_cell(small_desync):
    from repro.netlist.verilog import write_module

    _golden, result = small_desync
    verilog, sdc = write_module(result.module), result.export_sdc()
    checks.check_eco_result(verilog, sdc, result)
    wrong = verilog.replace("AND2X1 ", "AND2X2 ", 1)
    assert wrong != verilog
    with pytest.raises(CheckError, match="Verilog"):
        checks.check_eco_result(wrong, sdc, result)


def test_area_check_catches_a_wrong_table(library):
    from repro.designs import dlx_core
    from repro.flow.implementation import implement_comparison

    sync_module = dlx_core(library, **SMALL)
    sync, desync, table = implement_comparison(
        "DLX", sync_module, sync_module.clone(), library
    )
    checks.check_table_areas(table, sync.module, desync.module, library)
    table.phases["Post Layout"]["sequential logic (um2)"]["desync"] += 1.0
    with pytest.raises(CheckError, match="sequential"):
        checks.check_table_areas(table, sync.module, desync.module, library)
