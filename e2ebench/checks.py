"""Output checks of the end-to-end benchmark.

Each check recomputes what it compares against apart from the code
that produced the output: areas are recounted from the Liberty cell
areas, the store log comes from an instruction-level interpreter, and
the ECO result is compared with a from-scratch flow run in the
benchmark process.
"""

from __future__ import annotations

from typing import Dict, List

from common import check

#: Table 5.1 rows recounted from the output netlists
AREA_ROWS = (
    "cell area (um2)",
    "sequential logic (um2)",
    "combinational logic (um2)",
)


def recount_area(module, library) -> Dict[str, float]:
    """Cell, sequential and combinational area of a netlist, summed
    from the library's cell areas.  Sequential means a flip-flop or
    latch cell, or a gate tagged ``seq_overhead`` by flip-flop
    substitution (the paper's accounting, section 5.3.1)."""
    total = sequential = 0.0
    for inst in module.instances.values():
        cell = library.cells.get(inst.cell)
        if cell is None:
            continue
        total += cell.area
        if cell.kind.value in ("flip_flop", "latch") or \
                inst.attributes.get("seq_overhead"):
            sequential += cell.area
    return {
        "cell area (um2)": total,
        "sequential logic (um2)": sequential,
        "combinational logic (um2)": total - sequential,
    }


def check_table_areas(table, sync_module, desync_module, library) -> None:
    """The post-layout rows of each side equal a recount over that
    side's output netlist (the table rounds to 0.01 um2)."""
    rows = table.phases["Post Layout"]
    for side, module in (("sync", sync_module), ("desync", desync_module)):
        recount = recount_area(module, library)
        for row in AREA_ROWS:
            reported = rows[row][side]
            check(
                abs(reported - recount[row]) <= 0.006,
                f"{side} {row}: table says {reported}, "
                f"recount gives {recount[row]:.4f}",
            )


def check_latch_pairs(sync_module, desync_module, library) -> None:
    """Every flip-flop of the synchronous netlist became a master/slave
    latch pair, and no flip-flop is left in the desynchronized one."""
    def kind(inst) -> str:
        cell = library.cells.get(inst.cell)
        return cell.kind.value if cell is not None else "unknown"

    flops = [
        name for name, inst in sync_module.instances.items()
        if kind(inst) == "flip_flop"
    ]
    check(bool(flops), "the synchronous netlist has no flip-flop")
    for name in flops:
        for suffix in ("_lm", "_ls"):
            latch = desync_module.instances.get(name + suffix)
            check(
                latch is not None and kind(latch) == "latch",
                f"flip-flop {name} has no latch {name + suffix}",
            )
    left = [
        name for name, inst in desync_module.instances.items()
        if kind(inst) == "flip_flop"
    ]
    check(not left, f"flip-flops left after desynchronization: {left[:5]}")


def check_store_log(name: str, log: List[Dict[str, int]],
                    expected: List[Dict[str, int]]) -> None:
    check(
        log == expected,
        f"{name} store log differs from the interpreter: "
        f"{log[:4]}... vs {expected[:4]}...",
    )


def check_eco_result(verilog: str, sdc: str, oracle) -> None:
    """The service's last ECO result equals a from-scratch flow."""
    from repro.netlist.verilog import write_module

    check(
        verilog == write_module(oracle.module),
        "ECO Verilog differs from a from-scratch desynchronize",
    )
    check(
        sdc == oracle.export_sdc(),
        "ECO SDC differs from a from-scratch desynchronize",
    )
