"""Mixed-level co-simulation and assembler benchmarks.

The simulator cost denominators (ns per warp instruction, ns per gate
lane-cycle) are perfbench's per-layer metrics, not benchmarks here.
"""

from __future__ import annotations

from repro.gatelevel.mixed import cosimulate
from repro.isa.asmtext import assemble, disassemble
from repro.workloads import get_workload


def test_bench_cosimulation(regen):
    w = get_workload("vectoradd", scale="tiny")
    res = regen(cosimulate, w, unit="decoder", max_events=40)
    assert res.consistent


def test_bench_assembler_roundtrip(benchmark):
    prog = get_workload("gemm", scale="tiny").program()

    def roundtrip():
        return assemble(disassemble(prog))

    out = benchmark(roundtrip)
    assert len(out) == len(prog)
