"""Static-analyzer cost and the gate-level fault-list reduction.

Tracks two numbers:

* analyzer wall-time — full CFG + liveness + lint over every registered
  kernel (the cost `make lint` pays);
* gate-level fault-list reduction from structural collapsing.
"""

from __future__ import annotations

from repro.gatelevel.faults import full_fault_list, structural_fault_list
from repro.gatelevel.units import build_unit
from repro.staticanalysis import CFG, Liveness, lint_program
from repro.workloads import iter_workloads


def test_bench_analyzer_full_registry(benchmark):
    """CFG + liveness + lint over all registered kernels (wall-time)."""
    programs = [prog
                for _, workload in iter_workloads(scale="tiny")
                for prog in workload.programs().values()]

    def analyze_all():
        count = 0
        for prog in programs:
            cfg = CFG(prog)
            liveness = Liveness(prog, cfg)
            lint_program(prog, cfg, liveness)
            count += 1
        return count

    kernels = benchmark(analyze_all)
    assert kernels >= 30
    mean = benchmark.stats.stats.mean
    benchmark.extra_info["kernels"] = kernels
    benchmark.extra_info["kernels_per_sec"] = round(kernels / mean, 1)


def test_bench_gate_fault_collapse(benchmark):
    """Structural fault-list reduction across all three unit netlists."""
    units = {name: build_unit(name).netlist
             for name in ("wsc", "fetch", "decoder")}

    def collapse_all():
        out = {}
        for name, nl in units.items():
            full = full_fault_list(nl)
            out[name] = (len(full), len(structural_fault_list(nl, full)))
        return out

    sizes = benchmark(collapse_all)
    for name, (full, reduced) in sizes.items():
        assert 0 < reduced < full
        benchmark.extra_info[f"{name}_faults_full"] = full
        benchmark.extra_info[f"{name}_faults_structural"] = reduced
        benchmark.extra_info[f"{name}_reduction_%"] = round(
            100 * (1 - reduced / full), 1)
