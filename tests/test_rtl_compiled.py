"""The compiled RTL tool against the hook pair it replaced.

:class:`repro.rtl.injector.RtlInstrumentation` compiles a stuck-at fault
into the step table; :mod:`tests.rtlref` keeps the ``before``/``after``
hook pair it was, run through the generic hook protocol. Over every
(module, kind) pair of :mod:`repro.rtl.sites`, both polarities, two sites
each (different indices and bits), the permanent, transient and
intermittent modes, on micro-benchmarks covering INT, FP32, SFU, GLD and
BRA, a t-MxM tile of each type and kernel sets of the fault fuzzer, both
must give bit-identical outcomes, DUE reasons, corrupted outputs and
relative errors.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.isa.opcodes import Op
from repro.rtl import RTL_MODULES, RtlInjection, module_sites, run_rtl_injection
from repro.rtl.campaign import reference_run
from repro.rtl.injector import RtlInstrumentation, run_target
from repro.rtl.sites import RtlSite
from repro.workloads.microbench import build_microbench
from repro.workloads.tmxm import TILE_TYPES, TMxM
from tests.rtlref import run_reference
from tests.test_fault_fuzz import _FuzzApp, _spec


def _pairs() -> dict[tuple[str, str], list[RtlSite]]:
    """Every (module, kind) pair with its sites, in inventory order."""
    pairs: dict[tuple[str, str], list[RtlSite]] = {}
    for module in RTL_MODULES:
        for site in module_sites(module):
            pairs.setdefault((module, site.kind), []).append(site)
    return pairs


PAIRS = _pairs()


class _Fuzzed:
    """A fault-fuzzer kernel set as an RTL target."""

    is_fp = False

    def __init__(self, seed: int):
        self.app = _FuzzApp(_spec(seed))

    def run_golden(self, device, launcher):
        return self.app.run(device, launcher)


class _Exercises:
    """Records the op of every step the warps execute, in order: with the
    scheduler module every step is one exercise of the structure."""

    def __init__(self):
        self.ops: list[Op] = []

    def table(self, warp, decoded):
        def record(step, op):
            def run(w, m, active, top, env):
                self.ops.append(op)
                return step(w, m, active, top, env)
            return run
        return [(record(step, instr.op), guard, neg, instr)
                for step, guard, neg, instr in decoded.steps]


def _golden(target):
    if isinstance(target, _Fuzzed):
        golden, executed = run_target(target, 200_000)
        return golden, 20 * executed + 500
    return reference_run(target)


def _modes(target) -> list[dict]:
    """Permanent; transient at the first two exercises, at the first
    store of a scheduler fault and out of range; intermittent, two seeds."""
    tool = _Exercises()
    run_target(target, 200_000, tool)
    store = tool.ops.index(Op.GST)
    return [{}, *({"mode": "transient", "transient_event": e}
                  for e in (0, 1, store, len(tool.ops))),
            *({"mode": "intermittent", "seed": s} for s in (1, 2))]


def _same(a, b) -> bool:
    if (a.outcome, a.due_reason) != (b.outcome, b.due_reason):
        return False
    if a.corrupted is None or b.corrupted is None:
        return a.corrupted is None and b.corrupted is None
    return (a.corrupted.tobytes() == b.corrupted.tobytes()
            and a.rel_errors.tobytes() == b.rel_errors.tobytes())


def _compare(target, sites_per_pair: int, modes: list[dict], seed: int,
             seen: Counter) -> None:
    """Compare both tools on *sites_per_pair* sites of every pair drawn by
    *seed*: the first under each of *modes*, the others permanent."""
    golden, watchdog = _golden(target)
    rng = np.random.default_rng([0x271, seed])
    for (module, kind), sites in PAIRS.items():
        picks = rng.choice(len(sites), size=min(sites_per_pair, len(sites)),
                           replace=False)
        for j, i in enumerate(picks):
            for stuck in (0, 1):
                for mode in modes if j == 0 else [{}]:
                    inj = RtlInjection(sites[i], stuck, **mode)
                    got = run_rtl_injection(target, inj, golden, watchdog)
                    want = run_reference(target, inj, golden, watchdog)
                    assert _same(got, want), (inj, got, want)
                    seen[got.outcome] += 1
                    seen[module, kind, got.outcome] += 1


#: an INT, FP32, SFU, global-load and branch micro-benchmark
BENCHES = ("IADD", "FFMA", "FSIN", "GLD", "BRA")


@pytest.mark.parametrize("bench", BENCHES)
def test_microbenchmarks(bench):
    target = build_microbench(bench, "M")
    seen = Counter()
    _compare(target, 2, _modes(target), seed=BENCHES.index(bench), seen=seen)
    assert seen["masked"] and seen["sdc"] and seen["due"]


def test_tmxm_tiles():
    seen = Counter()
    for j, tile in enumerate(TILE_TYPES):
        _compare(TMxM.create(tile, 0, 0), 1, [{}], seed=100 + j, seen=seen)
    assert seen["masked"] and seen["sdc"] and seen["due"]


def test_fuzzer_kernel_sets():
    seen = Counter()
    for seed in (1, 6):
        _compare(_Fuzzed(seed), 1, [{}], seed=200 + seed, seen=seen)
    assert seen["masked"] and seen["sdc"] and seen["due"]


def _tool(module, kind, index=0, bit=3, stuck=1):
    return RtlInstrumentation(RtlInjection(RtlSite(module, kind, index, bit),
                                           stuck))


def _wrapped(steps, decoded) -> list[bool]:
    return [s[0] is not d[0] for s, d in zip(steps, decoded.steps)]


def test_table_structure():
    # an inert kind hands out the decode table itself; a unit fault wraps
    # exactly the pcs of its op class; a pc_bit fault wraps the branches
    # of its own warp only
    from repro.gpusim.executor import WarpState, decode
    from repro.isa.opcodes import OpClass

    target = build_microbench("BRA", "M")
    program, decoded = target.program, decode(target.program)
    warps = [WarpState(program, 0, w, (64, 1, 1), (1, 1, 1), (0, 0, 0),
                       0, w, 0) for w in range(2)]

    for module, kind in (("fu_int", "internal"), ("fu_fp32", "internal"),
                         ("scheduler", "age_ctr"), ("scheduler", "rr_ptr")):
        assert _tool(module, kind).table(warps[0], decoded) is decoded.steps

    tool = _tool("fu_int", "res")
    steps = tool.table(warps[0], decoded)
    assert _wrapped(steps, decoded) == [
        i.info.op_class is OpClass.INT and i.info.writes_reg
        for i in program.instructions]
    assert any(_wrapped(steps, decoded))
    assert tool.table(warps[1], decoded) is steps

    tool = _tool("scheduler", "pc_bit", index=1, stuck=0)
    assert tool.table(warps[0], decoded) is decoded.steps
    assert _wrapped(tool.table(warps[1], decoded), decoded) == [
        i.op is Op.BRA for i in program.instructions]
