"""Acceleration must be invisible in the results.

Every shortcut of the campaign acceleration layer — activation-site
planning, checkpoint resume, clean-CTA skip, descriptor collapsing,
dynamic fault dropping, stimuli dedup, and the vectorized gate-level
kernels — must produce outcomes bit-identical to the unaccelerated path.
These tests run both paths and diff the results exactly
(docs/PERFORMANCE.md holds the soundness arguments).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np
import pytest

from repro.common.exceptions import DeviceError
from repro.errormodels.descriptor import ErrorDescriptor
from repro.errormodels.models import ErrorModel
from repro.faultinjection.campaign import (
    _golden_run,
    _run_batch,
    record_to_json,
)
from repro.gatelevel.faults import full_fault_list, sample_faults
from repro.gatelevel.sim import LogicSim
from repro.gatelevel.units import build_unit
from repro.isa import PT, CmpOp, KernelBuilder, RZ, SpecialReg
from repro.isa.opcodes import Op
from repro.swinjector.campaign import OUTCOMES, _run_epr_unit
from repro.swinjector.instrumentation import NVBitPERfi, make_descriptor
from repro.workloads.base import Workload, WorkloadMeta

#: ≥1 control-flow model (IAT) and resource-management models (IMS, IMD)
#: next to datapath (IRA), scheduler-adjacent (WV) and decode (IOC) ones
EPR_MODELS = ("IAT", "IMS", "IMD", "IRA", "WV", "IOC")


def _epr_unit(app: str, model: str, n: int, accel: bool, seed: int = 11):
    return _run_epr_unit({
        "app": app, "model": model, "scale": "tiny", "seed": seed,
        "mem_words": 1 << 20, "indices": list(range(n)), "accel": accel,
    })


class TestEprEquivalence:
    @pytest.mark.parametrize("model", EPR_MODELS)
    def test_unit_outcomes_bit_identical(self, model):
        for app in ("vectoradd", "gemm"):
            accel = _epr_unit(app, model, 8, accel=True)
            legacy = _epr_unit(app, model, 8, accel=False)
            assert accel["outcomes"] == legacy["outcomes"], (app, model)
            assert {o["outcome"] for o in legacy["outcomes"]} <= set(OUTCOMES)
            assert accel["accel"]["enabled"] is True
            assert legacy["accel"]["enabled"] is False

    def test_multi_launch_app_bit_identical(self):
        # bfs launches many kernels: exercises launch skipping + resume
        # across launch boundaries
        accel = _epr_unit("bfs", "IAT", 6, accel=True)
        legacy = _epr_unit("bfs", "IAT", 6, accel=False)
        assert accel["outcomes"] == legacy["outcomes"]

    def test_never_activating_descriptor_is_masked_not_pruned(self):
        # an IAT descriptor pinned to warp slots no tiny launch populates
        # never activates: accel classifies it without simulating, and it
        # must stay a plain masked outcome so stores stay comparable with
        # --no-accel
        found = False
        for i in range(64):
            desc = make_descriptor(ErrorModel.IAT, 11, i)
            if desc.warp_slots and min(desc.warp_slots) >= 4:
                found = True
                break
        if not found:
            pytest.skip("no high-slot descriptor in the first 64 draws")
        accel = _epr_unit("vectoradd", "IAT", i + 1, accel=True)
        legacy = _epr_unit("vectoradd", "IAT", i + 1, accel=False)
        assert accel["outcomes"] == legacy["outcomes"]
        assert accel["outcomes"][i]["outcome"] == "masked"

    def test_campaign_store_outcomes_match(self, tmp_path):
        from repro.campaign.store import CampaignStore
        from repro.swinjector import SwCampaignConfig, run_epr_campaign

        kw = dict(apps=("vectoradd",),
                  models=(ErrorModel.WV, ErrorModel.IAT, ErrorModel.IMS),
                  injections_per_model=6, scale="tiny", processes=1)
        sa = CampaignStore(tmp_path / "accel")
        sl = CampaignStore(tmp_path / "legacy")
        ra = run_epr_campaign(SwCampaignConfig(**kw, accel=True), store=sa)
        rl = run_epr_campaign(SwCampaignConfig(**kw, accel=False), store=sl)

        def norm(res):
            return [(o.app, o.model, o.outcome, o.due_reason, o.activations)
                    for o in res.outcomes]

        assert norm(ra) == norm(rl)
        # stored unit records agree outcome-for-outcome (the accel stats
        # block is the only permitted difference)
        va = {u: r.value["outcomes"] for u, r in sa.load_results().items()}
        vl = {u: r.value["outcomes"] for u, r in sl.load_results().items()}
        assert va == vl

    def test_collapsed_descriptors_share_exact_outcome(self):
        from repro.swinjector.accel import behavior_key

        seed, n = 11, 24
        keys = {}
        twins = None
        for i in range(n):
            k = behavior_key(make_descriptor(ErrorModel.WV, seed, i))
            if k in keys:
                twins = (keys[k], i)
                break
            keys[k] = i
        assert twins is not None, "WV draws should collapse within 24"
        legacy = _epr_unit("vectoradd", "WV", n, accel=False, seed=seed)
        a, b = twins
        assert legacy["outcomes"][a] == legacy["outcomes"][b]

    # IAL enable forces victim lanes, which are exec-mask lanes already:
    # its error functions are (None, None) on every target, guarded or
    # not, so rule R2 holds and the accelerated replay classifies the
    # descriptor without simulating it.
    @pytest.mark.parametrize("predicated", [False, True])
    def test_ial_enable_inert_on_every_target(self, predicated):
        from repro.campaign.goldens import reference_run
        from repro.swinjector.accel import AccelStats
        from repro.swinjector.campaign import replay_injection

        w = _LaneApp(predicated)
        golden, trace = reference_run(w, _MEM_WORDS, traced_key="")
        desc = ErrorDescriptor(ErrorModel.IAL, lane=3,
                               lane_enable_mode="enable")
        watchdog = 10 * golden.dynamic_instructions + 10_000
        stats = AccelStats()
        fast = replay_injection(w, desc, golden.bits, watchdog, _MEM_WORDS,
                                trace, stats)
        cold = replay_injection(w, desc, golden.bits, watchdog, _MEM_WORDS)
        assert fast == cold
        assert cold.outcome == "masked" and cold.activations > 0
        assert stats.skipped == 1


def _lane_kernel(predicated: bool):
    """``out[0] = 5 + 1``; with *predicated* the increment runs under a
    predicate that is false on every lane, so ``out[0] = 5``."""
    k = KernelBuilder("lanes", nregs=8)
    ptr = k.load_param(0)
    v = k.mov32i_new(5)
    p = k.pred()
    k.isetp(p, v, imm=5, cmp=CmpOp.NE)
    k.iadd(v, v, imm=1, pred=p if predicated else PT)
    k.gst(ptr, v)
    k.exit()
    return k.build()


class _LaneApp(Workload):
    """One warp running :func:`_lane_kernel`."""

    meta = WorkloadMeta("lane-shapes", "int32", "test", "isa.builder")
    scales = {"tiny": {}}

    def __init__(self, predicated: bool):
        self.predicated = predicated
        super().__init__("tiny")

    def _init_data(self) -> None:
        pass

    def _build_programs(self):
        return {"lanes": _lane_kernel(self.predicated)}

    def run(self, device, launcher):
        out = device.alloc(4)
        launcher(self.programs()["lanes"], grid=1, block=32, params=(out,))
        return device.read(out, 4)


#: the benchmark's campaign seed, at which index 0 of these models hangs
HANG_SEED = 0x5C23


class TestHangCycleEquivalence:
    """A hang fast-forwarded to its watchdog slice (``HangCycle``) ends
    exactly like the cold replay: same outcome, DUE reason and activation
    count; hangs that never repeat fall back to the watchdog."""

    @pytest.mark.parametrize("model", ["IAL", "IOC"])
    def test_mxm_hang_is_short_circuited(self, model):
        accel = _epr_unit("mxm", model, 1, accel=True, seed=HANG_SEED)
        legacy = _epr_unit("mxm", model, 1, accel=False, seed=HANG_SEED)
        assert accel["outcomes"] == legacy["outcomes"]
        assert legacy["outcomes"][0]["due_reason"] == "watchdog-timeout"
        assert accel["accel"]["hang_cycles"] >= 1

    def test_quicksort_hang_without_cycle_falls_back(self):
        accel = _epr_unit("quicksort", "IMD", 1, accel=True, seed=HANG_SEED)
        legacy = _epr_unit("quicksort", "IMD", 1, accel=False,
                           seed=HANG_SEED)
        assert accel["outcomes"] == legacy["outcomes"]
        assert legacy["outcomes"][0]["due_reason"] == "watchdog-timeout"
        assert accel["accel"]["hang_cycles"] == 0

    # -- isa.builder kernels ----------------------------------------------
    # Every ISETP of a WV victim writes the inverted predicate. The loop
    # below turns its exit test into data (SEL) and back into a predicate,
    # so under WV the two flips cancel on the exit test while the counter
    # step becomes 0: the loop spins at i == 0 for ever.

    @pytest.mark.parametrize("shape, desc, cycles", [
        # in-place global store in the loop: the state repeats
        ("inplace", ErrorDescriptor(ErrorModel.WV), 1),
        # the store address advances: the state never repeats
        ("advance", ErrorDescriptor(ErrorModel.WV), 0),
        # a corrupted loop bound (8 ^ 1<<16) counts up past the budget,
        # storing the moving counter to one word: an affine fast-forward
        ("inplace", ErrorDescriptor(ErrorModel.IMS, bit_err_mask=1 << 16), 1),
        # CTA 1 (on SM 1) hangs after CTA 0 completed
        ("two-ctas", ErrorDescriptor(ErrorModel.WV, sm_id=1), 1),
        # the hang is in a launch the golden run never makes
        ("relaunch", ErrorDescriptor(ErrorModel.WV), 1),
    ])
    def test_builder_kernel_hangs(self, shape, desc, cycles):
        assert _builder_hang(shape, desc).hang_cycles == cycles

    def test_epr_hang_shortcut_kinds(self):
        # the perfbench epr-hang item set (lenet + mxm x 11 models x 2):
        # oracle-check compares outcomes only, so a lost shortcut would
        # pass it; pin the kind of fast-forward that decides each run
        from repro import obs
        from repro.swinjector.campaign import (SwCampaignConfig,
                                               run_epr_campaign)

        obs.reset()
        obs.enable()
        try:
            run_epr_campaign(SwCampaignConfig(
                apps=("lenet", "mxm"), injections_per_model=2,
                seed=HANG_SEED, processes=1))
            spans = [r["attrs"] for r in obs.RECORDER.drain()
                     if r.get("name") == "epr.inject"]
        finally:
            obs.reset()
        kinds = {f"{a['app']}/{a['model']}/{a['index']}": a["accel"]
                 for a in spans if a.get("accel") in ("cycle", "affine")}
        assert kinds == {
            "lenet/IAL/0": "cycle", "lenet/IOC/0": "cycle",
            "mxm/IAL/0": "cycle", "mxm/IOC/0": "cycle",
            "lenet/IMS/0": "affine", "lenet/IMS/1": "affine"}

    def test_digest_table_cap_falls_back_to_watchdog(self, monkeypatch):
        # a watch holds one digest per anchor visit, at most _MAX_VISITS:
        # capped at one, every watch ends before the loop's first repeat
        # (each re-armed watch too), and the hang runs to the watchdog
        from repro.swinjector import accel

        monkeypatch.setattr(accel, "_MAX_VISITS", 1)
        assert _builder_hang("inplace",
                             ErrorDescriptor(ErrorModel.WV)).hang_cycles == 0


_MEM_WORDS = 1 << 16


def _builder_hang(shape: str, desc):
    """Replay *desc* on :class:`_HangApp` accelerated and cold, assert both
    end in the same watchdog DUE, and return the accelerated stats."""
    from repro.campaign.goldens import reference_run
    from repro.swinjector.accel import AccelStats
    from repro.swinjector.campaign import replay_injection

    w = _HangApp(shape)
    golden, trace = reference_run(w, _MEM_WORDS, traced_key="")
    # far below the campaign's 10 x golden + 10 000, to keep the cold
    # replays short; any budget past the golden length is a valid one
    watchdog = 4_096
    stats = AccelStats()
    fast = replay_injection(w, desc, golden.bits, watchdog, _MEM_WORDS,
                            trace, stats)
    cold = replay_injection(w, desc, golden.bits, watchdog, _MEM_WORDS)
    assert fast == cold
    assert cold.outcome == "due" and cold.due_reason == "watchdog-timeout"
    assert cold.activations > 0
    return stats


def _loop_kernel(advance: bool):
    """``do { out[0] = i; step = i < n; i += step } while (step != 0)``,
    storing to ``out + 4*iteration`` instead when *advance*."""
    k = KernelBuilder("loop", nregs=16)
    n = k.load_param(0)
    ptr = k.load_param(1)
    i = k.mov32i_new(0)
    one = k.mov32i_new(1)
    step = k.reg()
    p, q = k.pred(), k.pred()
    head = k.label()
    k.gst(ptr, i)
    if advance:
        k.iadd(ptr, ptr, imm=4)
    k.isetp(p, i, n, CmpOp.LT)
    k.sel(step, one, RZ, p)
    k.iadd(i, i, step)
    k.isetp(q, step, RZ, CmpOp.NE)
    k.bra(head, pred=q)
    k.exit()
    return k.build()


def _flag_kernel():
    """``out[0] = (n == 8)``."""
    k = KernelBuilder("flag", nregs=8)
    n = k.load_param(0)
    ptr = k.load_param(1)
    one = k.mov32i_new(1)
    p = k.pred()
    k.isetp(p, n, imm=8, cmp=CmpOp.EQ)
    v = k.reg()
    k.sel(v, one, RZ, p)
    k.gst(ptr, v)
    k.exit()
    return k.build()


class _HangApp(Workload):
    """One-warp CTAs running :func:`_loop_kernel` over ``n = 8``; with
    ``relaunch`` the host first runs :func:`_flag_kernel` and launches the
    loop only when the flag comes back wrong (never, in the golden run)."""

    meta = WorkloadMeta("hang-shapes", "int32", "test", "isa.builder")
    scales = {"tiny": {}}

    def __init__(self, shape: str):
        self.shape = shape
        super().__init__("tiny")

    def _init_data(self) -> None:
        pass

    def _build_programs(self):
        return {"loop": _loop_kernel(self.shape == "advance"),
                "flag": _flag_kernel()}

    def run(self, device, launcher):
        out = device.alloc(64)
        progs = self.programs()
        if self.shape == "relaunch":
            launcher(progs["flag"], grid=1, block=32, params=(8, out))
            if device.read(out, 1)[0] == 1:
                return device.read(out, 64)
        grid = 2 if self.shape == "two-ctas" else 1
        launcher(progs["loop"], grid=grid, block=32, params=(8, out))
        return device.read(out, 64)


# -- affine fast-forward ------------------------------------------------
# Count-up loops built with isa.builder. Every number is an immediate
# except the loop bound, the kernel's only LDC: an IMS descriptor with
# ``bit_err_mask = mask`` turns the golden bound n into ``n ^ mask``.

#: byte addresses of the two allocations :class:`_CountApp` makes, of a
#: word past its allocation break, and of the last word below it
_OUT, _DATA = 0, 128
_DATA_WORDS = 4096
_WORD = _DATA + 4 * _DATA_WORDS + 256
_BELOW = _DATA + 4 * (_DATA_WORDS - 1)


@dataclass(frozen=True)
class _Count:
    """``do { body; a += stride; i += step } while (i <cmp> n)``, then
    ``out[0] = acc`` (and ``out[1] = i`` with *store_i*). The body is
    *pad* NOPs and ``acc += data[a]`` ("load"); that plus
    ``t = word; word = i`` on the fixed word at byte *word*, by default
    past the allocation break ("word"); that plus an FADD reading ``i``
    whose result is dead at the loop head ("fp"); or *pad* NOPs and
    ``data[a] = 0`` ("store")."""

    start: int
    step: int
    cmp: CmpOp
    n: int
    mask: int
    stride: int = 4
    offset: int = 0
    fill: tuple = ()  # (word, value) pairs; the rest of data is zero
    shape: str = "load"
    store_i: bool = True
    pad: int = 0
    word: int = _WORD

    @property
    def length(self) -> int:
        """Instructions in one iteration of the loop."""
        return self.pad + {"load": 6, "word": 9, "fp": 8, "store": 5}[
            self.shape]

    def kernel(self):
        k = KernelBuilder("count", nregs=16)
        n = k.load_param(0)
        i = k.mov32i_new(self.start)
        a = k.mov32i_new(_DATA + self.offset)
        acc = k.mov32i_new(0)
        v, t = k.reg(), k.reg()
        p = k.pred()
        head = k.label()
        for _ in range(self.pad):
            k.nop()
        if self.shape == "store":
            k.gst(a, RZ)
        else:
            k.gld(v, a)
            k.iadd(acc, acc, v)
        if self.shape == "word":
            x = k.mov32i_new(self.word)
            k.gld(t, x)
            k.gst(x, i)
        if self.shape == "fp":
            k.fadd(t, i, v)
            k.mov32i(t, 0)
        k.iadd(a, a, imm=self.stride)
        k.iadd(i, i, imm=self.step)
        k.isetp(p, i, n, self.cmp)
        k.bra(head, pred=p)
        out = k.mov32i_new(_OUT)
        k.gst(out, acc)
        if self.store_i:
            k.gst(out, i, offset=4)
        k.exit()
        return k.build()


class _CountApp(Workload):
    """One warp running a :class:`_Count` loop; keeps its last output."""

    meta = WorkloadMeta("count-up", "int32", "test", "isa.builder")
    scales = {"tiny": {}}

    def __init__(self, spec: _Count):
        self.spec = spec
        self.bits = self.error = None
        super().__init__("tiny")

    def _init_data(self) -> None:
        pass

    def _build_programs(self):
        return {"count": self.spec.kernel()}

    def run(self, device, launcher):
        self.bits = self.error = None
        out = device.alloc(2)
        data = np.zeros(_DATA_WORDS, dtype=np.uint32)
        for word, value in self.spec.fill:
            data[word] = value
        assert (out, device.alloc_array(data)) == (_OUT, _DATA)
        try:
            launcher(self.programs()["count"], grid=1, block=32,
                     params=(self.spec.n,))
        except DeviceError as exc:
            self.error = str(exc)  # names the faulting address
            raise
        self.bits = device.read(out, 2)
        return self.bits


def _count_replay(spec: _Count, watchdog: int = 20_000):
    """Replay IMS(``spec.mask``) on :class:`_CountApp` accelerated and
    cold, assert equal outcome, DUE reason and message, activations and
    output bits, and return ``(cold outcome, accelerated stats)``."""
    from repro.campaign.goldens import reference_run
    from repro.swinjector.accel import AccelStats
    from repro.swinjector.campaign import replay_injection

    w = _CountApp(spec)
    golden, trace = reference_run(w, _MEM_WORDS, traced_key="")
    desc = ErrorDescriptor(ErrorModel.IMS, bit_err_mask=spec.mask)
    stats = AccelStats()
    fast = replay_injection(w, desc, golden.bits, watchdog, _MEM_WORDS,
                            trace, stats)
    fast_bits, fast_error = w.bits, w.error
    cold = replay_injection(w, desc, golden.bits, watchdog, _MEM_WORDS)
    assert fast == cold
    assert fast_error == w.error
    assert cold.activations > 0
    if fast_bits is None:
        assert w.bits is None
    else:
        assert np.array_equal(fast_bits, w.bits)
    return cold, stats


class TestAffineFastForward:
    """``HangCycle`` on count-up loops: one kernel per cut of ``k``, each
    fast == cold for outcome, DUE reason, activations and output bits."""

    @pytest.mark.parametrize("spec, outcome", [
        # the bound 8 becomes 2056: the compare flips mid-budget and the
        # loop ends with acc = 3 * 2056 and i = 2056
        (_Count(0, 1, CmpOp.LT, 8, 1 << 11,
                fill=tuple((w, 3) for w in range(_DATA_WORDS))), "sdc"),
        # the same loop over zeros, storing acc alone: exact golden bits
        (_Count(0, 1, CmpOp.LT, 8, 1 << 11, store_i=False), "masked"),
        # a non-zero word inside the strided range: the jump stops short
        # of it, and acc picks it up
        (_Count(0, 1, CmpOp.LT, 8, 1 << 11, fill=((1500, 7),)), "sdc"),
        # i is stored to a word that the next iteration reads back
        (_Count(0, 1, CmpOp.LT, 8, 1 << 11, shape="word"), "sdc"),
    ])
    def test_loop_that_ends(self, spec, outcome):
        cold, stats = _count_replay(spec)
        assert cold.outcome == outcome
        assert stats.hang_cycles >= 1

    @pytest.mark.parametrize("spec", [
        # while (i > 0), counting up from 0x7ff83000 by 256: the int32
        # compare flips where i wraps to INT_MIN (2000 iterations)
        _Count(0x7FF83000, 0x100, CmpOp.GT, 0x7FF83200, 0x7FF83200,
               stride=0),
        # while (i < 0), counting up from 0xfff83000 by 256: the compare
        # flips where i wraps through 0xffffffff to 0 (uint32 wrap)
        _Count(0xFFF83000, 0x100, CmpOp.LT, 0xFFF83100, 0xFFF83100,
               stride=0),
    ])
    def test_compare_flips_at_wrap(self, spec):
        cold, stats = _count_replay(spec)
        assert cold.outcome == "sdc"
        assert stats.hang_cycles >= 1

    def test_int32_wrap_that_does_not_flip_is_jumped_over(self):
        # i < 0x7fffffff for even i: i wraps from 0x7ffffffe to INT_MIN
        # and the loop goes on; one jump reaches the watchdog slice
        cold, stats = _count_replay(_Count(
            0x7FFFF000, 2, CmpOp.LT, 0x7FFFF004, 0x7FFFF004 ^ 0x7FFFFFFF,
            stride=0))
        assert cold.due_reason == "watchdog-timeout"
        assert stats.hang_cycles == 1

    def test_stride_out_of_range_faults_in_the_cold_slice(self):
        # 128-byte stride from byte 128 leaves the 256 KiB memory after
        # ~2047 iterations, mid-budget
        cold, stats = _count_replay(_Count(0, 1, CmpOp.LT, 8, 1 << 20,
                                           stride=128))
        assert cold.outcome == "due" and cold.due_reason != "watchdog-timeout"
        assert stats.hang_cycles >= 1

    @pytest.mark.parametrize("spec", [
        # an FP op reads the counter
        _Count(0, 1, CmpOp.LT, 8, 1 << 20, shape="fp"),
        # stores (of zero, past the allocation break) to a moving address
        _Count(0, 1, CmpOp.LT, 8, 1 << 20, shape="store",
               offset=4 * _DATA_WORDS + 1024),
    ])
    def test_refused(self, spec):
        cold, stats = _count_replay(spec)
        assert cold.due_reason == "watchdog-timeout"
        assert stats.hang_cycles == 0

    def test_jump_lands_on_the_cold_state(self):
        # i and the word it is stored to both move, and the loop ends
        # (2056 iterations) before the watchdog: the state a jump writes
        # must be the cold replay's state at that launch count
        from repro.gpusim.config import DeviceConfig
        from repro.gpusim.device import Device
        from repro.swinjector.accel import AccelStats, HangCycle

        spec = _Count(0, 1, CmpOp.LT, 8, 1 << 11, shape="word")
        desc = ErrorDescriptor(ErrorModel.IMS, bit_err_mask=spec.mask)

        def run(make_hook):
            dev = Device(DeviceConfig(global_mem_words=_MEM_WORDS))
            tool = NVBitPERfi(desc)
            hook = make_hook(dev, tool)

            def launcher(program, grid, block, params=(),
                         shared_words=None):
                return dev.launch(program, grid, block, params=params,
                                  watchdog=20_000, instrumentation=tool,
                                  round_hook=hook)
            return _CountApp(spec).run(dev, launcher)

        landed = []

        def fast(dev, tool):
            cycle = HangCycle(dev, tool, 20_000, AccelStats())

            def hook(cta, executed, warps, shared_mem):
                skip = cycle(cta, executed, warps, shared_mem)
                if skip and not landed:
                    landed.append((executed + skip, warps[0].regs.copy(),
                                   dev.global_mem.data.copy(),
                                   tool.activations))
                return skip
            return hook

        seen = []

        def cold(dev, tool):
            def hook(cta, executed, warps, shared_mem):
                if landed and executed == landed[0][0]:
                    seen.append((executed, warps[0].regs.copy(),
                                 dev.global_mem.data.copy(),
                                 tool.activations))
            return hook

        assert np.array_equal(run(fast), run(cold))
        assert landed and landed[0][0] > 10_000
        (at, regs, mem, acts), = seen
        assert np.array_equal(regs, landed[0][1])
        assert np.array_equal(mem, landed[0][2])
        assert mem[_WORD // 4] != 0 and acts == landed[0][3]

    def test_lava_ims_shape_ends_at_its_period(self):
        # a 29-instruction count-up hang under lava's 19 640-instruction
        # watchdog: a proof at lcm(29, 256) = 7 424 instructions never
        # fits; the proof at L = 29 ends the run in closed form
        from repro import obs

        obs.reset()
        obs.enable()
        try:
            cold, stats = _count_replay(
                _Count(0, 1, CmpOp.LT, 8, 1 << 20, pad=23), watchdog=19_640)
            kinds = [r["attrs"].get("accel") for r in obs.RECORDER.drain()
                     if r.get("name") == "epr.inject"]
        finally:
            obs.reset()
        assert cold.due_reason == "watchdog-timeout"
        assert stats.hang_cycles == 1
        assert kinds == ["affine", None]  # accelerated, then cold

    def test_span_names_the_fast_forward(self):
        from repro import obs
        from repro.campaign.goldens import reference_run
        from repro.swinjector.accel import AccelStats
        from repro.swinjector.campaign import replay_injection

        kinds = {}
        obs.reset()
        obs.enable()
        try:
            for shape, desc in (
                    ("inplace", ErrorDescriptor(ErrorModel.WV)),
                    ("inplace", ErrorDescriptor(ErrorModel.IMS,
                                                bit_err_mask=1 << 16))):
                w = _HangApp(shape)
                golden, trace = reference_run(w, _MEM_WORDS, traced_key="")
                replay_injection(w, desc, golden.bits, 4_096, _MEM_WORDS,
                                 trace, AccelStats())
                (span,) = [r for r in obs.RECORDER.drain()
                           if r.get("name") == "epr.inject"]
                kinds[desc.model.value] = span["attrs"].get("accel")
        finally:
            obs.reset()
        assert kinds == {"WV": "cycle", "IMS": "affine"}


class TestAffinePeriods:
    """:func:`~repro.swinjector.accel.affine_periods` on hand-made
    one-step periods of one warp (lane 0 executes)."""

    M = np.zeros(32, dtype=bool)
    M[0] = True

    @staticmethod
    def _col(value: int) -> np.ndarray:
        return np.full(32, value & 0xFFFFFFFF, dtype=np.uint32)

    def _periods(self, steps, deltas, mem_deltas=None, fill=(),
                 k_max=100):
        from repro.gpusim.memory import (ConstantMemory, GlobalMemory,
                                         SharedMemory)
        from repro.swinjector.accel import affine_periods

        g = GlobalMemory(1024)
        for word, value in fill:
            g.data[word] = value
        d = np.zeros((32, 4), dtype=np.uint32)
        for r, v in deltas.items():
            d[:, r] = v & 0xFFFFFFFF
        spaces = (g, SharedMemory(16), ConstantMemory(16))
        proved = affine_periods(steps, d, mem_deltas or {}, spaces, k_max)
        return None if proved is None else proved[0]

    def _setp(self, cmp, x, y):
        from repro.isa.instruction import Instruction
        from repro.isa.opcodes import Op

        instr = Instruction(Op.ISETP, srcs=(0, 1), aux=int(cmp), pdst=0)
        return (instr, self.M, [self._col(x), self._col(y)], None, ())

    @pytest.mark.parametrize("cmp, x, y, k", [
        # x walks 0x7ffffff0, 0x7ffffff1, ...: x < 0x7fffffff flips at
        # j = 15; x > 0 flips at the int32 wrap, j = 16
        (CmpOp.LT, 0x7FFFFFF0, 0x7FFFFFFF, 14),
        (CmpOp.GT, 0x7FFFFFF0, 0, 15),
        # x != 5 from x = 0xfffffff0: the uint32 wrap reaches 5 at j = 21
        (CmpOp.NE, 0xFFFFFFF0, 5, 20),
        (CmpOp.EQ, 7, 7, 0),
    ])
    def test_compare_flip(self, cmp, x, y, k):
        assert self._periods([self._setp(cmp, x, y)], {0: 1}) == k

    def _gld(self, addr: int, loaded: int):
        from repro.isa.instruction import Instruction
        from repro.isa.opcodes import MemSpace, Op

        instr = Instruction(Op.GLD, dst=2, srcs=(0,),
                            aux=int(MemSpace.GLOBAL))
        return (instr, self.M, [self._col(addr)], self._col(loaded), ())

    def test_load_range_and_words(self):
        # R0 walks 0, 16, 32, ... through a 1024-word (4096-byte) memory
        assert self._periods([self._gld(0, 0)], {0: 16}, k_max=999) == 255
        assert self._periods([self._gld(0, 0)], {0: 16}) == 100
        # a non-zero word at byte 160, reached at j = 10
        assert self._periods([self._gld(0, 0)], {0: 16},
                             fill=((40, 9),)) == 9
        # a word that moves between periods is never read from a moving
        # address, even where its value now equals the word read before
        assert self._periods([self._gld(0, 0)], {0: 16},
                             mem_deltas={8: 1}) is None  # never stored
        store = self._store(512)
        assert self._periods([self._gld(0, 0), store], {0: 16, 1: 1},
                             mem_deltas={128: 1}) == 31

    def test_fixed_word_moves_with_its_stores(self):
        # R2 = word 16 (5 now); 5 + j < 10 flips at j = 5; word 16 = R1,
        # so the word, R1 and R2 all move by 1 a period
        from repro.isa.instruction import Instruction
        from repro.isa.opcodes import Op

        load = self._gld(64, 5)
        setp = (Instruction(Op.ISETP, srcs=(2,), imm=10, use_imm=True,
                            aux=int(CmpOp.LT), pdst=0), self.M,
                [self._col(5), self._col(10)], None, ())
        store = self._store(64)
        assert self._periods([load, setp, store], {1: 1, 2: 1},
                             mem_deltas={16: 1}) == 4

    def _store(self, addr: int):
        """``[R3] = R1`` with R3 = *addr*."""
        from repro.isa.instruction import Instruction
        from repro.isa.opcodes import MemSpace, Op

        instr = Instruction(Op.GST, srcs=(3, 1), aux=int(MemSpace.GLOBAL))
        return (instr, self.M, [self._col(addr), self._col(0)], None, ())

    def test_refusals(self):
        from repro.isa.instruction import Instruction
        from repro.isa.opcodes import Op

        def alu(op, srcs, **kw):
            return (Instruction(op, dst=2, srcs=srcs, **kw), self.M,
                    [self._col(3) for _ in srcs], self._col(0), ())

        moving = {0: 1}
        for step in (alu(Op.FADD, (0, 1)), alu(Op.XOR, (0, 1)),
                     alu(Op.SEL, (0, 1), aux=0), alu(Op.SHL, (1, 0)),
                     alu(Op.IMUL, (0, 0))):
            assert self._periods([step], moving) is None, step[0].op
        # a store to a moving address
        assert self._periods([self._store(0)], {3: 4}) is None
        # an activation whose error functions may touch a moving register
        instr, m, vals, res, _ = alu(Op.IADD, (1, 1))
        assert self._periods([(instr, m, vals, res, (1, 0))], moving) is None
        # ... or that loads a moving word (R2 = word 16 = R1)
        load = self._gld(64, 0)
        for footprint, k in (((), 100), ((0,), None)):
            assert self._periods([self._store(64), load[:4] + (footprint,)],
                                 {1: 1, 2: 1}, mem_deltas={16: 1}) == k
        # an activation away from the moving registers passes
        assert self._periods([(instr, m, vals, res, (1, 2))], moving) == 100
        # affine ops pass; the period must end where it started plus D
        assert self._periods([alu(Op.IMAD, (0, 1, 1))], moving) is None
        assert self._periods([alu(Op.IADD, (0, 1)),
                              alu(Op.MOV, (0,))], {0: 1, 2: 1}) == 100


class TestAffineStages:
    """``HangCycle`` driven by hand on a one-warp CTA: its watch sees
    anchor visits ``L`` apart and proves that R0 moved; from the next
    round boundary the hook records one period with a watch of known
    length, and at the round boundary after that period it ends the loop,
    jumps or backs off. R0 is set before each call; the recorded period
    is filled in by hand: ``ISETP R0 < bound`` at offset 0 (R0 is 15
    there and moves by 5), ``R2 = R0`` at offset 4 and ``R2 = RZ`` at
    offset 20, so R2 moves by 5 inside the period and by 0 over it."""

    L = 24
    E2 = 1_512          # the recording starts at this round boundary
    R = 1_768           # the proof runs here: q = 10 periods, r = 16 in

    def _hook(self, watchdog: int = 100_000):
        from repro.gpusim.config import DeviceConfig
        from repro.gpusim.device import Device
        from repro.gpusim.executor import WarpState
        from repro.gpusim.memory import SharedMemory
        from repro.swinjector.accel import AccelStats, HangCycle

        k = KernelBuilder("idle", nregs=4)
        k.exit()
        self.warp = WarpState(k.build(), 0, 0, (32, 1, 1), (1, 1, 1),
                              (0, 0, 0), 0, 0, 0)
        self.tool = NVBitPERfi(ErrorDescriptor(ErrorModel.IMS))
        dev = Device(DeviceConfig(global_mem_words=1024))
        self.hook = HangCycle(dev, self.tool, watchdog, AccelStats())
        self.shared = SharedMemory(1)

    def _at(self, x: int, r0: int) -> None:
        """The warp at launch count *x* (it ran from 1 000) with R0 *r0*."""
        self.warp.instructions_executed = x - 1_000
        self.warp.regs[:, 0] = r0

    def _round(self, x: int, r0: int):
        self._at(x, r0)
        return self.hook(0, x, [self.warp], self.shared)

    def _visit(self, x: int, r0: int) -> None:
        """An anchor visit of the watch."""
        self._at(x, r0)
        watch = self.tool.watch
        watch.before(watch.anchor, False)

    def _period(self, bound: int) -> list:
        from repro.isa.instruction import Instruction
        from repro.isa.opcodes import Op

        lane0 = np.zeros(32, dtype=bool)
        lane0[0] = True

        def col(v):
            return np.full(32, v, dtype=np.uint32)
        steps = [(Instruction(Op.NOP), lane0, [], None, ())] * self.L
        steps[0] = (Instruction(Op.ISETP, srcs=(0, 1), aux=int(CmpOp.LT),
                                pdst=0), lane0, [col(15), col(bound)],
                    None, ())
        steps[4] = (Instruction(Op.MOV, dst=2, srcs=(0,)), lane0,
                    [col(15)], col(15), ())
        steps[20] = (Instruction(Op.MOV, dst=2, srcs=(RZ,)), lane0,
                     [col(0)], col(0), ())
        return steps

    def _recorded(self, bound: int, watchdog: int = 100_000,
                  moved: bool = True) -> None:
        """Arm a watch, let R0 move 0, 10, 15 over anchor visits ``L``
        apart (the second visit's control state repeats the first's), and
        record the period ``[E2, E2 + L)`` in which R0 moves 15 -> 20
        (with *moved*; else a predicate differs at its end)."""
        self._hook(watchdog)
        assert self._round(1_000, 0) is None
        assert self._round(1_256, 0) is None  # a slice in: the watch arms
        for n, r0 in enumerate((0, 10, 15)):
            assert self.tool.recorder is None
            self._visit(1_300 + n * self.L, r0)
        assert self.tool.watch is None  # the watch ended in a proof
        assert self._round(self.E2, 15) is None
        recorder = self.tool.recorder
        assert recorder is not None and self.tool.watch.length == self.L
        self._visit(self.E2, 15)  # the recorded period starts
        recorder.steps.extend(self._period(bound))
        self.warp.preds[0] ^= not moved
        self._visit(self.E2 + self.L, 20)
        assert self.tool.watch is None and self.tool.recorder is None

    def _prove(self):
        """The round boundary ``R`` after the recorded period, with R0 and
        R2 (lane 0) where ``q = 10`` more periods left them."""
        self.warp.regs[0, 2] = 1_000
        return self._round(self.R, 15 + 10 * 5)

    def test_records_only_a_move_that_repeats(self):
        # the recorded period ends with a predicate changed: the recording
        # is dropped, and the next watch waits out the back-off
        self._recorded(bound=1 << 20, moved=False)
        assert self._prove() is None
        assert self.hook.retry_at == self.R + 2 * 256
        assert self._round(self.R + 256, 65) is None
        assert self.tool.watch is None
        assert self._round(self.R + 512, 65) is None
        assert self.tool.watch is not None

    def test_jump_writes_the_moved_registers(self):
        # R0 < 270 holds for periods j < 51: k = 50, and 40 periods are
        # left after q = 10; the jump takes 32 of them (32·24 is a
        # multiple of 256) and writes the deltas at r = 16, where R2
        # moves by 5 although it ends each period where it started
        self._recorded(bound=270)
        before = self.warp.regs.copy()
        assert self._prove() == 32 * self.L
        assert (self.warp.regs[:, 0] == 65 + 32 * 5).all()
        assert self.warp.regs[0, 2] == 1_000 + 32 * 5
        assert np.array_equal(self.warp.regs[1:, 2], before[1:, 2])
        assert self.hook.shortcuts == ["affine"]
        assert self.hook.watch is None and self.tool.recorder is None

    def test_refused_when_too_few_periods_fit(self):
        # R0 < 220 holds for j < 41: 30 periods are left after q = 10,
        # fewer than the 32 a jump to the slice grid needs: back off
        self._recorded(bound=220)
        assert self._prove() is None
        assert self.hook.shortcuts == []
        assert self.hook.retry_at == self.R + 2 * 256

    @pytest.mark.parametrize("watchdog", [9_000, 9_300, 9_500])
    def test_ends_only_when_the_path_repeats_through_T(self, watchdog):
        # T is the slice end where the watchdog fires; the steps from E2
        # up to it fill need + 1 periods, the last one whole (9 000) or
        # partly (16 or 8 steps of it). A flip in period need is before
        # T: no end. A flip in period need + 1 is past it: the loop ends
        # at T in closed form
        t = self.R + 256 * ((watchdog - self.R) // 256 + 1)
        need = -(-(t - self.E2) // self.L) - 1
        self._recorded(bound=15 + 5 * need, watchdog=watchdog)
        assert self._prove() != t - self.R
        self._recorded(bound=15 + 5 * (need + 1), watchdog=watchdog)
        assert self._prove() == t - self.R
        assert self.hook.shortcuts == ["affine"]


@pytest.fixture
def periods(monkeypatch):
    """``(L, instructions)`` of the affine jumps taken so far (not of the
    closed-form ends, which go past the watchdog)."""
    from repro.swinjector import accel

    seen = []
    affine = accel.HangCycle._affine

    def spy(self, p, warp, executed, shared_mem):
        skip = affine(self, p, warp, executed, shared_mem)
        if skip and executed + skip <= self.watchdog:
            seen.append((p.length, skip))
        return skip
    monkeypatch.setattr(accel.HangCycle, "_affine", spy)
    return seen


class TestAnchorHandoff:
    """Count-up loops the watch proves at their own period ``L``, for
    loop lengths that do not divide 256: every jump spans a whole number
    of periods that is also a whole number of slices, a multiple of
    ``lcm(L, 256)`` instructions; a loop that moves a word below the
    allocation break (which no digest hashes) is proved like one past
    it."""

    @pytest.mark.parametrize("spec", [
        _Count(0, 1, CmpOp.LT, 8, 1 << 20, pad=1),                # L = 7
        _Count(0, 1, CmpOp.LT, 8, 1 << 20, pad=4),                # L = 10
        _Count(0, 1, CmpOp.LT, 8, 1 << 20, shape="word"),         # L = 9
        _Count(0, 1, CmpOp.LT, 8, 1 << 20, shape="word", pad=5),  # L = 14
        _Count(0, 1, CmpOp.LT, 8, 1 << 20, shape="word", word=_BELOW),
        _Count(0, 3, CmpOp.LT, 8, 1 << 20, shape="word", word=_OUT + 4,
               pad=2),                                            # L = 11
    ])
    def test_hang_jumps_at_lcm_period(self, spec, periods):
        # iteration 700 loads a non-zero word: the path changes there, so
        # the first proof jumps short of it; past it, the hang ends in
        # closed form
        cold, stats = _count_replay(replace(spec, fill=((700, 7),)))
        assert cold.due_reason == "watchdog-timeout"
        assert periods and stats.hang_cycles == len(periods) + 1
        assert all(length == spec.length
                   and skip % math.lcm(length, 256) == 0
                   for length, skip in periods)

    @pytest.mark.parametrize("word", [_BELOW, _OUT + 4])
    def test_word_below_the_break_in_a_loop_that_ends(self, word, periods):
        # the bound 8 becomes 2056; i is stored to a word inside an
        # allocation, which the next iteration reads back
        cold, stats = _count_replay(_Count(0, 1, CmpOp.LT, 8, 1 << 11,
                                           shape="word", word=word))
        assert cold.outcome == "sdc"
        assert periods and all(length == 9 and skip % math.lcm(9, 256) == 0
                               for length, skip in periods)


# -- count-up loops proved at their own period ----------------------------
# The loop reloads its bound (LDC) every iteration, so IMS activates once
# a period, and ``t`` is written twice a period: it holds ``i + 1``
# between its writes and 0 at the loop head, so at most offsets of the
# period the state moves by another delta than over the whole period.


@dataclass(frozen=True)
class _Climb:
    """*lead* NOPs, then ``do { n = bound; t = i + 1; pad; i = t; t = 0 }
    while (i < n)`` and ``out[1] = i``: a loop of exactly *length*
    instructions, whose golden bound 8 IMS turns into *bound*. Runs on
    :class:`_CountApp`."""

    length: int
    lead: int
    bound: int
    n = 8
    fill = ()

    @property
    def mask(self) -> int:
        return self.n ^ self.bound

    def kernel(self):
        k = KernelBuilder("climb", nregs=16)
        for _ in range(self.lead):
            k.nop()
        i = k.mov32i_new(0)
        n, t = k.reg(), k.reg()
        p = k.pred()
        head = k.label()
        k.ldc(n, RZ)
        k.iadd(t, i, imm=1)
        for _ in range(self.length - 6):
            k.nop()
        k.mov(i, t)
        k.mov32i(t, 0)
        k.isetp(p, i, n, CmpOp.LT)
        k.bra(head, pred=p)
        out = k.mov32i_new(_OUT)
        k.gst(out, i, offset=4)
        k.exit()
        return k.build()


def _climb_sweep(spec: _Climb, budgets, cold_budgets) -> list[int]:
    """Replay IMS on *spec* accelerated at each of *budgets* and assert
    the cold replay's outcome, DUE reason, activations and output bits:
    real cold replays at *cold_budgets*, and at the rest what one cold
    run to the largest budget gives (:func:`_cold_watchdog`): the output
    and count at its end when it finishes within the budget, else the
    count at the first slice end past it. Returns the budgets, with 16
    more over the 256 instructions before the end of a run that
    finishes."""
    from repro.campaign.goldens import reference_run
    from repro.swinjector.accel import AccelStats
    from repro.swinjector.campaign import replay_injection

    w = _CountApp(spec)
    golden, trace = reference_run(w, _MEM_WORDS, traced_key="")
    desc = ErrorDescriptor(ErrorModel.IMS, bit_err_mask=spec.mask)
    counts, bits = _cold_watchdog(w, desc, max(budgets) + 512)
    ends = sorted(counts)
    if bits is not None:
        # the loop exits a few steps before the run ends at ends[-1]:
        # budgets over the 256 before it meet the jump that ends short
        # of the exit, the watchdog past it and the run that finishes
        budgets = [*budgets, *range(ends[-1] - 256, ends[-1] + 1, 17)]
    for b in budgets:
        fast = replay_injection(w, desc, golden.bits, b, _MEM_WORDS, trace,
                                AccelStats())
        if bits is not None and ends[-1] <= b:
            assert np.array_equal(w.bits, bits), (spec, b)
            outcome = "masked" if np.array_equal(bits, golden.bits) else "sdc"
            want = (outcome, None, counts[ends[-1]])
        else:
            t = next(e for e in ends if e > b)
            want = ("due", "watchdog-timeout", counts[t])
        assert (fast.outcome, fast.due_reason, fast.activations) == want, (
            spec, b)
        if b in cold_budgets:
            fast_bits = w.bits
            cold = replay_injection(w, desc, golden.bits, b, _MEM_WORDS)
            assert fast == cold, (spec, b)
            assert (fast_bits is None) == (w.bits is None)
    return budgets


def _climbs(rng, hang: bool):
    """``(spec, budgets b0 + 256·j for j < L, two of them to replay
    cold)`` for loops of 7, 9, 25 and 29 instructions at a random phase
    on the slice grid: hangs, or loops that exit mid-sweep, after more
    than the 256 periods one jump to the slice grid spans."""
    for length in (7, 9, 25, 29):
        b0 = 256 * length + 2_048 + int(rng.integers(0, 256))
        lead = int(rng.integers(0, length))
        bound = 1 << 30 if hang else (b0 + 128 * length) // length
        budgets = [b0 + 256 * j for j in range(length)]
        cold = {budgets[0], budgets[int(rng.integers(1, length))]}
        yield _Climb(length, lead, bound), budgets, cold


def _random_count(rng) -> _Count:
    """A count-up loop whose golden run takes 1..8 iterations, with a
    random start, step, compare, stride, memory fill and bound flip.

    Three seeds in four pick the flip for a shape: a loop that ends after
    700..1250 iterations (a few periods past its golden length, inside
    the fuzz budget) or one that runs past 2000 (a hang); the fourth
    takes any flip."""
    shape = rng.choice(["ends", "ends", "hangs", "any"])
    for _ in range(1000):
        start = int(rng.integers(-(1 << 31), 1 << 31))
        step = int(rng.choice([1, 2, 3, 64, 0x100, 0x10001, -1, -7]))
        cmp = CmpOp(int(rng.integers(0, 6)))
        n = _wrap32(start + step * int(rng.integers(1, 9))
                    + int(rng.integers(-1, 2)))
        if _iterations(start, step, cmp, n, 8) > 8:
            continue
        mask = 1 << int(rng.integers(0, 32))
        faulty = _iterations(start, step, cmp, _wrap32(n ^ mask), 2000)
        if (shape == "any" or (shape == "hangs" and faulty > 2000)
                or (shape == "ends" and 700 <= faulty <= 1250)):
            break
    stride = 4 * int(rng.choice([0, 1, 2, 32, 128, -1]))
    fill = tuple((int(w), int(rng.integers(0, 3)))
                 for w in rng.integers(0, _DATA_WORDS, size=8))
    return _Count(start & 0xFFFFFFFF, step & 0xFFFFFFFF, cmp,
                  n & 0xFFFFFFFF, mask, stride=stride & 0xFFFFFFFF,
                  offset=4 * _DATA_WORDS // 2, fill=fill)


def _wrap32(x: int) -> int:
    """*x* as a signed 32-bit integer."""
    return (x + (1 << 31)) % (1 << 32) - (1 << 31)


_COMPARE = {CmpOp.LT: operator.lt, CmpOp.LE: operator.le,
            CmpOp.GT: operator.gt, CmpOp.GE: operator.ge,
            CmpOp.EQ: operator.eq, CmpOp.NE: operator.ne}


def _iterations(start: int, step: int, cmp: CmpOp, n: int, cap: int) -> int:
    """Iterations :class:`_Count` runs in int32 arithmetic, or ``cap + 1``
    when that is more than *cap*."""
    i = start
    for t in range(1, cap + 1):
        i = _wrap32(i + step)
        if not _COMPARE[cmp](i, n):
            return t
    return cap + 1


class TestAffineFuzz:
    """Seeded count-up loops: accelerated == cold on every one."""

    SEEDS = range(24)

    def test_random_count_up_loops(self):
        taken = 0
        for seed in self.SEEDS:
            spec = _random_count(np.random.default_rng([0xAFF1, seed]))
            _, stats = _count_replay(spec, watchdog=8_000)
            taken += stats.hang_cycles > 0
        # the budget must exercise the fast-forward, not only the
        # loops that end or fault before it arms
        assert taken >= 8

    def test_count_up_loops_that_end_near_the_watchdog(self, periods):
        # the same loops, exiting mid-sweep: budgets before the exit end
        # in closed form, budgets past it jump (to the slice grid, with
        # the deltas at the jump's offset in the period) and finish; a
        # budget just before the exit jumps and then times out
        for spec, budgets, cold in _climbs(np.random.default_rng(0xC11C),
                                           hang=False):
            del periods[:]
            _climb_sweep(spec, budgets, cold)
            assert periods, spec
            assert all(skip % math.lcm(spec.length, 256) == 0
                       for _, skip in periods)

    def test_moving_word_below_the_break(self):
        # the same loops storing i to a word inside an allocation (one
        # of out, or of data, which the strided loads may reach), with
        # loop lengths 9..14
        taken = 0
        for seed in range(12):
            rng = np.random.default_rng([0xB3A4, seed])
            spec = _random_count(rng)
            word = int(rng.choice([_OUT + 4, _DATA + 4 * int(
                rng.integers(0, _DATA_WORDS))]))
            spec = replace(spec, shape="word", word=word,
                           pad=int(rng.choice([0, 1, 3, 5])))
            _, stats = _count_replay(spec, watchdog=12_000)
            taken += stats.hang_cycles > 0
        assert taken >= 4


# -- loop-granular cycles ------------------------------------------------
# Loops of exactly L instructions that WV turns into an exact cycle: every
# ISETP of the victim warp writes the inverted predicate, so the exit
# test ``step != 0`` flips back while ``step`` becomes 0 (as in
# :func:`_loop_kernel`).

_WV = ErrorDescriptor(ErrorModel.WV)


@dataclass(frozen=True)
class _Spin:
    """``do { pad; p = i < n; step = p ? 1 : 0; i += step } while
    (step != 0)`` over ``n = 2``, then ``out[1] = i``: a loop body of
    exactly :attr:`length` instructions. Each *pad* entry is an
    ``"isetp"`` (a compare into a dead predicate: one more activation
    site of WV), an ``"iadd"``, an in-place ``"gst"``, a ``"nop"`` or a
    ``"bar"``. With *waiter* a second warp spins until ``out[1]`` is
    set: under WV both warps spin for ever. With *leak* each iteration
    also counts up ``out[2]`` and leaves the loop once it passes *leak*:
    the registers repeat, memory does not, and the loop ends."""

    pad: tuple[str, ...]
    waiter: bool = False
    leak: int = 0

    @property
    def length(self) -> int:
        return len(self.pad) + (13 if self.leak else 5)

    def kernel(self):
        k = KernelBuilder("spin", nregs=16)
        n = k.load_param(0)
        out = k.mov32i_new(_OUT)
        one = k.mov32i_new(1)
        c = k.mov32i_new(5)
        i = k.mov32i_new(0)
        t, step, v = k.reg(), k.reg(), k.reg()
        p, q, dead = k.pred(), k.pred(), k.pred()
        if self.waiter:
            # warp 1 waits; two compares in a row, so WV's flips cancel
            k.s2r(t, SpecialReg.WARPID)
            k.isetp(p, t, RZ, CmpOp.NE)
            k.sel(t, one, RZ, p)
            k.isetp(p, t, RZ, CmpOp.NE)
            k.bra("wait", pred=p)
        head = k.label()
        for op in self.pad:
            if op == "isetp":
                k.isetp(dead, c, imm=3, cmp=CmpOp.GT)
            elif op == "iadd":
                k.iadd(t, c, imm=7)
            elif op == "gst":
                k.gst(out, c)
            elif op == "nop":
                k.nop()
            else:
                k.bar()
        if self.leak:
            k.gld(v, out, offset=8)
            k.iadd(v, v, imm=1)
            k.gst(out, v, offset=8)
            k.isetp(p, v, imm=self.leak, cmp=CmpOp.GT)
            k.sel(v, one, RZ, p)
            k.isetp(p, v, RZ, CmpOp.NE)
            k.mov32i(v, 0)
            k.bra("done", pred=p)
        k.isetp(p, i, n, CmpOp.LT)
        k.sel(step, one, RZ, p)
        k.iadd(i, i, step)
        k.isetp(q, step, RZ, CmpOp.NE)
        k.bra(head, pred=q)
        k.label("done")
        k.gst(out, i, offset=4)
        k.exit()
        if self.waiter:
            k.label("wait")
            k.gld(v, out, offset=4)
            k.isetp(p, v, RZ, CmpOp.EQ)
            k.bra("wait", pred=p)
            k.exit()
        return k.build()


class _SpinApp(Workload):
    """One CTA running a :class:`_Spin` loop (two warps with a waiter)."""

    meta = WorkloadMeta("spin", "int32", "test", "isa.builder")
    scales = {"tiny": {}}

    def __init__(self, spec: _Spin):
        self.spec = spec
        super().__init__("tiny")

    def _init_data(self) -> None:
        pass

    def _build_programs(self):
        return {"spin": self.spec.kernel()}

    def run(self, device, launcher):
        out = device.alloc(3)
        assert out == _OUT
        launcher(self.programs()["spin"], grid=1,
                 block=64 if self.spec.waiter else 32, params=(2,))
        return device.read(out, 3)


def _random_spin(rng, length: int) -> _Spin:
    """A one-warp :class:`_Spin` of *length* instructions with pad ops
    (and so activation sites) drawn at random."""
    ops = ["isetp", "iadd", "gst", "nop"]
    return _Spin(tuple(ops[j] for j in rng.integers(0, 4, size=length - 5)))


def _cold_watchdog(w: Workload, desc, budget: int):
    """The cold replay of *desc* on one-warp workload *w*, run once to
    *budget*: ``slice end -> activations`` at every round boundary (one
    warp: a round is one slice) through a round hook that changes
    nothing, the run's last one included, and the output bits when the
    run finishes within *budget* (else ``None``). A cold replay at any
    smaller budget ``b`` past the golden length raises at the first
    slice end past ``b`` with the count there, unless the run finishes
    by ``b``; the budget is read nowhere else."""
    from repro.common.exceptions import WatchdogTimeoutError
    from repro.gpusim.config import DeviceConfig
    from repro.gpusim.device import Device

    dev = Device(DeviceConfig(global_mem_words=_MEM_WORDS))
    tool = NVBitPERfi(desc)
    counts: dict[int, int] = {}

    def launcher(program, grid, block, params=(), shared_words=None):
        def hook(cta, executed, warps, shared_mem):
            counts[executed] = tool.activations
        return dev.launch(program, grid, block, params=params,
                          shared_words=shared_words, watchdog=budget,
                          instrumentation=tool, round_hook=hook)

    try:
        bits = w.run(dev, launcher)
    except WatchdogTimeoutError:
        bits = None
    return counts, bits


def _spin_sweep(spec: _Spin, budgets, cold_budgets, proofs) -> int:
    """Replay WV on *spec* accelerated at each of *budgets* and assert the
    cold replay's outcome, DUE reason and activations: real cold replays
    at *cold_budgets*, and :func:`_cold_watchdog` (itself checked against
    them) at the rest. *proofs* counts the cycle proofs taken; the return
    value is the fast-forwards of either kind."""
    from repro.campaign.goldens import reference_run
    from repro.swinjector.accel import AccelStats
    from repro.swinjector.campaign import replay_injection

    w = _SpinApp(spec)
    golden, trace = reference_run(w, _MEM_WORDS, traced_key="")
    counts = ends = None
    if not spec.waiter:
        # two slices more: the raising slice of each budget, a budget at
        # a slice end included, ends in a round
        counts, bits = _cold_watchdog(w, _WV, max(budgets) + 512)
        assert bits is None
        ends = sorted(counts)
        # budgets just before, at and just after a slice end
        e = next(e for e in ends if e >= budgets[len(budgets) // 2])
        budgets = [*budgets, e - 1, e, e + 1]
    stats = AccelStats()
    for b in budgets:
        fast = replay_injection(w, _WV, golden.bits, b, _MEM_WORDS, trace,
                                stats)
        assert (fast.outcome, fast.due_reason) == ("due", "watchdog-timeout")
        if b in cold_budgets:
            cold = replay_injection(w, _WV, golden.bits, b, _MEM_WORDS)
            assert fast == cold, (spec, b)
        if counts:
            t = next(e for e in ends if e > b)
            assert fast.activations == counts[t], (spec, b)
    return stats.hang_cycles


class TestLoopCycleFuzz:
    """Seeded one-warp loops whose lengths do not divide 256, replayed at
    watchdog budgets ``b0 + 256·j`` for ``j < L``: the raising slice end
    ``T`` then meets every residue of ``(T - E) mod L``, so the closed
    form's partial period takes every length. Accelerated == cold on each;
    a loop with a ``BAR`` and a two-warp CTA get no proof."""

    LENGTHS = (7, 9, 25, 29, 255, 257, 5, 11, 13, 15, 21, 33)

    @pytest.fixture
    def proofs(self, monkeypatch):
        """``[n]``: the loop-level proofs ended so far."""
        from repro.swinjector import accel

        n = [0]
        end = accel.HangCycle._end

        def spy(self, *args):
            n[0] += 1
            return end(self, *args)
        monkeypatch.setattr(accel.HangCycle, "_end", spy)
        return n

    @staticmethod
    def _budgets(spec: _Spin, rng):
        b0 = 1_024 + 4 * spec.length + int(rng.integers(0, 256))
        budgets = [b0 + 256 * j for j in range(spec.length)]
        cold = {budgets[0], budgets[int(rng.integers(1, spec.length))]}
        return budgets, cold

    def test_random_loops(self, proofs):
        runs = 0
        for seed, length in enumerate(self.LENGTHS):
            rng = np.random.default_rng([0x100C, seed])
            spec = _random_spin(rng, length)
            budgets, cold = self._budgets(spec, rng)
            _spin_sweep(spec, budgets, cold, proofs)
            runs += len(budgets) + 3  # and the three at a slice end
        # every budget of every loop ends in the loop-level proof
        assert proofs[0] == runs

    def test_count_up_hangs_end_at_their_period(self, proofs):
        # count-up loops of 7, 9, 25 and 29 instructions with a register
        # written twice: at every budget, so at every residue of
        # (T - E2) mod L, the affine proof ends the run in closed form
        runs = 0
        for spec, budgets, cold in _climbs(np.random.default_rng(0xC11B),
                                           hang=True):
            runs += len(_climb_sweep(spec, budgets, cold))
        assert proofs[0] == runs

    def test_moving_memory_is_no_cycle(self, proofs):
        # the warp's state repeats every iteration, but the counter in
        # memory ends the loop after 60: an SDC, not a hang
        from repro.campaign.goldens import reference_run
        from repro.swinjector.accel import AccelStats
        from repro.swinjector.campaign import replay_injection

        w = _SpinApp(_Spin(("isetp", "iadd"), leak=60))
        golden, trace = reference_run(w, _MEM_WORDS, traced_key="")
        fast = replay_injection(w, _WV, golden.bits, 4_096, _MEM_WORDS,
                                trace, AccelStats())
        assert fast == replay_injection(w, _WV, golden.bits, 4_096,
                                        _MEM_WORDS)
        assert fast.outcome == "sdc"
        assert proofs[0] == 0

    @pytest.mark.parametrize("spec", [
        _Spin(("iadd", "bar", "isetp", "nop")),
        _Spin(("isetp", "gst", "nop", "iadd"), waiter=True),
    ], ids=["bar", "two-warps"])
    def test_bar_and_two_warps_get_no_proof(self, spec, proofs):
        # a loop with a BAR, and a CTA with two unfinished warps, run to
        # the watchdog as the cold replay does
        if spec.waiter:
            budgets = [4_096]
        else:
            budgets, _ = self._budgets(spec, np.random.default_rng(0x100C))
        assert _spin_sweep(spec, budgets, {budgets[0]}, proofs) == 0
        assert proofs[0] == 0

    def test_two_warp_hang_arms_no_watch(self, monkeypatch, proofs):
        # both warps spin for ever: every round boundary past the first
        # slice asks whether the CTA has one unfinished warp, and the two
        # warps it found live last time answer it without a watch
        from repro.swinjector import accel

        calls = {"hook": 0, "arm": 0}
        hook, arm = accel.HangCycle.__call__, accel.HangCycle._arm

        def spy_hook(self, *args):
            calls["hook"] += 1
            return hook(self, *args)

        def spy_arm(self, *args):
            calls["arm"] += 1
            return arm(self, *args)
        monkeypatch.setattr(accel.HangCycle, "__call__", spy_hook)
        monkeypatch.setattr(accel.HangCycle, "_arm", spy_arm)
        spec = _Spin(("isetp", "gst", "nop", "iadd"), waiter=True)
        assert _spin_sweep(spec, [4_096], {4_096}, proofs) == 0
        assert calls["hook"] > 4 and calls["arm"] == 0


# -- launch memo ---------------------------------------------------------
# A host loop relaunches one kernel while the flag it reads back is wrong:
# once in the golden run, _RELAUNCHES times under the fault, so every
# launch but the first lies past the golden launch list.

_RELAUNCHES = 16
#: the global word the host writes, and the constant slot the kernel
#: reads past the two parameters the host passes
_HOST_WORD, _CONST_SLOT = 60, 2


def _step_kernel():
    """Per CTA ``c``: ``out[4c] = flag`` and ``out[4c + 1] = out[60] + k``,
    where ``flag = n == 8 ? n - 7 : 0`` (1 in the golden run) and ``k`` is
    the constant word at :data:`_CONST_SLOT`."""
    k = KernelBuilder("step", nregs=16)
    n = k.load_param(0)
    out = k.load_param(1)
    word = k.load_param(_CONST_SLOT)
    base = k.s2r_ctaid_x()
    k.shl(base, base, imm=4)
    k.iadd(base, base, out)
    flag = k.reg()
    k.isub(flag, n, imm=7)
    p = k.pred()
    k.isetp(p, n, imm=8, cmp=CmpOp.EQ)
    k.sel(flag, flag, RZ, p)
    k.gst(base, flag)
    v = k.reg()
    k.gld(v, out, offset=4 * _HOST_WORD)
    k.iadd(v, v, word)
    k.gst(base, v, offset=4)
    k.exit()
    return k.build()


class _RelaunchApp(Workload):
    """The host loop over :func:`_step_kernel`. Before launch ``i`` it
    writes ``i % 5`` to the host word (``"host-word"``) or to the constant
    word (``"constant"``), or ``i % 3`` to the host word (``"injector"``);
    ``"grid"`` launches three CTAs. Every launch moves the warp-slot
    counters on. Keeps its output and launch count."""

    meta = WorkloadMeta("relaunch", "int32", "test", "isa.builder")
    scales = {"tiny": {}}

    def __init__(self, case: str):
        self.case = case
        self.bits = None
        self.launches = 0
        super().__init__("tiny")

    def _init_data(self) -> None:
        pass

    def _build_programs(self):
        return {"step": _step_kernel()}

    def run(self, device, launcher):
        out = device.alloc(64)
        grid = 3 if self.case == "grid" else 1
        rows, reps = [], 1
        self.launches = 0
        while self.launches < reps:
            i = np.array([self.launches % (3 if self.case == "injector"
                                           else 5)], dtype=np.uint32)
            if self.case in ("host-word", "injector"):
                device.write(out + 4 * _HOST_WORD, i)
            elif self.case == "constant":
                device.constant_mem.write_words(4 * _CONST_SLOT, i)
            launcher(self.programs()["step"], grid=grid, block=32,
                     params=(8, out))
            self.launches += 1
            rows.append(device.read(out, 4 * grid))
            if device.read(out, 1)[0] != 1:
                reps = _RELAUNCHES
        self.bits = np.concatenate(rows)
        return self.bits


#: IOC turning every integer op into MOV: the flag reads 8, and the
#: injector keeps the last operands it saw (the host word) across launches
_IOC_MOV = ErrorDescriptor(ErrorModel.IOC, replacement_op=Op.MOV)

#: per case: the descriptor, and how many of the 15 launches past the
#: golden one repeat an earlier launch's state. A one-CTA launch moves
#: SM 0's slot counter (12 slots) by one, so the slots repeat every 12
#: launches: launches 13-15 meet the slots of 1-3, but a host or constant
#: word of period 5 differs there, and one of period 3 does not.
_RELAUNCH_CASES = {
    "host-word": (_WV, 0),
    "constant": (_WV, 0),
    "injector": (_IOC_MOV, 3),
    # SM 0's counter moves by 2 a launch and SM 1's by 1: the state
    # repeats every 12 launches; the fault hits slots 0 and 1 only
    "grid": (ErrorDescriptor(ErrorModel.WV, warp_slots=frozenset({0, 1})),
             3),
}


@pytest.fixture
def memo_calls(monkeypatch):
    """``{"launch": n, "hit": n}``: launches handed to the launch memo,
    and the ones it served."""
    from repro.swinjector import accel

    calls = {"launch": 0, "hit": 0}
    launch, replay = accel._LaunchMemo.launch, accel._LaunchMemo._replay

    def spy_launch(self, *args):
        calls["launch"] += 1
        return launch(self, *args)

    def spy_replay(self, *args):
        calls["hit"] += 1
        return replay(self, *args)
    monkeypatch.setattr(accel._LaunchMemo, "launch", spy_launch)
    monkeypatch.setattr(accel._LaunchMemo, "_replay", spy_replay)
    return calls


class TestLaunchMemo:
    """A launch past the golden launch list that repeats an earlier
    launch's state is served from the run's launch memo; the run ends
    exactly as the cold replay's (docs/PERFORMANCE.md, "Launch memo")."""

    @pytest.mark.parametrize("model, index", [
        ("IMD", 0), ("IMD", 1), ("IMD", 4), ("IMS", 7)])
    def test_quicksort_runaways(self, model, index, memo_calls):
        # the host partition loop runs to its step budget: a watchdog DUE
        # after ~256 launches, of which only a few states are distinct
        from repro.campaign.goldens import cached_workload, reference_run
        from repro.swinjector.accel import AccelStats
        from repro.swinjector.campaign import replay_injection

        mem = 1 << 20
        w = cached_workload("quicksort", "tiny", HANG_SEED)
        golden, trace = reference_run(w, mem, traced_key="")
        watchdog = 10 * golden.dynamic_instructions + 10_000
        desc = make_descriptor(ErrorModel(model), HANG_SEED, index)
        fast = replay_injection(w, desc, golden.bits, watchdog, mem, trace,
                                AccelStats())
        cold = replay_injection(w, desc, golden.bits, watchdog, mem)
        assert fast == cold
        assert cold.due_reason == "watchdog-timeout"
        assert memo_calls["hit"] > memo_calls["launch"] // 2 > 0

    @pytest.mark.parametrize("case", sorted(_RELAUNCH_CASES))
    def test_builder_host_loops(self, case, memo_calls):
        from repro.campaign.goldens import reference_run
        from repro.swinjector.accel import AccelStats
        from repro.swinjector.campaign import replay_injection

        desc, hits = _RELAUNCH_CASES[case]
        w = _RelaunchApp(case)
        golden, trace = reference_run(w, _MEM_WORDS, traced_key="")
        assert len(trace.launches) == 1
        fast = replay_injection(w, desc, golden.bits, 4_096, _MEM_WORDS,
                                trace, AccelStats())
        fast_bits = w.bits
        assert w.launches == _RELAUNCHES
        # the golden launch is never looked up
        assert memo_calls == {"launch": _RELAUNCHES - 1, "hit": hits}
        cold = replay_injection(w, desc, golden.bits, 4_096, _MEM_WORDS)
        assert fast == cold and fast.outcome == "sdc"
        assert cold.activations > 0
        assert np.array_equal(fast_bits, w.bits)

    def test_changes_rebuild_the_memory(self):
        # random sparse memories before and after: the recorded changes
        # turn the one into the other, and only changed words are listed
        from repro.swinjector.accel import _changes, _Words

        rng = np.random.default_rng(0x3E30)
        for _ in range(200):
            n = int(rng.integers(1, 64))
            before = np.where(rng.random(n) < 0.3,
                              rng.integers(1, 4, n), 0).astype(np.uint32)
            after = np.where(rng.random(n) < 0.3, before,
                             np.where(rng.random(n) < 0.5,
                                      rng.integers(0, 4, n), 0)
                             ).astype(np.uint32)
            mem = SimpleNamespace(data=before.copy(), extent=n)
            was = _Words.of(mem)
            mem.data = after.copy()
            words, values = _changes(mem, was)
            rebuilt = before.copy()
            rebuilt[words] = values
            assert np.array_equal(rebuilt, after)
            assert sorted(words) == list(np.flatnonzero(before != after))

    @pytest.mark.parametrize("change", [
        None, "host-word", "constant", "slots", "injector", "params"])
    def test_hit_needs_the_same_state(self, change):
        # one launch recorded, the state before it restored, one thing
        # changed: only an unchanged state is served, and the served
        # launch leaves what the simulated one left
        import pickle

        from repro.gpusim.config import DeviceConfig
        from repro.gpusim.device import Device
        from repro.gpusim.snapshot import restore_device, snapshot_device
        from repro.swinjector.accel import (AccelStats, _LaunchMemo,
                                            injector_state)

        dev = Device(DeviceConfig(global_mem_words=_MEM_WORDS))
        tool = NVBitPERfi(_IOC_MOV)
        program = _step_kernel()
        out = dev.alloc(64)
        dev.write(out + 4 * _HOST_WORD, np.array([5], dtype=np.uint32))
        memo = _LaunchMemo(dev, tool, AccelStats(), [])
        runs = []

        def launch(n=8):
            def run():
                runs.append(n)
                return dev.launch(program, 1, 32, params=(n, out),
                                  watchdog=4_096, instrumentation=tool)
            return memo.launch(run, program, 1, 32, (n, out), None)

        def state():
            snap = snapshot_device(dev)
            return (snap.global_data.tobytes(), snap.global_brk,
                    snap.constant_data.tobytes(), snap.slot_counters,
                    injector_state(tool.injector), tool.activations)

        before = snapshot_device(dev)
        inj = dict(vars(tool.injector))
        first = launch()
        after = state()
        restore_device(dev, before)
        vars(tool.injector).clear()
        vars(tool.injector).update(inj)
        tool.activations = 0
        n = 8
        if change == "host-word":
            dev.write(out + 4 * _HOST_WORD, np.array([6], dtype=np.uint32))
        elif change == "constant":
            dev.constant_mem.write_words(4 * _CONST_SLOT,
                                         np.array([1], dtype=np.uint32))
        elif change == "slots":
            dev._slot_counters[(0, 0)] = 1
        elif change == "injector":
            tool.injector._srcs = pickle.loads(pickle.dumps(
                [np.zeros(32, dtype=np.uint32)]))
        elif change == "params":
            n = 8.0  # the same number, other constant-memory bits
        second = launch(n)
        if change is None:
            assert runs == [8]
            assert second == first and second is not first
            assert state() == after
        else:
            assert len(runs) == 2


class TestGateEquivalence:
    @pytest.mark.parametrize("unit_name", ["decoder", "fetch", "wsc"])
    def test_records_bit_identical(self, unit_name, gate_stimuli):
        unit = build_unit(unit_name)
        faults = sample_faults(full_fault_list(unit.netlist), 256, seed=3)
        golden = _golden_run(unit, gate_stimuli)
        stats: dict = {}
        accel = _run_batch(unit, faults, gate_stimuli, golden,
                           accel=True, stats=stats)
        legacy = _run_batch(unit, faults, gate_stimuli, golden,
                            accel=False)
        assert [record_to_json(r) for r in accel] == \
               [record_to_json(r) for r in legacy]
        assert stats["enabled"]

    def test_duplicate_stimuli_multiplicity(self, gate_stimuli):
        # duplicated stimuli replay once; per-stimulus model counts must
        # still accumulate with full multiplicity
        unit = build_unit("decoder")
        faults = sample_faults(full_fault_list(unit.netlist), 128, seed=5)
        stims = list(gate_stimuli[:8]) * 3
        golden = _golden_run(unit, stims)
        stats: dict = {}
        accel = _run_batch(unit, faults, stims, golden, accel=True,
                           stats=stats)
        legacy = _run_batch(unit, faults, stims, golden, accel=False)
        assert [record_to_json(r) for r in accel] == \
               [record_to_json(r) for r in legacy]
        assert stats["stimuli_deduped"] == 16


# ---------------------------------------------------------------------
# gate level: packed golden run and per-stimulus classification against
# test-local references (today's per-stimulus golden loop and a per-lane
# classify_output_diff replay)
# ---------------------------------------------------------------------

GATE_UNITS = ("wsc", "fetch", "decoder")


def _lane_ints(arr: np.ndarray, n: int) -> list[int]:
    """Per-lane bus values of a (width, W) word array, LSB-first."""
    lanes = np.arange(n)
    bits = (arr[:, lanes // 64] >> (lanes % 64).astype(np.uint64)) \
        & np.uint64(1)
    return [sum(int(b) << i for i, b in enumerate(col))
            for col in bits.T.tolist()]


def _golden_reference(unit, stimuli) -> list[dict]:
    """One 1-word simulation per stimulus (every lane the same stimulus)."""
    sim = LogicSim(unit.netlist, num_words=1)
    golden = []
    for stim in stimuli:
        sim.reset()
        ever1 = np.zeros(unit.netlist.num_nets, dtype=bool)
        ever0 = np.zeros(unit.netlist.num_nets, dtype=bool)
        cycles = []
        for inp in unit.transaction(stim):
            outs = sim.cycle(inp)
            nz = sim.vals[:, 0] != 0
            ever1 |= nz
            ever0 |= ~nz
            cycles.append({name: _lane_ints(arr, 1)[0]
                           for name, arr in outs.items()})
        golden.append({
            "cycles": cycles, "ever1": ever1, "ever0": ever0,
            "live": {name: any(c[name] for c in cycles)
                     for name in unit.liveness_outputs}})
    return golden


def _records_reference(unit, faults, stimuli) -> list[dict]:
    """Dense replay classifying every differing lane on its own."""
    from repro.errormodels.classify import classify_output_diff
    from repro.faultinjection.campaign import FaultRecord
    from repro.gatelevel.sim import FaultBatch

    golden = _golden_reference(unit, stimuli)
    n = len(faults)
    records = [FaultRecord(f) for f in faults]
    for r in records:
        key = "ever1" if r.fault.stuck_at == 0 else "ever0"
        r.activated = any(bool(g[key][r.fault.net]) for g in golden)
    w = (n + 63) // 64
    sim = LogicSim(unit.netlist, num_words=w)
    for stim, g in zip(stimuli, golden):
        sim.reset()
        sim.set_faults(FaultBatch(list(faults), num_words=w))
        live = [False] * n
        models: list[set] = [set() for _ in range(n)]
        for cyc, inp in enumerate(unit.transaction(stim)):
            for name, arr in sim.cycle(inp).items():
                gval = g["cycles"][cyc][name]
                for lane, v in enumerate(_lane_ints(arr, n)):
                    if v != gval:
                        records[lane].propagated = True
                        models[lane] |= classify_output_diff(
                            unit.output_semantics[name], stim, gval, v)
                    if name in unit.liveness_outputs and v:
                        live[lane] = True
        if any(g["live"].values()):
            for lane in range(n):
                if not live[lane]:
                    records[lane].hang = True
        for lane, ms in enumerate(models):
            for m in ms:
                records[lane].models[m] += 1
    return [record_to_json(r) for r in records]


def _random_stimuli(n: int, seed: int) -> list:
    """Stimuli off the profiled path: random words (most opcodes are
    illegal and do not decode), immediates, masks and ids."""
    from repro.gatelevel.units.base import Stimulus

    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        word = int(rng.integers(0, 2 ** 63)) * 2 + int(rng.integers(0, 2))
        out.append(Stimulus(
            word=word, imm=int(rng.integers(0, 2 ** 32)),
            warp_id=int(rng.integers(0, 16)),
            thread_mask=int(rng.integers(0, 2 ** 32)),
            cta_id=int(rng.integers(0, 16)), pc=int(rng.integers(0, 256)),
            opcode=word & 0xFF))
    return out


def _assert_golden_matches_reference(unit, stimuli):
    from repro.gatelevel.sim import ALL_ONES

    got = _golden_run(unit, stimuli)
    want = _golden_reference(unit, stimuli)
    assert len(got.per_stimulus) == len(want)
    for j, (g, w) in enumerate(zip(got.per_stimulus, want)):
        assert g["cycles"] == w["cycles"], j
        assert np.array_equal(g["ever1"], w["ever1"]), j
        assert np.array_equal(g["ever0"], w["ever0"]), j
        assert g["live"] == w["live"], j
        # the golden bit-plane replays compare against, bit by bit
        plane = got.golden_bits(j)
        for c, vals in enumerate(w["cycles"]):
            bits = [ALL_ONES if (vals[name] >> i) & 1 else 0
                    for name, nets in unit.netlist.outputs.items()
                    for i in range(len(nets))]
            assert plane[c].tolist() == [int(b) for b in bits], (j, c)
    assert np.array_equal(got.ever1, np.logical_or.reduce(
        [w["ever1"] for w in want]))
    assert np.array_equal(got.ever0, np.logical_or.reduce(
        [w["ever0"] for w in want]))


@pytest.fixture(scope="module")
def profiled_48():
    """The 48 profiled stimuli of a default CLI gate campaign."""
    from repro.profiling import profile_workloads
    from repro.profiling.profiler import PROFILING_NAMES
    from repro.workloads import get_workload

    wls = [get_workload(n, scale="tiny") for n in PROFILING_NAMES[:6]]
    stims = profile_workloads(wls, max_stimuli_per_workload=16).stimuli
    idx = np.linspace(0, len(stims) - 1, 48).astype(int)
    return [stims[i] for i in idx]


class TestPackedGolden:
    @pytest.mark.parametrize("unit_name", GATE_UNITS)
    def test_48_profiled_stimuli(self, unit_name, profiled_48):
        _assert_golden_matches_reference(build_unit(unit_name), profiled_48)

    @pytest.mark.parametrize("unit_name", GATE_UNITS)
    def test_130_stimuli_span_three_words(self, unit_name, profiled_48):
        stims = profiled_48 + _random_stimuli(82, seed=130)
        unit = build_unit(unit_name)
        assert _golden_run(unit, stims).planes.shape[2] == 3
        _assert_golden_matches_reference(unit, stims)

    @pytest.mark.parametrize("unit_name", GATE_UNITS)
    def test_duplicated_stimuli(self, unit_name, profiled_48):
        stims = profiled_48[:8] * 3 + profiled_48[3:5]
        _assert_golden_matches_reference(build_unit(unit_name), stims)

    def test_mixed_transaction_lengths_refused(self):
        from dataclasses import replace

        from repro.common.exceptions import ConfigError

        unit = build_unit("decoder")
        short = replace(unit, transaction=lambda s: unit.transaction(s)[
            : 2 if s.warp_id % 2 else 3])
        stims = [replace(s, warp_id=i)
                 for i, s in enumerate(_random_stimuli(2, seed=4))]
        with pytest.raises(ConfigError, match="one length"):
            _golden_run(short, stims)

    def test_no_stimuli(self):
        unit = build_unit("fetch")
        got = _golden_run(unit, [])
        assert got.per_stimulus == []
        assert not got.ever1.any() and not got.ever0.any()


class TestReplayReference:
    @pytest.mark.parametrize("unit_name", GATE_UNITS)
    def test_records_match_per_lane_reference(self, unit_name, gate_stimuli):
        unit = build_unit(unit_name)
        faults = sample_faults(full_fault_list(unit.netlist), 160, seed=13)
        stims = list(gate_stimuli[:6]) + [gate_stimuli[0]]
        want = _records_reference(unit, faults, stims)
        golden = _golden_run(unit, stims)
        for accel in (True, False):
            got = _run_batch(unit, faults, stims, golden, accel=accel)
            assert [record_to_json(r) for r in got] == want, accel
        # the reference must see every outcome kind this sample can reach
        assert any(r["propagated"] for r in want)

    def test_random_stimuli(self):
        from hypothesis import HealthCheck, given, settings
        from hypothesis import strategies as st

        from repro.gatelevel.units.base import Stimulus
        from repro.isa.opcodes import is_valid_opcode

        illegal = [op for op in range(256) if not is_valid_opcode(op)]
        words = st.one_of(
            st.integers(0, 2 ** 64 - 1),
            st.tuples(st.integers(0, 2 ** 56 - 1), st.sampled_from(illegal))
            .map(lambda t: (t[0] << 8) | t[1]))
        stimulus = st.builds(
            lambda word, imm, warp, mask, cta, pc: Stimulus(
                word=word, imm=imm, warp_id=warp, thread_mask=mask,
                cta_id=cta, pc=pc, opcode=word & 0xFF),
            words, st.integers(0, 2 ** 32 - 1), st.integers(0, 15),
            st.integers(0, 2 ** 32 - 1), st.integers(0, 15),
            st.integers(0, 255))
        units = {u: build_unit(u) for u in GATE_UNITS}
        faults = {u: sample_faults(full_fault_list(unit.netlist), 64, seed=2)
                  for u, unit in units.items()}

        @settings(max_examples=6, deadline=None, derandomize=True,
                  suppress_health_check=[HealthCheck.too_slow])
        @given(st.lists(stimulus, min_size=1, max_size=3))
        def check(stims):
            stims = stims + stims[:1]          # one duplicate
            for u, unit in units.items():
                _assert_golden_matches_reference(unit, stims)
                want = _records_reference(unit, faults[u], stims)
                golden = _golden_run(unit, stims)
                for accel in (True, False):
                    got = _run_batch(unit, faults[u], stims, golden,
                                     accel=accel)
                    assert [record_to_json(r) for r in got] == want

        check()


@pytest.fixture(scope="module")
def gate_stimuli():
    from repro.profiling import profile_workloads
    from repro.workloads import get_workload

    wls = [get_workload(n, scale="tiny") for n in ("vectoradd", "gemm")]
    prof = profile_workloads(wls, max_stimuli_per_workload=8)
    return prof.stimuli[:12]


class TestVectorizedKernels:
    def test_levelize_matches_sequential_reference(self):
        from repro.gatelevel.netlist import GateType

        for unit_name in ("decoder", "fetch", "wsc"):
            nl = build_unit(unit_name).netlist
            nl.levels = None
            got = nl.levelize()
            # naive per-net recurrence
            want = np.zeros(nl.num_nets, dtype=np.int32)
            for i in range(nl.num_nets):
                if nl.gate_type[i] in (GateType.INPUT, GateType.CONST0,
                                       GateType.CONST1, GateType.DFF):
                    continue
                l0 = want[nl.fanin0[i]]
                l1 = want[nl.fanin1[i]] if nl.fanin1[i] >= 0 else 0
                want[i] = max(l0, l1) + 1
            assert np.array_equal(got, want), unit_name

    def test_levelize_forward_fanin_error_messages(self):
        from repro.common.exceptions import NetlistError
        from repro.gatelevel.netlist import GateType, Netlist

        def nl(f0, f1):
            n = len(f0)
            return Netlist(
                name="loop",
                gate_type=np.array([GateType.INPUT] + [GateType.BUF] * (n - 1),
                                   dtype=np.int8),
                fanin0=np.array(f0, dtype=np.int32),
                fanin1=np.array(f1, dtype=np.int32),
                dff_init=np.zeros(n, dtype=np.uint8),
            )

        with pytest.raises(NetlistError,
                           match=r"gate 1 has forward fanin 2 \(cycle\?\)"):
            nl([-1, 2, 0], [-1, -1, -1]).levelize()
        with pytest.raises(NetlistError,
                           match=r"gate 1 has forward fanin 1$"):
            nl([-1, 0, 0], [-1, 1, -1]).levelize()
        # first offender is the lowest gate index, fanin0 before fanin1
        with pytest.raises(NetlistError, match=r"gate 1 .* \(cycle\?\)"):
            nl([-1, 2, 2], [-1, 1, -1]).levelize()

    def test_broadcast_matches_reference(self):
        from repro.gatelevel.sim import ALL_ONES

        sim = LogicSim(build_unit("decoder").netlist, num_words=3)
        rng = np.random.default_rng(9)
        for width in (1, 7, 64):
            value = int(rng.integers(0, 2 ** min(width, 63)))
            got = sim.broadcast(value, width)
            want = np.zeros((width, 3), dtype=np.uint64)
            for i in range(width):
                if (value >> i) & 1:
                    want[i, :] = ALL_ONES
            assert np.array_equal(got, want)

    def test_fault_batch_compile_matches_reference(self):
        from repro.gatelevel.sim import FaultBatch

        nl = build_unit("wsc").netlist
        levels = nl.levelize()
        faults = sample_faults(full_fault_list(nl), 300, seed=4)
        # duplicate nets in one word and across words
        faults = faults + faults[:40] + [f for f in faults[:20]]
        for words in (5, 6):
            batch = FaultBatch(faults[:64 * words], num_words=words)
            want: dict = {}
            for i, f in enumerate(batch.faults):
                row = want.setdefault(int(levels[f.net]), {}).setdefault(
                    (f.net, i // 64), [0, 0])
                row[0] |= 1 << (i % 64)
                row[1] |= f.stuck_at << (i % 64)
            got = {lvl: {(int(n), int(w)): [int(c), int(s)]
                         for n, w, c, s in zip(*rows)}
                   for lvl, rows in batch.compile(levels).items()}
            assert got == want
        assert FaultBatch([], num_words=1).compile(levels) == {}

    def test_pack_patterns_matches_reference(self):
        sim = LogicSim(build_unit("decoder").netlist, num_words=3)
        rng = np.random.default_rng(10)
        for n, width in ((1, 8), (64, 16), (130, 24), (192, 5)):
            values = rng.integers(0, 2 ** width, size=n).astype(np.uint64)
            got = sim.pack_patterns(values, width)
            want = np.zeros((width, 3), dtype=np.uint64)
            lanes = np.arange(n)
            words, bits = lanes // 64, lanes % 64
            for i in range(width):
                bitvals = ((values >> np.uint64(i)) & np.uint64(1)) \
                    << bits.astype(np.uint64)
                np.bitwise_or.at(want[i], words, bitvals)
            assert np.array_equal(got, want), (n, width)
        # round-trip through the unpacker
        vals = rng.integers(0, 2 ** 12, size=100).astype(np.uint64)
        packed = sim.pack_patterns(vals, 12)
        assert np.array_equal(sim.lane_values(packed, 100), vals)


class TestCliPlumbing:
    def test_campaign_cli_no_accel_round_trip(self, tmp_path):
        from repro.campaign.__main__ import main
        from repro.campaign.store import CampaignStore

        d = tmp_path / "c"
        rc = main(["run", "--scale", "tiny", "--apps", "vectoradd",
                   "--models", "WV", "--injections", "2", "--serial",
                   "--no-accel", "--dir", str(d)])
        assert rc == 0
        store = CampaignStore(d)
        assert store.load_manifest()["config"]["accel"] is False
        for r in store.load_results().values():
            assert r.value["accel"] == {"enabled": False}

    def test_campaign_cli_accel_default(self, tmp_path):
        from repro.campaign.__main__ import main
        from repro.campaign.store import CampaignStore

        d = tmp_path / "c"
        rc = main(["run", "--scale", "tiny", "--apps", "vectoradd",
                   "--models", "WV", "--injections", "2", "--serial",
                   "--dir", str(d)])
        assert rc == 0
        store = CampaignStore(d)
        assert store.load_manifest()["config"]["accel"] is True
        for r in store.load_results().values():
            assert r.value["accel"]["enabled"] is True

    @staticmethod
    def _stored_with_and_without_accel(kind, argv, tmp_path):
        from repro.campaign.__main__ import main
        from repro.campaign.plans import get_spec
        from repro.campaign.store import CampaignStore

        results = []
        for name, flags in (("accel", []), ("no-accel", ["--no-accel"])):
            d = tmp_path / name
            assert main(["run", "--kind", kind, *argv, *flags, "--serial",
                         "--dir", str(d)]) == 0
            store = CampaignStore(d)
            results.append(get_spec(kind).aggregate(
                store.load_manifest()["config"], store.load_results()))
        return results

    def test_swinjector_cli_no_accel_saves_equal_results(self, tmp_path):
        a, b = self._stored_with_and_without_accel(
            "epr", ["--apps", "vectoradd", "--models", "WV,IAT",
                    "--injections", "3"], tmp_path)
        assert len(a.outcomes) == 6
        # the configs differ in ``accel`` alone; every outcome is equal
        assert a.outcomes == b.outcomes

    def test_faultinjection_cli_no_accel_saves_equal_results(self, tmp_path):
        a, b = self._stored_with_and_without_accel(
            "gate", ["--unit", "decoder", "--max-faults", "96",
                     "--max-stimuli", "6"], tmp_path)
        assert a.total_faults == 96
        assert a == b

    def test_descriptor_behavior_key_covers_all_models(self):
        from repro.errormodels.models import SW_INJECTABLE
        from repro.swinjector.accel import behavior_key

        for m in SW_INJECTABLE:
            desc = make_descriptor(m, 1, 0)
            key = behavior_key(desc)
            assert key is not None and key[0] == m.value


class TestGateAccelStats:
    def test_dropped_pairs_counted(self, gate_stimuli):
        unit = build_unit("decoder")
        faults = sample_faults(full_fault_list(unit.netlist), 128, seed=3)
        golden = _golden_run(unit, gate_stimuli)
        stats: dict = {}
        _run_batch(unit, faults, gate_stimuli, golden, accel=True,
                   stats=stats)
        # tiny stimuli toggle only part of the decoder: some (fault,
        # stimulus) pairs must be provably inert
        assert stats["pairs_dropped"] > 0
        assert stats["replays"] <= len(gate_stimuli)


class TestPairPackedReplay:
    """One replay pass holds the ``(fault, stimulus)`` pairs of several
    stimuli; its records must equal the one-stimulus-at-a-time reference
    under accel and ``--no-accel``."""

    @staticmethod
    def _check(unit, faults, stims, want, stats=None):
        golden = _golden_run(unit, stims)
        for accel in (True, False):
            got = _run_batch(unit, faults, stims, golden, accel=accel,
                             stats=stats if accel else None)
            assert [record_to_json(r) for r in got] == want, accel

    @staticmethod
    def _spy_batches(monkeypatch) -> list:
        """Record every installed fault batch."""
        batches = []
        set_faults = LogicSim.set_faults

        def spy(sim, batch):
            batches.append(batch)
            set_faults(sim, batch)

        monkeypatch.setattr(LogicSim, "set_faults", spy)
        return batches

    @pytest.mark.parametrize("unit_name", GATE_UNITS)
    def test_passes_split_at_the_budget(self, unit_name, gate_stimuli,
                                        monkeypatch):
        from repro.faultinjection import campaign

        unit = build_unit(unit_name)
        faults = sample_faults(full_fault_list(unit.netlist), 96, seed=17)
        stims = list(gate_stimuli[:5])
        want = _records_reference(unit, faults, stims)
        wide = campaign._pass_words(unit.netlist)
        monkeypatch.setattr(campaign, "PASS_BYTES",
                            3 * campaign.PASS_BYTES // wide)
        w = campaign._pass_words(unit.netlist)
        assert 1 < w < wide
        batches = self._spy_batches(monkeypatch)
        self._check(unit, faults, stims, want)
        # --no-accel: 96 x 5 pairs are 7.5 words, three passes of three
        sizes = [(len(b.faults), b.num_words) for b in batches]
        assert sizes[-3:] == [(192, 3), (192, 3), (96, 3)], sizes
        accel_sizes = sizes[:-3]
        assert len(accel_sizes) > 1
        assert all(k == 64 * words for k, words in accel_sizes[:-1])
        assert accel_sizes[-1][0] < 64 * accel_sizes[-1][1]

    @pytest.mark.parametrize("unit_name", GATE_UNITS)
    def test_duplicate_stimuli(self, unit_name, gate_stimuli):
        unit = build_unit(unit_name)
        faults = sample_faults(full_fault_list(unit.netlist), 80, seed=19)
        stims = list(gate_stimuli[:4]) * 2 + [gate_stimuli[1]]
        stats: dict = {}
        self._check(unit, faults, stims,
                    _records_reference(unit, faults, stims), stats)
        assert stats["stimuli_deduped"] == 5

    @pytest.mark.parametrize("unit_name", GATE_UNITS)
    def test_same_net_at_both_values_in_one_word(self, unit_name,
                                                 gate_stimuli, monkeypatch):
        from repro.gatelevel.faults import StuckAtFault

        unit = build_unit(unit_name)
        stims = list(gate_stimuli[:4])
        golden = _golden_run(unit, stims)
        # nets that toggle, so both stuck-at values make pairs
        nets = np.flatnonzero(golden.ever1 & golden.ever0)
        nets = np.random.default_rng(23).choice(nets, 48, replace=False)
        faults = [StuckAtFault(int(n), v) for n in nets for v in (0, 1)]
        # the reference never puts both values of a net in one word
        sa0 = _records_reference(unit, faults[0::2], stims)
        sa1 = _records_reference(unit, faults[1::2], stims)
        want = [r for pair in zip(sa0, sa1) for r in pair]
        batches = self._spy_batches(monkeypatch)
        self._check(unit, faults, stims, want)
        both = [(f.net, i // 64) for b in batches
                for i, f in enumerate(b.faults) if f.stuck_at == 1]
        assert set(both) & {(f.net, i // 64) for b in batches
                            for i, f in enumerate(b.faults)
                            if f.stuck_at == 0}

    @pytest.mark.parametrize("unit_name", GATE_UNITS)
    def test_faults_that_never_activate(self, unit_name, gate_stimuli):
        from repro.gatelevel.faults import StuckAtFault

        unit = build_unit(unit_name)
        stims = list(gate_stimuli[:4])
        golden = _golden_run(unit, stims)
        faults = ([StuckAtFault(int(n), 0)
                   for n in np.flatnonzero(~golden.ever1)[:40]]
                  + [StuckAtFault(int(n), 1)
                     for n in np.flatnonzero(~golden.ever0)[:40]])
        assert len(faults) >= 40
        stats: dict = {}
        want = _records_reference(unit, faults, stims)
        self._check(unit, faults, stims, want, stats)
        assert stats["pairs_dropped"] == len(faults) * len(stims)
        assert stats["replays"] == 0
        assert not any(r["activated"] or r["propagated"] or r["hang"]
                       for r in want)


class TestReplayMemory:
    """The pass-width rule bounds what one replay pass holds, so a wider
    pass that would raise the benchmark's peak RSS fails here first."""

    @pytest.mark.parametrize("unit_name", GATE_UNITS)
    def test_pass_state_within_budget(self, unit_name):
        from repro.faultinjection.campaign import PASS_BYTES, _pass_words

        nl = build_unit(unit_name).netlist
        w = _pass_words(nl)
        sim = LogicSim(nl, num_words=w)
        assert sim.vals.nbytes + sim.state.nbytes <= PASS_BYTES
        # no narrower than the 8-word batch cap of a default campaign
        assert w >= 8

    def test_wsc_batch_peak(self, profiled_48):
        import tracemalloc

        unit = build_unit("wsc")
        faults = sample_faults(full_fault_list(unit.netlist), 512,
                               seed=0x5C23)
        golden = _golden_run(unit, profiled_48)
        want = _run_batch(unit, faults, profiled_48, golden)
        tracemalloc.start()
        try:
            got = _run_batch(unit, faults, profiled_48, golden)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [record_to_json(r) for r in got] == \
            [record_to_json(r) for r in want]
        # one 16-word pass holds ~1.6 MiB in all; 32-word passes with
        # full-width classification temporaries took 3.4 MiB
        assert peak < 2 << 20, peak
