"""Acceleration must be invisible in the results.

Every shortcut of the campaign acceleration layer — activation-site
planning, checkpoint resume, early exit, descriptor collapsing, dynamic
fault dropping, stimuli dedup, and the vectorized gate-level kernels —
must produce outcomes bit-identical to the unaccelerated path.  These
tests run both paths and diff the results exactly
(docs/PERFORMANCE.md holds the soundness arguments).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

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
from repro.isa import PT, CmpOp, KernelBuilder, RZ
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

    # IAL enable forces the victim lanes of predicated-off instructions; on
    # a kernel whose every INT/FP32 instruction is @PT that is the
    # identity (rule R2), so the accelerated replay classifies it without
    # simulating. A predicated target is not provably inert and is replayed.
    @pytest.mark.parametrize("predicated, skipped", [(False, 1), (True, 0)])
    def test_ial_enable_inert_only_on_unpredicated_targets(self, predicated,
                                                           skipped):
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
        assert stats.skipped == skipped


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

    def test_digest_table_cap_falls_back_to_watchdog(self, monkeypatch):
        # the in-place loop repeats every 3 rounds; a table that starts
        # over every 2 rounds never sees the repeat
        from repro.swinjector import accel

        monkeypatch.setattr(accel, "_MAX_ROUNDS", 2)
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

#: byte addresses of the two allocations :class:`_CountApp` makes, and
#: of a word past its allocation break
_OUT, _DATA = 0, 128
_DATA_WORDS = 4096
_WORD = _DATA + 4 * _DATA_WORDS + 256


@dataclass(frozen=True)
class _Count:
    """``do { body; a += stride; i += step } while (i <cmp> n)``, then
    ``out[0] = acc`` (and ``out[1] = i`` with *store_i*). The body is
    ``acc += data[a]`` ("load"); that plus ``t = word; word = i`` on a
    fixed word past the allocation break ("word"); that plus an FADD
    reading ``i`` whose result is dead at the loop head ("fp"); or
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

    def kernel(self):
        k = KernelBuilder("count", nregs=16)
        n = k.load_param(0)
        i = k.mov32i_new(self.start)
        a = k.mov32i_new(_DATA + self.offset)
        acc = k.mov32i_new(0)
        v, t = k.reg(), k.reg()
        p = k.pred()
        head = k.label()
        if self.shape == "store":
            k.gst(a, RZ)
        else:
            k.gld(v, a)
            k.iadd(acc, acc, v)
        if self.shape == "word":
            x = k.mov32i_new(_WORD)
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
        # i and the word it is stored to both move; the state a jump
        # writes must be the cold replay's state at that launch count
        from repro.common.exceptions import WatchdogTimeoutError
        from repro.gpusim.config import DeviceConfig
        from repro.gpusim.device import Device
        from repro.swinjector.accel import AccelStats, HangCycle

        spec = _Count(0, 1, CmpOp.LT, 8, 1 << 20, shape="word")
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
            with pytest.raises(WatchdogTimeoutError):
                _CountApp(spec).run(dev, launcher)

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

        run(fast)
        run(cold)
        assert landed and landed[0][0] > 10_000
        (at, regs, mem, acts), = seen
        assert np.array_equal(regs, landed[0][1])
        assert np.array_equal(mem, landed[0][2])
        assert mem[_WORD // 4] != 0 and acts == landed[0][3]

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
        return affine_periods(steps, d, mem_deltas or {}, spaces, k_max)

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
    """``HangCycle`` driven by hand at round boundaries ``P`` apart, with
    R0 of a one-warp CTA set before each call."""

    P = 256

    def _hook(self):
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
        hook = HangCycle(dev, self.tool, 100_000, AccelStats())
        shared = SharedMemory(1)

        def at(n: int, r0: int):
            self.warp.regs[:, 0] = r0
            return hook(0, 1_000 + n * self.P, [self.warp], shared)
        return at

    def test_records_only_a_move_that_repeats(self):
        # R0: 0 (first sighting), 10 (control-state hit), 15 (moved 5),
        # then 22: moved 12, not 2 x 5 -- nothing is recorded
        at = self._hook()
        assert [at(n, r0) for n, r0 in enumerate((0, 10, 15, 22))] == \
            [None] * 4
        assert self.tool.recorder is None

    def test_jump_writes_the_moved_registers(self):
        # 0, 10, 15, 20: the move repeats, the next period is recorded
        # (here: no instruction), and at 25 the hook jumps k periods
        at = self._hook()
        assert [at(n, r0) for n, r0 in enumerate((0, 10, 15, 20))] == \
            [None] * 4
        assert self.tool.recorder is not None
        skip = at(4, 25)
        k = (100_000 - (1_000 + 4 * self.P)) // self.P
        assert skip == k * self.P
        assert (self.warp.regs[:, 0] == 25 + 5 * k).all()
        assert self.tool.recorder is None


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
