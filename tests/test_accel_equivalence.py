"""Acceleration must be invisible in the results.

Every shortcut of the campaign acceleration layer — activation-site
planning, checkpoint resume, early exit, descriptor collapsing, dynamic
fault dropping, stimuli dedup, and the vectorized gate-level kernels —
must produce outcomes bit-identical to the unaccelerated path.  These
tests run both paths and diff the results exactly
(docs/PERFORMANCE.md holds the soundness arguments).
"""

from __future__ import annotations

import numpy as np
import pytest

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
from repro.swinjector.campaign import _run_epr_unit
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
        from repro.campaign.goldens import golden_run, golden_trace
        from repro.swinjector.accel import AccelStats
        from repro.swinjector.campaign import replay_injection

        w = _LaneApp(predicated)
        golden = golden_run(w, _MEM_WORDS)
        trace = golden_trace(w, _MEM_WORDS, golden)
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
        # a corrupted loop bound (8 ^ 1<<16) counts up past the budget
        ("inplace", ErrorDescriptor(ErrorModel.IMS, bit_err_mask=1 << 16), 0),
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
    from repro.campaign.goldens import golden_run, golden_trace
    from repro.swinjector.accel import AccelStats
    from repro.swinjector.campaign import replay_injection

    w = _HangApp(shape)
    golden = golden_run(w, _MEM_WORDS)
    trace = golden_trace(w, _MEM_WORDS, golden)
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
    def _saved_with_and_without_accel(main, argv, tmp_path):
        from repro.faultinjection.results import load_result

        fast, cold = tmp_path / "accel.json", tmp_path / "no-accel.json"
        assert main(argv + ["--save", str(fast)]) == 0
        assert main(argv + ["--no-accel", "--save", str(cold)]) == 0
        return load_result(fast), load_result(cold)

    def test_swinjector_cli_no_accel_saves_equal_results(self, tmp_path):
        from repro.swinjector.__main__ import main

        a, b = self._saved_with_and_without_accel(
            main, ["--apps", "vectoradd", "--models", "WV", "IAT", "-n", "3"],
            tmp_path)
        assert len(a.outcomes) == 6
        assert a == b

    def test_faultinjection_cli_no_accel_saves_equal_results(self, tmp_path):
        from repro.faultinjection.__main__ import main

        a, b = self._saved_with_and_without_accel(
            main, ["--unit", "decoder", "--max-faults", "96",
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
