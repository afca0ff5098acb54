"""Snapshot/restore of simulated-GPU state + the checkpoint cache.

These are the building blocks of checkpointed differential replay
(docs/PERFORMANCE.md): device/warp snapshots must round-trip exactly,
the equality comparators must implement the documented exclusions, and a
launch resumed from a mid-run checkpoint must finish bit-identical to an
uninterrupted one.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign.goldens import (
    EPOCH_MAX,
    EPOCH_MIN,
    MAX_CHECKPOINTS,
    CheckpointCache,
    thin_checkpoints,
    trace_key,
)
from repro.gpusim import Device, DeviceConfig
from repro.gpusim.executor import WarpState
from repro.gpusim.snapshot import (
    DeviceSnapshot,
    WarpSnapshot,
    _device_control_matches,
    _warp_control_matches,
    capture_checkpoint,
    materialize_warp,
    restore_device,
    snapshot_device,
    snapshot_warp,
)
from repro.isa import CmpOp, KernelBuilder
from repro.workloads import EVALUATION_APPS, get_workload

MEM = 1 << 16


def _device() -> Device:
    return Device(DeviceConfig(global_mem_words=MEM))


def _prefix_equal(mem, trimmed: np.ndarray) -> bool:
    """Do *mem*'s words equal *trimmed* padded with zeros?"""
    t = trimmed.size
    if not np.array_equal(mem.data[:t], trimmed):
        return False
    return not mem.data[t:mem.extent].any()


def device_matches(dev, snap: DeviceSnapshot) -> bool:
    """Exact equality of the device's state with a snapshot (constant
    memory excluded)."""
    return (_device_control_matches(dev, snap)
            and _prefix_equal(dev.global_mem, snap.global_data))


def warp_matches(warp: WarpState, snap: WarpSnapshot) -> bool:
    """Exact architectural equality (``instructions_executed``
    excluded)."""
    return (_warp_control_matches(warp, snap)
            and np.array_equal(warp.regs, snap.regs))


def _counting_kernel():
    """tid-indexed accumulate with a branch: exercises stack + memory."""
    k = KernelBuilder("snapcount", nregs=16)
    tid = k.s2r_tid_x()
    cta = k.s2r_ctaid_x()
    ntid = k.s2r_ntid_x()
    g = k.reg()
    k.imad(g, cta, ntid, tid)
    base = k.load_param(0)
    off = k.reg()
    k.shl(off, g, imm=2)
    addr = k.reg()
    k.iadd(addr, base, off)
    v = k.reg()
    k.gld(v, addr)
    two = k.mov32i_new(2)
    p = k.isetp_reg(v, two, CmpOp.GE)
    with k.if_(p):
        k.iadd(v, v, two)
    k.iadd(v, v, v)
    k.gst(addr, v)
    k.exit()
    return k.build()


class TestDeviceSnapshot:
    def test_round_trip_restores_memory_and_brk(self):
        dev = _device()
        ptr = dev.alloc_array(np.arange(64, dtype=np.uint32))
        snap = snapshot_device(dev)
        assert device_matches(dev, snap)

        dev.write(ptr, np.full(64, 7, dtype=np.uint32))
        dev.alloc(128)
        assert not device_matches(dev, snap)

        restore_device(dev, snap)
        assert device_matches(dev, snap)
        assert np.array_equal(dev.read(ptr, 64),
                              np.arange(64, dtype=np.uint32))

    def test_snapshot_is_trimmed(self):
        dev = _device()
        dev.alloc_array(np.ones(16, dtype=np.uint32))
        snap = snapshot_device(dev)
        # a few live words must not snapshot the whole address space
        assert snap.global_data.size < 64
        assert snap.mem_words == MEM

    def test_restore_rejects_geometry_mismatch(self):
        from repro.common.exceptions import ConfigError

        snap = snapshot_device(_device())
        other = Device(DeviceConfig(global_mem_words=MEM * 2))
        with pytest.raises(ConfigError):
            restore_device(other, snap)

    def test_slot_counters_round_trip(self):
        dev = _device()
        program = _counting_kernel()
        ptr = dev.alloc_array(np.arange(32, dtype=np.uint32))
        snap0 = snapshot_device(dev)
        dev.launch(program, grid=(2, 1, 1), block=(32, 1, 1), params=(ptr,))
        assert not device_matches(dev, snap0)  # counters + memory moved
        after = snapshot_device(dev)
        restore_device(dev, snap0)
        assert device_matches(dev, snap0)
        restore_device(dev, after)
        assert device_matches(dev, after)


def _poke_kernel():
    """Every lane stores param 1 at byte address param 0."""
    k = KernelBuilder("poke", nregs=8)
    addr = k.load_param(0)
    value = k.load_param(1)
    k.gst(addr, value)
    k.exit()
    return k.build()


def _full_scan_trim(data: np.ndarray) -> np.ndarray:
    """Reference trim: scan every word of the memory."""
    nz = np.flatnonzero(data)
    return data[:int(nz[-1]) + 1 if nz.size else 0]


_WORD = st.one_of(st.integers(0, 80), st.integers(MEM - 80, MEM - 1),
                  st.integers(0, MEM - 1))
_VALUE = st.one_of(st.just(0), st.integers(1, 0xFFFFFFFF))
_OPS = st.one_of(
    st.tuples(st.just("alloc"), st.integers(1, 3000)),
    st.tuples(st.just("host"), _WORD, _VALUE),
    st.tuples(st.just("store"), _WORD, _VALUE),
    st.tuples(st.just("snap")),
    st.tuples(st.just("restore"), st.integers(0, 7)),
    st.tuples(st.just("reset")),
)


class TestTrimProperty:
    """``snapshot_device`` trims within the written extent; its arrays
    must equal a trim that scans the whole memory."""

    @staticmethod
    def _check(dev: Device) -> None:
        snap = snapshot_device(dev)
        for mem, got in ((dev.global_mem, snap.global_data),
                         (dev.constant_mem, snap.constant_data)):
            assert np.array_equal(got, _full_scan_trim(mem.data))
            assert not mem.data[mem.extent:].any()
        assert device_matches(dev, snap)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(_OPS, max_size=10))
    def test_trim_equals_full_scan(self, ops):
        dev = _device()
        program = _poke_kernel()
        snaps = [snapshot_device(dev)]
        self._check(dev)
        for op in ops:
            if op[0] == "alloc":
                dev.alloc_array(np.arange(1, op[1] + 1, dtype=np.uint32))
            elif op[0] == "host":
                dev.write(4 * op[1], np.array([op[2]], dtype=np.uint32))
            elif op[0] == "store":
                dev.launch(program, grid=(1, 1, 1), block=(32, 1, 1),
                           params=(4 * op[1], op[2]))
            elif op[0] == "snap":
                snaps.append(snapshot_device(dev))
            elif op[0] == "restore":
                snap = snaps[op[1] % len(snaps)]
                restore_device(dev, snap)
                assert device_matches(dev, snap)
            else:
                dev.reset_memory()
            self._check(dev)

    def test_all_zero(self):
        dev = _device()
        self._check(dev)
        assert snapshot_device(dev).global_data.size == 0

    def test_only_last_word(self):
        dev = _device()
        dev.write(4 * (MEM - 1), np.array([5], dtype=np.uint32))
        self._check(dev)
        assert snapshot_device(dev).global_data.size == MEM

    def test_writes_past_brk(self):
        dev = _device()
        dev.alloc_array(np.ones(8, dtype=np.uint32))
        dev.write(4 * 3000, np.array([7], dtype=np.uint32))
        self._check(dev)
        dev.launch(_poke_kernel(), grid=(1, 1, 1), block=(32, 1, 1),
                   params=(4 * (MEM - 100), 9))
        self._check(dev)
        assert snapshot_device(dev).global_data.size == MEM - 99

    def test_restore_larger_and_smaller(self):
        dev = _device()
        dev.write(0, np.ones(4, dtype=np.uint32))
        small = snapshot_device(dev)
        dev.write(4 * 50_000, np.ones(4, dtype=np.uint32))
        large = snapshot_device(dev)
        for snap in (small, large, small):
            restore_device(dev, snap)
            self._check(dev)
            assert np.array_equal(snapshot_device(dev).global_data,
                                  snap.global_data)

    def test_reset_memory(self):
        dev = _device()
        dev.write(4 * 40_000, np.ones(4, dtype=np.uint32))
        dev.reset_memory()
        self._check(dev)
        assert snapshot_device(dev).global_data.size == 0


class TestWarpSnapshot:
    def _warp(self) -> WarpState:
        program = _counting_kernel()
        return WarpState(program, 0, 0, (32, 1, 1), (1, 1, 1), (0, 0, 0),
                         sm_id=1, subpartition=2, warp_slot=3)

    def test_round_trip_exact(self):
        warp = self._warp()
        warp.regs[:, 4] = 0xDEAD
        warp.preds[:, 1] = True
        snap = snapshot_warp(warp)
        clone = materialize_warp(snap, warp.program, (32, 1, 1), (1, 1, 1),
                                 (0, 0, 0))
        assert warp_matches(clone, snap)
        assert np.array_equal(clone.regs, warp.regs)
        assert np.array_equal(clone.preds, warp.preds)
        assert clone.sm_id == 1 and clone.warp_slot == 3

    def test_mutation_breaks_match(self):
        warp = self._warp()
        snap = snapshot_warp(warp)
        warp.regs[0, 0] ^= 1
        assert not warp_matches(warp, snap)

    def test_instructions_executed_excluded_from_match(self):
        # the counter influences no architectural state; the snapshot
        # comparators ignore it (docs/PERFORMANCE.md)
        warp = self._warp()
        snap = snapshot_warp(warp)
        warp.instructions_executed += 17
        assert warp_matches(warp, snap)

    def test_stack_none_reconv_round_trips(self):
        warp = self._warp()
        assert warp.stack[0].reconv_pc is None
        clone = materialize_warp(snapshot_warp(warp), warp.program,
                                 (32, 1, 1), (1, 1, 1), (0, 0, 0))
        assert clone.stack[0].reconv_pc is None


class TestCheckpointResume:
    def test_resumed_launch_matches_cold_run(self):
        program = _counting_kernel()
        data = np.arange(96, dtype=np.uint32)
        grid, block = (3, 1, 1), (32, 1, 1)

        # uninterrupted reference
        dev_ref = _device()
        p_ref = dev_ref.alloc_array(data)
        res_ref = dev_ref.launch(program, grid=grid, block=block,
                                 params=(p_ref,))
        want = dev_ref.read(p_ref, data.size)

        # capture one mid-launch checkpoint
        cks = []

        def hook(cta, executed, warps, shared_mem):
            if executed and not cks:
                cks.append(capture_checkpoint(dev, 0, cta, executed,
                                              executed, warps, shared_mem))

        dev = _device()
        ptr = dev.alloc_array(data)
        dev.launch(program, grid=grid, block=block, params=(ptr,),
                   round_hook=hook)
        assert cks, "round hook never fired mid-launch"

        # resume from the checkpoint on a fresh device
        dev2 = _device()
        p2 = dev2.alloc_array(data)
        assert p2 == ptr
        res2 = dev2.launch(program, grid=grid, block=block, params=(p2,),
                           resume=cks[0].resume())
        assert np.array_equal(dev2.read(p2, data.size), want)
        assert res2.instructions_executed == res_ref.instructions_executed


class TestCheckpointCache:
    def test_epoch_bounds(self):
        assert (EPOCH_MIN, EPOCH_MAX, MAX_CHECKPOINTS) == (64, 8192, 32)
        held = list(range(32))
        assert thin_checkpoints(held, 64) == 64 and held == list(range(32))
        held.append(32)
        # every other one goes, the first and the newest stay
        assert thin_checkpoints(held, 64) == 128
        assert held == list(range(0, 33, 2))
        assert thin_checkpoints(list(range(33)), 4096) == 8192
        # capped: past EPOCH_MAX the spacing stays and nothing is dropped
        held = list(range(40))
        assert thin_checkpoints(held, 8192) == 8192 and len(held) == 40

    def test_content_addressed_and_hit_counted(self):
        cache = CheckpointCache()
        a = cache.get("vectoradd", "tiny", 1)
        b = cache.get("vectoradd", "tiny", 1)
        assert a is b
        assert (cache.hits, cache.misses) == (1, 1)
        c = cache.get("vectoradd", "tiny", 2)
        assert c is not a
        assert cache.misses == 2
        assert a.key == trace_key("vectoradd", "tiny", 1, 1 << 20)

    def test_disk_round_trip_bit_identical(self, tmp_path):
        cache = CheckpointCache()
        cache.persist_to(tmp_path)
        a = cache.get("vectoradd", "tiny", 1)

        fresh = CheckpointCache()
        fresh.persist_to(tmp_path)
        b = fresh.get("vectoradd", "tiny", 1)
        assert fresh.disk_hits == 1 and fresh.misses == 0
        assert b.digest == a.digest
        assert np.array_equal(b.ev_pc, a.ev_pc)
        assert np.array_equal(b.ev_coord, a.ev_coord)
        assert np.array_equal(b.ev_mask, a.ev_mask)
        assert b.coords == a.coords
        assert len(b.checkpoints) == len(a.checkpoints)
        for x, y in zip(b.checkpoints, a.checkpoints):
            assert (x.index, x.launch, x.cta, x.executed) == \
                   (y.index, y.launch, y.cta, y.executed)
            assert np.array_equal(x.shared, y.shared)
        assert len(b.launches) == len(a.launches)
        assert b.total_instructions == a.total_instructions

    def test_spill_stacks_fields_and_round_trips_every_warp(self, tmp_path):
        # one .npz member per snapshot field, whatever the number of
        # checkpoints and warps, and every field and CTA record reads back
        # exactly
        import dataclasses
        import zipfile

        cache = CheckpointCache()
        cache.persist_to(tmp_path)
        a = cache.get("bfs", "tiny", 1)
        (path,) = tmp_path.glob("*.trace.npz")
        assert len(a.checkpoints) > 4
        assert sum(len(ck.warps) for ck in a.checkpoints) > 8
        # 27 snapshot members, and one of the CTA records end to end
        assert len(zipfile.ZipFile(path).namelist()) == 28

        fresh = CheckpointCache()
        fresh.persist_to(tmp_path)
        b = fresh.get("bfs", "tiny", 1)
        assert fresh.disk_hits == 1

        def same(x, y):
            assert x.dtype == y.dtype and np.array_equal(x, y)

        assert b.launches == a.launches
        assert a.ctas.start.size == sum(r.num_ctas for r in a.launches) > 4
        assert a.ctas.gld_word.size and a.ctas.gst_word.size
        for f in dataclasses.fields(a.ctas):
            same(getattr(b.ctas, f.name), getattr(a.ctas, f.name))
        for x, y in zip(b.post_launch, a.post_launch, strict=True):
            same(x.global_data, y.global_data)
            same(x.constant_data, y.constant_data)
            assert (x.global_brk, x.slot_counters) == \
                   (y.global_brk, y.slot_counters)
        for x, y in zip(b.checkpoints, a.checkpoints, strict=True):
            same(x.shared, y.shared)
            same(x.device.global_data, y.device.global_data)
            same(x.device.constant_data, y.device.constant_data)
            for u, v in zip(x.warps, y.warps, strict=True):
                for f in ("alive", "regs", "preds", "stack_reconv",
                          "stack_next", "stack_masks"):
                    same(getattr(u, f), getattr(v, f))
                assert u.regs.flags.c_contiguous
                assert (u.cta, u.warp_in_cta, u.sm_id, u.subpartition,
                        u.warp_slot, u.at_barrier,
                        u.instructions_executed) == \
                       (v.cta, v.warp_in_cta, v.sm_id, v.subpartition,
                        v.warp_slot, v.at_barrier, v.instructions_executed)

    def test_spill_in_another_layout_is_a_miss(self, tmp_path):
        # a spill without this layout's tag (as the per-warp layout
        # wrote it), digest intact, is recomputed, not decoded
        import json

        from repro.campaign import goldens

        cache = CheckpointCache()
        cache.persist_to(tmp_path)
        a = cache.get("vectoradd", "tiny", 1)
        (path,) = tmp_path.glob("*.trace.npz")
        arrays, meta = goldens._trace_to_arrays(a)
        del meta["layout"]
        meta["trace_digest"] = goldens._trace_digest(arrays, meta)
        with open(path, "wb") as fh:
            np.savez(fh, meta=np.array(json.dumps(meta)), **arrays)

        fresh = CheckpointCache()
        fresh.persist_to(tmp_path)
        b = fresh.get("vectoradd", "tiny", 1)
        assert (fresh.disk_hits, fresh.disk_rejects, fresh.misses) == (0, 1, 1)
        assert b.digest == a.digest

    def test_corrupt_disk_entry_is_discarded(self, tmp_path):
        cache = CheckpointCache()
        cache.persist_to(tmp_path)
        cache.get("vectoradd", "tiny", 1)
        files = list(tmp_path.glob("*.trace.npz"))
        assert len(files) == 1
        files[0].write_bytes(b"garbage" * 100)

        fresh = CheckpointCache()
        fresh.persist_to(tmp_path)
        fresh.get("vectoradd", "tiny", 1)
        assert fresh.disk_rejects == 1
        assert fresh.misses == 1  # recomputed, not trusted

    def test_trace_aligns_with_golden_run(self):
        from repro.campaign.goldens import GOLDEN_CACHE

        cache = CheckpointCache()
        trace = cache.get("gemm", "tiny", 3)
        golden = GOLDEN_CACHE.get("gemm", "tiny", 3)
        assert trace.total_instructions == golden.dynamic_instructions
        assert trace.ev_pc.size == trace.total_instructions
        starts = [rec.start_index for rec in trace.launches]
        assert starts == sorted(starts)
        last = trace.launches[-1]
        assert last.start_index + last.instructions_executed == \
               trace.total_instructions
        for ck in trace.checkpoints:
            rec = trace.launches[ck.launch]
            assert ck.index == rec.start_index + ck.executed


class _Nondeterministic:
    """Toy workload whose output changes on every run."""

    meta = SimpleNamespace(name="nondeterministic")
    scale = "tiny"

    def __init__(self):
        self.runs = 0

    def run(self, dev, launcher):
        self.runs += 1
        ptr = dev.alloc_array(np.full(32, self.runs, dtype=np.uint32))
        launcher(_counting_kernel(), (1, 1, 1), (32, 1, 1), params=(ptr,))
        return dev.read(ptr, 32)


class TestReferencePass:
    """One traced pass builds the golden run and the checkpoint trace."""

    @pytest.mark.parametrize("app", sorted(EVALUATION_APPS))
    def test_traced_pass_equals_untraced(self, app):
        from repro.campaign.goldens import golden_run, reference_run

        w = get_workload(app, scale="tiny", seed=1)
        plain = golden_run(w, 1 << 20)
        golden, trace = reference_run(w, 1 << 20, traced_key="t")
        assert np.array_equal(golden.bits, plain.bits)
        assert golden.dynamic_instructions == plain.dynamic_instructions
        assert golden.digest == plain.digest
        assert trace.total_instructions == golden.dynamic_instructions
        assert trace.digest == golden.digest
        assert EPOCH_MIN <= trace.epoch <= EPOCH_MAX
        assert len(trace.checkpoints) <= MAX_CHECKPOINTS
        index = [ck.index for ck in trace.checkpoints]
        assert all(b - a >= EPOCH_MIN for a, b in zip([0] + index, index))

    def test_trace_miss_fills_golden_cache(self):
        from repro.campaign.goldens import GOLDEN_CACHE

        GOLDEN_CACHE.clear()
        trace = CheckpointCache().get("vectoradd", "tiny", 5)
        assert GOLDEN_CACHE.stats() == (0, 1)
        golden = GOLDEN_CACHE.get("vectoradd", "tiny", 5)
        assert GOLDEN_CACHE.stats() == (1, 1)
        assert golden.digest == trace.digest
        GOLDEN_CACHE.clear()

    def test_nondeterminism_raises_against_existing_golden(
            self, monkeypatch, tmp_path):
        from repro.campaign import goldens
        from repro.campaign.goldens import GOLDEN_CACHE

        toy = _Nondeterministic()
        monkeypatch.setattr(goldens, "cached_workload",
                            lambda app, scale, seed: toy)
        GOLDEN_CACHE.clear()
        try:
            # no golden entry yet: the traced pass provides it
            CheckpointCache().get("toy", "tiny", 1, MEM)
            assert GOLDEN_CACHE.misses == 1
            # an in-memory entry
            with pytest.raises(RuntimeError, match="nondeterministic"):
                CheckpointCache().get("toy", "tiny", 1, MEM)
            # a spilled entry, as a resume in a fresh process sees it
            GOLDEN_CACHE.clear()
            GOLDEN_CACHE.persist_to(tmp_path)
            GOLDEN_CACHE.get("toy", "tiny", 2, MEM)
            GOLDEN_CACHE.clear()
            GOLDEN_CACHE.persist_to(tmp_path)
            with pytest.raises(RuntimeError, match="nondeterministic"):
                CheckpointCache().get("toy", "tiny", 2, MEM)
            assert GOLDEN_CACHE.disk_hits == 1
        finally:
            GOLDEN_CACHE.clear()
