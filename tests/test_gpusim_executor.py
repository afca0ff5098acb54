"""Behavioural tests of the functional GPU simulator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.common.bitops import float_to_bits
from repro.common.exceptions import (
    ConfigError,
    MemoryFaultError,
    WatchdogTimeoutError,
)
from repro.gpusim import Device, DeviceConfig
from repro.gpusim.executor import Tracer
from repro.isa import CmpOp, KernelBuilder, Op, RZ, SpecialReg


def _global_tid(k: KernelBuilder) -> int:
    """tid.x + ctaid.x * ntid.x"""
    tid = k.s2r_tid_x()
    cta = k.s2r_ctaid_x()
    ntid = k.s2r_ntid_x()
    g = k.reg()
    k.imad(g, cta, ntid, tid)
    return g


def build_vecadd(n_name: str = "vecadd") -> object:
    k = KernelBuilder(n_name, nregs=24)
    g = _global_tid(k)
    n = k.load_param(0)
    a_ptr = k.load_param(1)
    b_ptr = k.load_param(2)
    c_ptr = k.load_param(3)
    p = k.isetp_reg(g, n, CmpOp.GE)
    with k.if_(p):
        k.exit()
    off = k.reg()
    k.shl(off, g, imm=2)
    aa = k.reg()
    k.iadd(aa, a_ptr, off)
    bb = k.reg()
    k.iadd(bb, b_ptr, off)
    cc = k.reg()
    k.iadd(cc, c_ptr, off)
    va = k.reg()
    k.gld(va, aa)
    vb = k.reg()
    k.gld(vb, bb)
    vc = k.reg()
    k.fadd(vc, va, vb)
    k.gst(cc, vc)
    k.exit()
    return k.build()


class TestVecAdd:
    def test_fp_vector_add(self, device, rng):
        n = 100
        a = rng.normal(size=n).astype(np.float32)
        b = rng.normal(size=n).astype(np.float32)
        pa, pb = device.alloc_array(a), device.alloc_array(b)
        pc = device.alloc(n)
        prog = build_vecadd()
        res = device.launch(prog, grid=2, block=64, params=[n, pa, pb, pc])
        got = device.read(pc, n, np.float32)
        np.testing.assert_array_equal(got, a + b)
        assert res.num_ctas == 2
        assert res.instructions_executed > 0

    def test_partial_warp_tail(self, device, rng):
        # n smaller than block: the guard must deactivate tail threads
        n = 5
        a = np.arange(n, dtype=np.float32)
        b = np.ones(n, dtype=np.float32)
        pa, pb = device.alloc_array(a), device.alloc_array(b)
        pc = device.alloc(n)
        device.launch(build_vecadd(), grid=1, block=64, params=[n, pa, pb, pc])
        np.testing.assert_array_equal(device.read(pc, n, np.float32), a + b)


class TestIntegerSemantics:
    def _run_binary(self, device, op_emit, a_vals, b_vals):
        n = len(a_vals)
        a = np.asarray(a_vals, dtype=np.uint32)
        b = np.asarray(b_vals, dtype=np.uint32)
        pa, pb = device.alloc_array(a), device.alloc_array(b)
        pc = device.alloc(n)
        k = KernelBuilder("bin", nregs=24)
        g = _global_tid(k)
        off = k.reg()
        k.shl(off, g, imm=2)
        ra = k.reg(); k.iadd(ra, k.load_param(0), off)
        rb = k.reg(); k.iadd(rb, k.load_param(1), off)
        rc = k.reg(); k.iadd(rc, k.load_param(2), off)
        va = k.reg(); k.gld(va, ra)
        vb = k.reg(); k.gld(vb, rb)
        vc = k.reg()
        op_emit(k, vc, va, vb)
        k.gst(rc, vc)
        k.exit()
        device.launch(k.build(), grid=1, block=n, params=[pa, pb, pc])
        return device.read(pc, n)

    def test_iadd_wraps(self, device):
        got = self._run_binary(device, lambda k, d, a, b: k.iadd(d, a, b),
                               [0xFFFFFFFF, 7], [1, 3])
        np.testing.assert_array_equal(got, [0, 10])

    def test_isub(self, device):
        got = self._run_binary(device, lambda k, d, a, b: k.isub(d, a, b),
                               [5, 0], [7, 1])
        np.testing.assert_array_equal(got, np.array([-2, -1], np.int32).view(np.uint32))

    def test_imul_low32(self, device):
        got = self._run_binary(device, lambda k, d, a, b: k.imul(d, a, b),
                               [0x10000, 3], [0x10000, 4])
        np.testing.assert_array_equal(got, [0, 12])

    def test_logic_ops(self, device):
        got = self._run_binary(device, lambda k, d, a, b: k.and_(d, a, b),
                               [0xF0F0], [0xFF00])
        assert got[0] == 0xF000
        got = self._run_binary(device, lambda k, d, a, b: k.xor(d, a, b),
                               [0xFF], [0x0F])
        assert got[0] == 0xF0

    def test_shifts(self, device):
        got = self._run_binary(device, lambda k, d, a, b: k.shl(d, a, b),
                               [1, 1], [4, 33])  # shift amounts masked &31
        np.testing.assert_array_equal(got, [16, 2])
        got = self._run_binary(device, lambda k, d, a, b: k.shr(d, a, b),
                               [0x80000000], [31])
        assert got[0] == 1

    def test_imnmx(self, device):
        got = self._run_binary(
            device,
            lambda k, d, a, b: k.imnmx(d, a, b, mode=CmpOp.MAX),
            np.array([-5], np.int32).view(np.uint32), [3])
        assert got.view(np.int32)[0] == 3


class TestFloatSemantics:
    def test_ffma(self, device):
        n = 32
        a = np.full(n, 1.5, np.float32)
        b = np.full(n, 2.0, np.float32)
        pa, pb = device.alloc_array(a), device.alloc_array(b)
        pc = device.alloc(n)
        k = KernelBuilder("ffma", nregs=24)
        g = _global_tid(k)
        off = k.reg(); k.shl(off, g, imm=2)
        ra = k.reg(); k.iadd(ra, k.load_param(0), off)
        rb = k.reg(); k.iadd(rb, k.load_param(1), off)
        rc = k.reg(); k.iadd(rc, k.load_param(2), off)
        va = k.reg(); k.gld(va, ra)
        vb = k.reg(); k.gld(vb, rb)
        one = k.movf_new(1.0)
        vc = k.reg()
        k.ffma(vc, va, vb, one)
        k.gst(rc, vc)
        k.exit()
        device.launch(k.build(), grid=1, block=n, params=[pa, pb, pc])
        np.testing.assert_allclose(device.read(pc, n, np.float32), 4.0)

    def test_sfu_ops(self, device):
        x = np.linspace(0.1, 1.4, 32).astype(np.float32)
        px = device.alloc_array(x)
        pouts = [device.alloc(32) for _ in range(3)]
        k = KernelBuilder("sfu", nregs=24)
        g = _global_tid(k)
        off = k.reg(); k.shl(off, g, imm=2)
        rx = k.reg(); k.iadd(rx, k.load_param(0), off)
        vx = k.reg(); k.gld(vx, rx)
        for slot, emit in enumerate(("fsin", "fexp", "fsqrt")):
            ro = k.reg(); k.iadd(ro, k.load_param(1 + slot), off)
            vo = k.reg()
            getattr(k, emit)(vo, vx)
            k.gst(ro, vo)
        k.exit()
        device.launch(k.build(), grid=1, block=32, params=[px, *pouts])
        np.testing.assert_allclose(device.read(pouts[0], 32, np.float32),
                                   np.sin(x), rtol=1e-6)
        np.testing.assert_allclose(device.read(pouts[1], 32, np.float32),
                                   np.exp(x), rtol=1e-6)
        np.testing.assert_allclose(device.read(pouts[2], 32, np.float32),
                                   np.sqrt(x), rtol=1e-6)

    def test_i2f_f2i(self, device):
        n = 4
        vals = np.array([-7, 0, 3, 100], np.int32)
        pin = device.alloc_array(vals.view(np.uint32))
        pout = device.alloc(n)
        k = KernelBuilder("cvt", nregs=16)
        g = _global_tid(k)
        off = k.reg(); k.shl(off, g, imm=2)
        ri = k.reg(); k.iadd(ri, k.load_param(0), off)
        ro = k.reg(); k.iadd(ro, k.load_param(1), off)
        v = k.reg(); k.gld(v, ri)
        f = k.reg(); k.i2f(f, v)
        h = k.movf_new(0.5)
        k.fmul(f, f, h)     # v * 0.5
        b = k.reg(); k.f2i(b, f)
        k.gst(ro, b)
        k.exit()
        device.launch(k.build(), grid=1, block=n, params=[pin, pout])
        got = device.read(pout, n, np.int32)
        np.testing.assert_array_equal(got, np.trunc(vals * 0.5).astype(np.int32))


class TestControlFlow:
    def test_divergent_if_else(self, device):
        # even lanes write 1, odd lanes write 2
        n = 64
        pout = device.alloc(n)
        k = KernelBuilder("div", nregs=16)
        g = _global_tid(k)
        off = k.reg(); k.shl(off, g, imm=2)
        ro = k.reg(); k.iadd(ro, k.load_param(0), off)
        lsb = k.reg(); k.and_(lsb, g, imm=1)
        p = k.isetp_reg(lsb, RZ, CmpOp.EQ)
        v = k.reg()
        with k.if_else(p) as orelse:
            k.mov32i(v, 1)
            orelse()
            k.mov32i(v, 2)
        k.gst(ro, v)
        k.exit()
        device.launch(k.build(), grid=1, block=n, params=[pout])
        got = device.read(pout, n)
        expected = np.where(np.arange(n) % 2 == 0, 1, 2)
        np.testing.assert_array_equal(got, expected)

    def test_thread_dependent_loop_trip_counts(self, device):
        # thread t sums 0..t-1 via a divergent loop
        n = 64
        pout = device.alloc(n)
        k = KernelBuilder("tloop", nregs=24)
        g = _global_tid(k)
        off = k.reg(); k.shl(off, g, imm=2)
        ro = k.reg(); k.iadd(ro, k.load_param(0), off)
        acc = k.mov32i_new(0)
        i = k.reg()
        with k.for_range(i, 0, g):
            k.iadd(acc, acc, i)
        k.gst(ro, acc)
        k.exit()
        device.launch(k.build(), grid=1, block=n, params=[pout])
        got = device.read(pout, n)
        expected = np.array([t * (t - 1) // 2 for t in range(n)])
        np.testing.assert_array_equal(got, expected)

    def test_nested_divergence(self, device):
        n = 32
        pout = device.alloc(n)
        k = KernelBuilder("nest", nregs=24)
        g = _global_tid(k)
        off = k.reg(); k.shl(off, g, imm=2)
        ro = k.reg(); k.iadd(ro, k.load_param(0), off)
        v = k.mov32i_new(0)
        b0 = k.reg(); k.and_(b0, g, imm=1)
        b1 = k.reg(); k.and_(b1, g, imm=2)
        p0 = k.isetp_reg(b0, RZ, CmpOp.NE)
        p1 = k.isetp_reg(b1, RZ, CmpOp.NE)
        with k.if_(p0):
            k.iadd(v, v, imm=1)
            with k.if_(p1):
                k.iadd(v, v, imm=10)
        k.gst(ro, v)
        k.exit()
        device.launch(k.build(), grid=1, block=n, params=[pout])
        got = device.read(pout, n)
        t = np.arange(n)
        expected = np.where(t & 1, np.where(t & 2, 11, 1), 0)
        np.testing.assert_array_equal(got, expected)

    def test_exit_inside_divergence(self, device):
        n = 32
        pout = device.alloc(n)
        device.write(pout, np.full(n, 99, np.uint32))
        k = KernelBuilder("exitdiv", nregs=16)
        g = _global_tid(k)
        off = k.reg(); k.shl(off, g, imm=2)
        ro = k.reg(); k.iadd(ro, k.load_param(0), off)
        p = k.pred()
        k.isetp(p, g, imm=16, cmp=CmpOp.GE)
        with k.if_(p):
            k.exit()
        k.gst(ro, g)
        k.exit()
        device.launch(k.build(), grid=1, block=n, params=[pout])
        got = device.read(pout, n)
        np.testing.assert_array_equal(got[:16], np.arange(16))
        np.testing.assert_array_equal(got[16:], 99)


class TestSharedMemoryAndBarrier:
    def test_block_reverse_via_shared(self, device):
        n = 64
        data = np.arange(n, dtype=np.uint32)
        pin = device.alloc_array(data)
        pout = device.alloc(n)
        k = KernelBuilder("rev", nregs=24, shared_words=n)
        tid = k.s2r_tid_x()
        off = k.reg(); k.shl(off, tid, imm=2)
        ri = k.reg(); k.iadd(ri, k.load_param(0), off)
        v = k.reg(); k.gld(v, ri)
        k.sts(off, v)
        k.bar()
        # read shared[n-1-tid]
        rt = k.mov32i_new(n - 1)
        k.isub(rt, rt, tid)
        k.shl(rt, rt, imm=2)
        w = k.reg(); k.lds(w, rt)
        ro = k.reg(); k.iadd(ro, k.load_param(1), off)
        k.gst(ro, w)
        k.exit()
        device.launch(k.build(), grid=1, block=n, params=[pin, pout])
        np.testing.assert_array_equal(device.read(pout, n), data[::-1])

    def test_barrier_multiple_warps(self, device):
        # warp 1 writes, warp 0 reads after barrier
        pout = device.alloc(32)
        k = KernelBuilder("xwarp", nregs=24, shared_words=64)
        tid = k.s2r_tid_x()
        off = k.reg(); k.shl(off, tid, imm=2)
        v = k.reg(); k.iadd(v, tid, imm=1000)
        k.sts(off, v)
        k.bar()
        # thread t of warp 0 reads shared[t+32]
        p = k.pred()
        k.isetp(p, tid, imm=32, cmp=CmpOp.GE)
        with k.if_(p):
            k.exit()
        partner = k.reg(); k.iadd(partner, tid, imm=32)
        k.shl(partner, partner, imm=2)
        w = k.reg(); k.lds(w, partner)
        ro = k.reg(); k.iadd(ro, k.load_param(0), off)
        k.gst(ro, w)
        k.exit()
        device.launch(k.build(), grid=1, block=64, params=[pout])
        np.testing.assert_array_equal(device.read(pout, 32),
                                      np.arange(32) + 32 + 1000)


class TestFaults:
    def test_oob_global_access_faults(self, device):
        k = KernelBuilder("oob", nregs=8)
        bad = k.mov32i_new(0x7FFFFFFC)
        v = k.reg()
        k.gld(v, bad)
        k.exit()
        with pytest.raises(MemoryFaultError):
            device.launch(k.build(), grid=1, block=1)

    def test_misaligned_access_faults(self, device):
        k = KernelBuilder("mis", nregs=8)
        bad = k.mov32i_new(2)
        v = k.reg()
        k.gld(v, bad)
        k.exit()
        with pytest.raises(MemoryFaultError):
            device.launch(k.build(), grid=1, block=1)

    def test_watchdog_catches_infinite_loop(self, device):
        k = KernelBuilder("hang", nregs=8)
        lbl = k.label()
        k.bra(lbl)
        k.exit()
        with pytest.raises(WatchdogTimeoutError):
            device.launch(k.build(), grid=1, block=1, watchdog=10_000)

    def test_round_hook_fast_forward_keeps_watchdog_slice(self, device):
        # two warps spin on `BAR; BRA`: after the first round (one BAR
        # each) every round runs BRA+BAR per warp, a period of 4
        # instructions and 4 visits of its sites
        k = KernelBuilder("hang_bar", nregs=8)
        lbl = k.label()
        k.bar()
        k.bra(lbl)
        k.exit()
        program = k.build()
        budget = 10_000

        class Counting:
            """Counts every step it runs (a site at every pc)."""

            def __init__(self):
                self.calls = 0

            def table(self, warp, decoded):
                def counted(step):
                    def site(w, m, active, top, env):
                        self.calls += 1
                        return step(w, m, active, top, env)
                    return site
                return [(counted(step), *rest)
                        for step, *rest in decoded.steps]

        cold = Counting()
        with pytest.raises(WatchdogTimeoutError):
            device.launch(program, grid=1, block=64, watchdog=budget,
                          instrumentation=cold)

        fast = Counting()
        skipped = []

        def hook(cta, executed, warps, shared_mem):
            if executed < 64 or skipped:
                return None
            periods = (budget - executed) // 4
            fast.calls += 4 * periods
            skipped.append(4 * periods)
            return 4 * periods

        with pytest.raises(WatchdogTimeoutError):
            device.launch(program, grid=1, block=64, watchdog=budget,
                          instrumentation=fast, round_hook=hook)
        assert skipped and skipped[0] > budget // 2
        assert fast.calls == cold.calls

    def test_block_too_large(self, device):
        k = KernelBuilder("big", nregs=8)
        k.exit()
        with pytest.raises(ConfigError):
            device.launch(k.build(), grid=1, block=2048)


class TestDeviceMemoryApi:
    def test_alloc_is_word_aligned(self, device):
        a = device.alloc(10)
        b = device.alloc(10)
        assert a % 4 == 0 and b % 4 == 0 and b > a

    def test_write_read_float32(self, device):
        arr = np.array([1.5, -2.25], np.float32)
        p = device.alloc_array(arr)
        np.testing.assert_array_equal(device.read(p, 2, np.float32), arr)

    def test_params_floats_encoded(self, device):
        device.set_params([3, 2.5])
        words = device.constant_mem.read_words(0, 2)
        assert words[0] == 3
        assert words[1] == float_to_bits(2.5)


class TestWarpCoordinates:
    def test_subpartition_assignment(self, device):
        seen = []

        def trace(w, pc, instr, m):
            seen.append((w.sm_id, w.subpartition, w.warp_slot, w.warp_in_cta))

        k = KernelBuilder("coord", nregs=4)
        k.exit()
        device.launch(k.build(), grid=2, block=256,
                      instrumentation=Tracer(trace))
        # 8 warps/CTA over 4 subpartitions: warp w -> subpartition w%4
        per_cta = {(w % 4) for _, _, _, w in seen}
        assert per_cta == {0, 1, 2, 3}
        # two CTAs on different SMs
        assert {s for s, _, _, _ in seen} == {0, 1}
