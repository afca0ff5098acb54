"""Additional executor coverage: nesting, encoding, hooks, tracing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errormodels import ErrorDescriptor, ErrorModel
from repro.gpusim import Device, DeviceConfig
from repro.gpusim.executor import WARP_SIZE, WarpState, _SYNC
from repro.isa import CmpOp, KernelBuilder, Op, RZ, SpecialReg
from repro.workloads.kutil import elem_addr, global_tid_x


class TestNestedControlFlow:
    def test_nested_for_range(self, device):
        # out[t] = sum_{i<t} sum_{j<i} 1 = t*(t-1)/2 pairs
        n = 32
        pout = device.alloc(n)
        k = KernelBuilder("nest", nregs=24)
        g = global_tid_x(k)
        acc = k.mov32i_new(0)
        i = k.reg()
        j = k.reg()
        with k.for_range(i, 0, g):
            with k.for_range(j, 0, i):
                k.iadd(acc, acc, imm=1)
        k.gst(elem_addr(k, k.load_param(0), g), acc)
        k.exit()
        device.launch(k.build(), 1, n, params=[pout])
        got = device.read(pout, n)
        expected = [t * (t - 1) // 2 for t in range(n)]
        np.testing.assert_array_equal(got, expected)

    def test_if_inside_loop(self, device):
        # count odd numbers below tid
        n = 32
        pout = device.alloc(n)
        k = KernelBuilder("ifloop", nregs=24)
        g = global_tid_x(k)
        acc = k.mov32i_new(0)
        i = k.reg()
        b = k.reg()
        with k.for_range(i, 0, g):
            k.and_(b, i, imm=1)
            p = k.isetp_reg(b, RZ, CmpOp.NE)
            with k.if_(p):
                k.iadd(acc, acc, imm=1)
            k._next_pred -= 1
        k.gst(elem_addr(k, k.load_param(0), g), acc)
        k.exit()
        device.launch(k.build(), 1, n, params=[pout])
        got = device.read(pout, n)
        expected = [sum(1 for x in range(t) if x % 2) for t in range(n)]
        np.testing.assert_array_equal(got, expected)


class TestProgramEncoding:
    def test_encoded_matches_instruction_count(self):
        from repro.workloads import get_workload

        prog = get_workload("gemm", scale="tiny").program()
        enc = prog.encoded()
        assert len(enc) == len(prog)
        assert all(0 <= e.word < 2**64 for e in enc)

    def test_histogram_covers_all(self):
        from repro.workloads import get_workload

        prog = get_workload("mxm", scale="tiny").program()
        h = prog.op_class_histogram()
        assert sum(h.values()) == len(prog)


class _Wrapping:
    """A table-protocol tool: the step of each pc where *pick(pc, instr)*
    holds becomes ``wrap(pc, step)``."""

    def __init__(self, pick, wrap):
        self.pick, self.wrap = pick, wrap

    def table(self, warp, decoded):
        return [(self.wrap(pc, step) if self.pick(pc, instr) else step,
                 guard, neg, instr)
                for pc, (step, guard, neg, instr) in enumerate(decoded.steps)]


class TestHookContext:
    """A site that runs its step under an overridden exec mask."""

    def test_override_exec_mask_enables_lanes(self, device):
        # a site forces a predicated-off store to execute on lane 0
        n = 32
        pout = device.alloc(n)
        device.write(pout, np.full(n, 7, np.uint32))
        k = KernelBuilder("hook", nregs=16)
        g = global_tid_x(k)
        p = k.pred()
        k.isetp(p, g, imm=100, cmp=CmpOp.GE)  # always false
        one = k.mov32i_new(1)
        k.gst(elem_addr(k, k.load_param(0), g), one, pred=p)
        k.exit()

        def force_lane0(pc, step):
            def site(w, m, active, top, env):
                forced = np.ones(WARP_SIZE, bool) if m is None else m.copy()
                forced[0] = True
                step(w, forced, active, top, env)
                return _SYNC
            return site

        device.launch(k.build(), 1, n, params=[pout],
                      instrumentation=_Wrapping(
                          lambda pc, instr: instr.op is Op.GST, force_lane0))
        got = device.read(pout, n)
        assert got[0] == 1
        np.testing.assert_array_equal(got[1:], 7)

    def test_instructions_counted(self, device):
        k = KernelBuilder("cnt", nregs=4)
        k.nop()
        k.nop()
        k.exit()
        res = device.launch(k.build(), 1, WARP_SIZE)
        assert res.instructions_executed == 3


class TestWholeWarpFlag:
    """Events that must drop the executor out of its whole-warp path."""

    def test_after_hook_rewrites_next_pc_in_whole_warp_loop(self, device):
        # an RTL-pc_bit-style site redirects the loop back-edge to the
        # loop exit on its 5th execution
        n = 32
        pout = device.alloc(n)
        k = KernelBuilder("redirect", nregs=8)
        g = global_tid_x(k)
        i = k.mov32i_new(0)
        with k.loop() as loop:
            p = k.isetp_reg(i, RZ, CmpOp.LT)     # never true (unsigned 0)
            loop.break_if(p)
            k.iadd(i, i, imm=1)
        k.gst(elem_addr(k, k.load_param(0), g), i)
        k.exit()
        prog = k.build()
        branches = [(pc, ins) for pc, ins in enumerate(prog.instructions)
                    if ins.op is Op.BRA]
        (back_edge, _), = [b for b in branches if b[1].reconv_pc is None]
        (_, brk), = [b for b in branches if b[1].reconv_pc is not None]
        exit_pc = brk.imm

        seen = []

        def redirect(pc, step):
            def site(w, m, active, top, env):
                res = step(w, m, active, top, env)
                seen.append(pc)
                if len(seen) == 5:
                    w.stack[-1].next_pc = exit_pc
                    return _SYNC
                return res
            return site

        device.launch(prog, 1, n, params=[pout], watchdog=5000,
                      instrumentation=_Wrapping(
                          lambda pc, instr: pc == back_edge, redirect))
        np.testing.assert_array_equal(device.read(pout, n), 5)

    def test_override_exec_mask_on_unguarded_whole_warp_instruction(
            self, device):
        n = 32
        pout = device.alloc(n)
        k = KernelBuilder("override", nregs=8)
        g = global_tid_x(k)
        v = k.mov32i_new(10)
        k.iadd(v, v, imm=5)                       # unguarded, full warp
        k.gst(elem_addr(k, k.load_param(0), g), v)
        k.exit()
        lanes = np.arange(WARP_SIZE) % 4 == 0

        def four_lanes(pc, step):
            def site(w, m, active, top, env):
                step(w, lanes & w.alive, active, top, env)
                return _SYNC
            return site

        device.launch(k.build(), 1, n, params=[pout],
                      instrumentation=_Wrapping(
                          lambda pc, instr: instr.op is Op.IADD
                          and instr.use_imm and instr.imm == 5, four_lanes))
        np.testing.assert_array_equal(device.read(pout, n),
                                      np.where(lanes, 15, 10))

    def test_some_lanes_exit_mid_slice(self, device):
        n = 32
        pout = device.alloc(n)
        device.write(pout, np.full(n, 7, np.uint32))
        k = KernelBuilder("halfexit", nregs=12)
        g = global_tid_x(k)
        odd = k.reg()
        k.and_(odd, g, imm=1)
        p = k.isetp_reg(odd, RZ, CmpOp.NE)
        k.exit(pred=p)
        v = k.reg()
        k.iadd(v, g, imm=100)                     # unguarded, half warp
        k.gst(elem_addr(k, k.load_param(0), g), v)
        k.exit()
        res = device.launch(k.build(), 1, n, params=[pout])
        tid = np.arange(n)
        np.testing.assert_array_equal(device.read(pout, n),
                                      np.where(tid % 2, 7, tid + 100))
        assert res.instructions_executed < 256    # one slice

    def test_divergent_branch_reconverges_inside_one_slice(self, device):
        n = 32
        pout = device.alloc(n)
        k = KernelBuilder("reconv", nregs=12)
        g = global_tid_x(k)
        v = k.reg()
        p = k.isetp_reg(g, k.mov32i_new(20), CmpOp.LT)
        with k.if_else(p) as else_:
            k.mov32i(v, 1)
            else_()
            k.mov32i(v, 2)
        k.iadd(v, v, imm=100)                     # whole warp again
        k.gst(elem_addr(k, k.load_param(0), g), v)
        k.exit()
        res = device.launch(k.build(), 1, n, params=[pout])
        np.testing.assert_array_equal(device.read(pout, n),
                                      np.where(np.arange(n) < 20, 101, 102))
        assert res.instructions_executed < 256


class TestInvalidRegisters:
    """Out-of-range registers fault when executed, not when decoded."""

    @staticmethod
    def _program(body):
        from repro.isa import Instruction, Program

        instrs = [Instruction(Op.MOV32I, dst=0, imm=3), *body,
                  Instruction(Op.EXIT)]
        return Program(name="badreg", instructions=instrs, nregs=4)

    def test_never_executed_invalid_register_runs_cleanly(self, device):
        from repro.isa import Instruction

        prog = self._program([
            Instruction(Op.BRA, imm=3),               # skips the next pc
            Instruction(Op.IADD, dst=9, srcs=(0, 8)),
        ])
        res = device.launch(prog, 1, WARP_SIZE)
        assert res.instructions_executed == 3

    @pytest.mark.parametrize("instr, message", [
        (dict(op=Op.IADD, dst=1, srcs=(0, 9)), "read of R9 (nregs=4)"),
        (dict(op=Op.IADD, dst=9, srcs=(0, 0)), "write of R9 (nregs=4)"),
        (dict(op=Op.MOV32I, dst=7, imm=1), "write of R7 (nregs=4)"),
        (dict(op=Op.ISETP, srcs=(5, 0)), "read of R5 (nregs=4)"),
    ])
    def test_executed_invalid_register_raises(self, device, instr, message):
        from repro.common.exceptions import InvalidRegisterError
        from repro.isa import Instruction

        prog = self._program([Instruction(**instr)])
        with pytest.raises(InvalidRegisterError) as err:
            device.launch(prog, 1, 8)
        assert str(err.value) == message

    @pytest.mark.parametrize("instr", [
        dict(op=Op.LDS, dst=1, srcs=(0,), aux=3),     # no memory space 3
        dict(op=Op.S2R, dst=1, aux=15),               # no special reg 15
        dict(op=Op.ISETP, srcs=(0, 0), aux=int(CmpOp.MIN)),
    ])
    def test_invalid_selector_faults_only_when_executed(self, device, instr):
        from repro.common.exceptions import ReproError
        from repro.isa import Instruction

        skipped = self._program([Instruction(Op.BRA, imm=3),
                                 Instruction(**instr)])
        assert device.launch(skipped, 1, 8).instructions_executed == 3
        with pytest.raises((ValueError, ReproError)):
            device.launch(self._program([Instruction(**instr)]), 1, 8)

    def test_guarded_off_instruction_still_checks_registers(self, device):
        # the register file is addressed whatever the exec mask
        from repro.common.exceptions import InvalidRegisterError
        from repro.isa import PT, Instruction

        prog = self._program([
            Instruction(Op.IADD, dst=1, srcs=(0, 9), pred=PT, pred_neg=True)])
        with pytest.raises(InvalidRegisterError, match="read of R9"):
            device.launch(prog, 1, WARP_SIZE)


class TestDecodeCache:
    """The decode table lives on its Program and nowhere else."""

    @staticmethod
    def _build():
        k = KernelBuilder("cached", nregs=8)
        g = global_tid_x(k)
        v = k.reg()
        k.iadd(v, g, imm=3)
        k.gst(elem_addr(k, k.load_param(0), g), v)
        k.exit()
        return k.build()

    def test_program_unchanged_by_launch(self, device):
        import pickle

        prog = self._build()
        before = repr(prog)
        device.launch(prog, 1, WARP_SIZE, params=[device.alloc(WARP_SIZE)])
        assert "_decoded" in vars(prog)
        fresh = self._build()
        assert prog == fresh
        assert repr(prog) == before == repr(fresh)
        clone = pickle.loads(pickle.dumps(prog))
        assert clone == prog and "_decoded" not in vars(clone)

    def test_table_dies_with_its_program(self, device):
        import weakref

        prog = self._build()
        device.launch(prog, 1, WARP_SIZE, params=[device.alloc(WARP_SIZE)])
        ref = weakref.ref(vars(prog)["_decoded"])
        del prog
        assert ref() is None

    def test_replaced_instruction_list_is_redecoded(self, device):
        from dataclasses import replace

        prog = self._build()
        out = device.alloc(WARP_SIZE)
        device.launch(prog, 1, WARP_SIZE, params=[out])
        np.testing.assert_array_equal(device.read(out, WARP_SIZE),
                                      np.arange(WARP_SIZE) + 3)
        prog.instructions = [
            replace(i, imm=40) if i.op is Op.IADD and i.use_imm else i
            for i in prog.instructions]
        device.launch(prog, 1, WARP_SIZE, params=[out])
        np.testing.assert_array_equal(device.read(out, WARP_SIZE),
                                      np.arange(WARP_SIZE) + 40)


class TestSimInstructionCounter:
    """``sim_instructions_total`` counts every completed instruction."""

    @pytest.fixture
    def counter(self):
        from repro import obs

        obs.reset()
        obs.enable()
        yield obs.REGISTRY.counter("sim_instructions_total")
        obs.reset()

    def test_faulting_slice_counts_completed_instructions(self, device,
                                                          counter):
        from repro.common.exceptions import MemoryFaultError

        k = KernelBuilder("fault", nregs=8)
        a = k.mov32i_new(6)                   # misaligned byte address
        for _ in range(10):
            k.nop()
        v = k.reg()
        k.gld(v, a)
        k.exit()
        before = counter.total()
        with pytest.raises(MemoryFaultError, match="misaligned"):
            device.launch(k.build(), 1, WARP_SIZE)
        assert counter.total() - before == 11

    def test_counter_matches_launch_count(self, device, counter):
        k = KernelBuilder("cnt", nregs=4)
        k.nop()
        k.exit()
        before = counter.total()
        res = device.launch(k.build(), 2, 2 * WARP_SIZE)
        assert counter.total() - before == res.instructions_executed == 8


def _identity_reference(warp_in_cta, block, grid, cta_coord, sm_id):
    """A warp's alive mask and S2R sources, from first principles."""
    bx, by, bz = block
    n = bx * by * bz
    lin = warp_in_cta * WARP_SIZE + np.arange(WARP_SIZE)
    alive = lin < n
    lin = np.minimum(lin, n - 1)
    values = {
        SpecialReg.TID_X: lin % bx, SpecialReg.TID_Y: lin // bx % by,
        SpecialReg.TID_Z: lin // (bx * by),
        SpecialReg.LANEID: np.arange(WARP_SIZE),
        SpecialReg.WARPID: warp_in_cta, SpecialReg.SMID: sm_id,
    }
    for names, dims in (("CTAID", cta_coord), ("NTID", block),
                        ("NCTAID", grid)):
        for axis, d in zip("XYZ", dims):
            values[SpecialReg[f"{names}_{axis}"]] = d
    return alive, {s: np.broadcast_to(np.asarray(v, dtype=np.uint32),
                                      (WARP_SIZE,))
                   for s, v in values.items()}


def _s2r_kernel(sreg: SpecialReg):
    """``out[32·warp + lane] = <sreg>``; the address reads no register an
    S2R injector corrupts."""
    k = KernelBuilder("s2r", nregs=8)
    out = k.load_param(0)
    v = k.s2r_new(sreg)
    a = k.s2r_new(SpecialReg.WARPID)
    lane = k.s2r_new(SpecialReg.LANEID)
    k.shl(a, a, imm=5)
    k.iadd(a, a, lane)
    k.shl(a, a, imm=2)
    k.iadd(a, a, out)
    k.gst(a, v)
    k.exit()
    return k.build()


class TestWarpIdentity:
    """``WarpState`` takes its alive mask and S2R sources from a cached,
    read-only template of the launch geometry."""

    GEOMETRIES = [
        (0, (32, 1, 1), (1, 1, 1), (0, 0, 0), 0),
        (1, (17, 1, 1), (3, 1, 1), (2, 0, 0), 0),
        (2, (40, 3, 2), (5, 2, 3), (4, 1, 2), 1),
        (0, (5, 5, 1), (2, 2, 1), (1, 1, 0), 1),
    ]

    @staticmethod
    def _warp(warp_in_cta, block, grid, cta_coord, sm_id):
        k = KernelBuilder("id", nregs=4)
        k.exit()
        return WarpState(k.build(), 0, warp_in_cta, block, grid, cta_coord,
                         sm_id, 0, 0)

    @pytest.mark.parametrize("geometry", GEOMETRIES)
    def test_sources_match_the_geometry(self, geometry):
        w = self._warp(*geometry)
        alive, ref = _identity_reference(*geometry)
        assert np.array_equal(w.alive, alive)
        assert np.array_equal(w.stack[0].mask, alive)
        assert len(w.sregs) == len(SpecialReg)
        for s in SpecialReg:
            assert np.array_equal(w.sregs[s], ref[s]), s

    def test_template_vectors_are_read_only(self):
        a = self._warp(*self.GEOMETRIES[2])
        b = self._warp(*self.GEOMETRIES[2])
        assert a.sregs is b.sregs
        for v in a.sregs:
            with pytest.raises(ValueError, match="read-only"):
                v[0] = 7
        # the alive mask is the warp's own
        a.alive[0] = False
        assert b.alive[0] and b.stack[0].mask[0]

    def test_materialize_warp_keeps_the_identity(self):
        from repro.gpusim.snapshot import materialize_warp, snapshot_warp

        geometry = self.GEOMETRIES[1]
        w = self._warp(*geometry)
        w.alive[3] = False
        w.regs[:, 1] = 9
        clone = materialize_warp(snapshot_warp(w), w.program, *geometry[1:4])
        assert clone.sregs is w.sregs
        assert np.array_equal(clone.alive, w.alive)
        assert clone.alive is not w.alive
        assert np.array_equal(clone.regs, w.regs)

    @pytest.mark.parametrize("model, sreg", [
        (ErrorModel.IAT, SpecialReg.TID_X), (ErrorModel.IAW, SpecialReg.TID_X),
        (ErrorModel.IAC, SpecialReg.CTAID_X)])
    def test_s2r_injectors(self, device, model, sreg):
        # three CTAs write one output: CTA 2 (on SM 0) writes last, and
        # its warp 0 (sub-partition 0) is the victim; a plain launch after
        # the faulty one reads the templates unchanged
        from repro.swinjector import NVBitPERfi

        desc = ErrorDescriptor(model, thread_mask=0x0000FF0F, bit_err_mask=2)
        program = _s2r_kernel(sreg)
        out = device.alloc(4 * WARP_SIZE)
        _, ref = _identity_reference(0, (128, 1, 1), (3, 1, 1), (2, 0, 0), 0)
        want = np.concatenate([
            np.full(WARP_SIZE, 2) if sreg is SpecialReg.CTAID_X
            else np.arange(WARP_SIZE) + WARP_SIZE * w for w in range(4)])
        device.launch(program, 3, 128, params=(out,),
                      instrumentation=NVBitPERfi(desc))
        victims = np.zeros(4 * WARP_SIZE, dtype=bool)
        victims[:WARP_SIZE] = [(0x0000FF0F >> i) & 1 for i in range(32)]
        assert np.array_equal(device.read(out, 4 * WARP_SIZE),
                              np.where(victims, want ^ 2, want))
        device.launch(program, 3, 128, params=(out,))
        assert np.array_equal(device.read(out, 4 * WARP_SIZE), want)
        assert np.array_equal(ref[sreg], want[:WARP_SIZE])
