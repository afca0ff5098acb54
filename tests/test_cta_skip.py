"""The clean-CTA skip of the accelerated EPR replay.

After the first activation a faulty run still replays CTAs that the fault
cannot reach: NVBitPERfi's descriptors sit on SM 0, so a CTA on SM 1 that
reads only golden inputs redoes golden work.
:class:`repro.swinjector.accel._CleanCtas` writes such a CTA's golden
stores instead, from the per-CTA records of the reference run
(:class:`repro.campaign.goldens.CtaRecords`). Every test here replays one
``isa.builder`` workload cold and accelerated and asserts equal outcomes,
DUE reasons, activation counts and output bits; each refusal has a case
that goes wrong when its check is left out.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.campaign import goldens
from repro.campaign.goldens import cached_workload, reference_run
from repro.common.rng import DEFAULT_SEED
from repro.errormodels import ErrorDescriptor, ErrorModel
from repro.gpusim import Device, DeviceConfig
from repro.isa import RZ, CmpOp, KernelBuilder, MemSpace, Op, SpecialReg
from repro.swinjector import NVBitPERfi, accel
from repro.swinjector.accel import AccelStats
from repro.swinjector.campaign import replay_injection
from repro.workloads.base import Workload, WorkloadMeta, default_launcher

_MEM = 1 << 14
#: words of every buffer (the largest grid's threads, and slack a shifted
#: pointer stays inside)
_WORDS = 128
#: IMD on the shared store's data: the value a CTA on SM 0 stores is
#: corrupted, its addresses are not
_IMD = ErrorDescriptor(ErrorModel.IMD, bit_err_mask=1 << 3, err_oper_loc=0)
#: IIO: every immediate-consuming instruction on SM 0, pointers included,
#: moves by one word
_IIO = ErrorDescriptor(ErrorModel.IIO, bit_err_mask=1 << 2)


def _map_kernel(name: str = "map", shared: int = 32, spread: bool = False,
                clear: int = 0):
    """``dst[g] = (src[g] & ~clear) + 1`` for global thread ``g``, through
    shared word ``tid`` (``g`` with *spread*); with *spread* it adds
    ``nctaid * 256 + ntid``, so its output depends on the launch
    geometry."""
    k = KernelBuilder(name, nregs=16, shared_words=shared)
    src, dst = k.load_param(0), k.load_param(1)
    t, c = k.s2r_tid_x(), k.s2r_ctaid_x()
    ntid = k.s2r_new(SpecialReg.NTID_X)
    g = k.reg()
    k.imad(g, c, ntid, t)
    a = k.reg()
    k.shl(a, g, imm=2)
    v, at = k.reg(), k.reg()
    k.iadd(at, a, src)
    k.gld(v, at)
    sh = k.reg()
    k.shl(sh, g if spread else t, imm=2)
    k.sts(sh, v)
    k.bar()
    k.lds(v, sh)
    if clear:
        k.and_(v, v, imm=~clear & 0xFFFFFFFF)
    k.iadd(v, v, imm=1)
    if spread:
        n = k.s2r_new(SpecialReg.NCTAID_X)
        k.shl(n, n, imm=8)
        k.iadd(v, v, n)
        k.iadd(v, v, ntid)
    k.iadd(at, a, dst)
    k.gst(at, v)
    k.exit()
    return k.build()


def _reader_kernel():
    """``out[g] = c[3] + g``: constant word 3 lies past its one parameter."""
    k = KernelBuilder("reader", nregs=8)
    out, word = k.load_param(0), k.load_param(3)
    t, c = k.s2r_tid_x(), k.s2r_ctaid_x()
    g = k.reg()
    k.shl(g, c, imm=5)
    k.iadd(g, g, t)
    v = k.reg()
    k.iadd(v, word, g)
    k.shl(g, g, imm=2)
    k.iadd(g, g, out)
    k.gst(g, v)
    k.exit()
    return k.build()


def _rewrite_kernel():
    """Thread ``tid < 16`` of CTA ``c`` stores ``tid + 100c`` to ``buf[32(1
    - c) + tid]`` and loads it back; every thread stores its value plus
    one to ``out[32c + tid]``. A word a CTA loads is one it wrote first."""
    k = KernelBuilder("rewrite", nregs=12)
    buf, out = k.load_param(0), k.load_param(1)
    t, c = k.s2r_tid_x(), k.s2r_ctaid_x()
    low = k.pred()
    k.isetp(low, t, imm=16, cmp=CmpOp.LT)
    v, a = k.reg(), k.reg()
    k.imul(v, c, imm=100)
    k.iadd(v, v, t)
    k.isub(a, t, imm=-32)          # 32 + tid
    k.shl(v, c, imm=5)
    k.isub(a, a, v)                # 32(1 - c) + tid
    k.imul(v, c, imm=100)
    k.iadd(v, v, t)
    k.shl(a, a, imm=2)
    k.iadd(a, a, buf)
    k.gst(a, v, pred=low)
    k.gld(v, a, pred=low)
    k.iadd(v, v, imm=1)
    k.shl(a, c, imm=5)
    k.iadd(a, a, t)
    k.shl(a, a, imm=2)
    k.iadd(a, a, out)
    k.gst(a, v)
    k.exit()
    return k.build()


def _spin_kernel():
    """``out[g] = sum(range(n))``, ``n`` the first parameter."""
    k = KernelBuilder("spin", nregs=12)
    n, out = k.load_param(0), k.load_param(1)
    t, c = k.s2r_tid_x(), k.s2r_ctaid_x()
    i, acc = k.mov32i_new(0), k.mov32i_new(0)
    p = k.pred()
    with k.loop() as lp:
        k.isetp(p, i, n, cmp=CmpOp.GE)
        lp.break_if(p)
        k.iadd(acc, acc, i)
        k.iadd(i, i, imm=1)
    g = k.reg()
    k.shl(g, c, imm=5)
    k.iadd(g, g, t)
    k.shl(g, g, imm=2)
    k.iadd(g, g, out)
    k.gst(g, acc)
    k.exit()
    return k.build()


def _param_kernel():
    """``out[g] = sum(range(n))`` in CTA 0 and ``x`` in the other CTAs,
    for parameters ``(n, out, x)``; ``x`` is loaded after the loop."""
    k = KernelBuilder("param", nregs=12)
    n, out = k.load_param(0), k.load_param(1)
    t, c = k.s2r_tid_x(), k.s2r_ctaid_x()
    first, p = k.pred(), k.pred()
    k.isetp(first, c, imm=0, cmp=CmpOp.EQ)
    k.sel(n, n, RZ, first)
    i, acc = k.mov32i_new(0), k.mov32i_new(0)
    with k.loop() as lp:
        k.isetp(p, i, n, cmp=CmpOp.GE)
        lp.break_if(p)
        k.iadd(acc, acc, i)
        k.iadd(i, i, imm=1)
    x = k.load_param(2)
    k.sel(acc, acc, x, first)
    g = k.reg()
    k.shl(g, c, imm=5)
    k.iadd(g, g, t)
    k.shl(g, g, imm=2)
    k.iadd(g, g, out)
    k.gst(g, acc)
    k.exit()
    return k.build()


class _App(Workload):
    """The kernels *programs* driven by ``host(device, launcher, programs)``,
    which returns the output bits. Keeps its last bits and the digest of
    global memory where the run ended."""

    meta = WorkloadMeta("cta-skip", "int32", "test", "isa.builder")
    scales = {"tiny": {}}

    def __init__(self, programs: dict, host):
        self._kernels, self.host = programs, host
        self.bits = self.memory = None
        super().__init__("tiny")

    def _init_data(self) -> None:
        pass

    def _build_programs(self):
        return dict(self._kernels)

    def run(self, device, launcher):
        self.bits = None
        try:
            self.bits = self.host(device, launcher, self.programs())
        finally:
            g = device.global_mem
            self.memory = hashlib.sha256(g.data[:g.extent]).hexdigest()
        return self.bits


def _buffers(device, n: int) -> list[int]:
    """*n* buffers of :data:`_WORDS` words with a pad before each; the
    first holds ``7 * i``."""
    out = []
    for j in range(n):
        device.alloc(_WORDS)
        out.append(device.alloc(_WORDS))
    device.write(out[0], 7 * np.arange(_WORDS, dtype=np.uint32))
    return out


def _replay(w: _App, desc, watchdog: int | None = None, tool=None):
    """Replay *desc* on *w* cold and accelerated (with *tool*, if given),
    assert they agree, and return ``(cold outcome, accelerated stats,
    (cold, fast) memory)``."""
    golden, trace = reference_run(w, _MEM, traced_key="")
    if watchdog is None:
        watchdog = 4 * golden.dynamic_instructions + 2_048
    cold = replay_injection(w, desc, golden.bits, watchdog, _MEM)
    bits, memory = w.bits, w.memory
    stats = AccelStats()
    fast = replay_injection(w, desc, golden.bits, watchdog, _MEM, trace,
                            stats, tool=tool)
    assert fast == cold
    assert (w.bits is None) == (bits is None)
    if bits is not None:
        np.testing.assert_array_equal(w.bits, bits)
    return cold, stats, (memory, w.memory)


def _swapped(prog):
    """*prog* with each global or constant access under another op of its
    kind (``GLD`` -> ``LDS``, ``GST`` -> ``STS``, ``LDC`` -> ``GLD``) and
    its ``aux`` kept: the executor takes the space from ``aux``, so the
    program does what *prog* does. (The builder never emits such a
    pair.)"""
    swap = {(Op.GLD, MemSpace.GLOBAL): Op.LDS, (Op.GST, MemSpace.GLOBAL):
            Op.STS, (Op.LDC, MemSpace.CONSTANT): Op.GLD}
    return dataclasses.replace(prog, instructions=[
        dataclasses.replace(i, op=swap.get((i.op, i.aux), i.op))
        for i in prog.instructions])


def _map_app(grid: int, chained: bool = False, clear: int = 0,
             swapped: bool = False) -> _App:
    """One launch of :func:`_map_kernel` over *grid* CTAs: from the input
    buffer to the output, or (*chained*) from each CTA's slice of one
    buffer to the next CTA's slice; with *swapped*, its
    :func:`_swapped` form."""
    def host(device, launch, progs):
        src, dst = _buffers(device, 2)
        if chained:
            dst = src + 4 * 32
        launch(progs["map"], grid=grid, block=32, params=(src, dst))
        return device.read(dst, 32 * grid)
    prog = _map_kernel(clear=clear)
    return _App({"map": _swapped(prog) if swapped else prog}, host)


class TestSkip:
    @pytest.mark.parametrize("desc", [_IMD, _IIO], ids=["IMD", "IIO"])
    def test_clean_ctas_on_sm1_are_skipped(self, desc):
        cold, stats, _ = _replay(_map_app(6), desc)
        assert cold.outcome == "sdc" and cold.activations
        # CTAs 1, 3 and 5 run on SM 1 and read only the input
        assert stats.cta_skips == 3

    @pytest.mark.parametrize("chained", [False, True])
    def test_accesses_are_told_apart_by_space(self, chained):
        # the map kernel reads global memory with LDS and its parameters
        # with GLD: a chained CTA's corrupted live-in is still seen
        w = _map_app(6, chained=chained, swapped=True)
        assert {i.op for i in w.programs()["map"].instructions
                if i.aux != MemSpace.SHARED} >= {Op.LDS, Op.STS, Op.GLD}
        cold, stats, _ = _replay(w, _IIO)
        assert cold.outcome == "sdc"
        assert stats.cta_skips == (0 if chained else 3)

    def test_ctas_before_the_first_site_are_skipped(self):
        # the fault sits on SM 0's slot 3, which only the last CTA of the
        # third launch takes. Between launches the host allocates, and
        # passes the first launch's readback to the second as a
        # parameter: every CTA before the site's is golden all the same,
        # so each one is skipped and not one of its instructions runs
        ran = set()

        class Logged(NVBitPERfi):
            def table(self, warp, decoded):
                ran.add((warp.program.name, warp.cta))
                return super().table(warp, decoded)

        def host(device, launch, progs):
            src, out = _buffers(device, 2)
            launch(progs["map"], grid=2, block=32, params=(src, out))
            x = int(device.read(out, 1)[0])
            out2 = device.alloc(_WORDS)
            launch(progs["param"], grid=2, block=32, params=(50, out2, x))
            out3 = device.alloc(_WORDS)
            launch(progs["last"], grid=3, block=32, params=(src, out3))
            return np.concatenate((device.read(out2, 64),
                                   device.read(out3, 96)))

        w = _App({"map": _map_kernel(), "param": _param_kernel(),
                  "last": _map_kernel("last")}, host)
        desc = dataclasses.replace(_IMD, warp_slots=frozenset({3}))
        _, trace = reference_run(w, _MEM, traced_key="")
        progs = {p.name: p for p in w.programs().values()}
        sites = accel.activation_sites(trace, desc, NVBitPERfi(desc).injector,
                                       progs)
        row, c = trace.cta_row(2, 2), trace.ctas
        assert row == 6
        assert c.start[row] <= sites[0] < c.start[row] + c.count[row]
        cold, stats, _ = _replay(w, desc, tool=Logged(desc))
        assert cold.outcome == "sdc" and cold.activations == 1
        assert stats.cta_skips == row
        assert ran == {("last", 2)}

    def test_saved_instructions_count_the_skipped_ctas(self):
        w = _map_app(6)
        _, trace = reference_run(w, _MEM, traced_key="")
        _, stats, _ = _replay(w, _IMD)
        assert stats.saved_instructions == \
            int(trace.ctas.count[[1, 3, 5]].sum())


class TestRefusals:
    @pytest.mark.parametrize("desc", [_IMD, _IIO], ids=["IMD", "IIO"])
    def test_corrupted_live_in(self, desc):
        # each CTA reads the slice the one before it wrote: SM 0's
        # corrupted stores are live-ins of the SM 1 CTA after it
        cold, stats, _ = _replay(_map_app(4, chained=True), desc)
        assert cold.outcome == "sdc"
        assert stats.cta_skips == 0

    def test_constant_word_left_by_an_earlier_launch(self):
        # the host passes a corrupted readback as a fourth parameter of
        # one launch; the next kernel takes one parameter and reads
        # constant word 3, left behind
        def host(device, launch, progs):
            src, out, out2, out3 = _buffers(device, 4)
            launch(progs["map"], grid=2, block=32, params=(src, out))
            x = int(device.read(out, 1)[0])
            launch(progs["map"], grid=2, block=32, params=(src, out2, 0, x))
            launch(progs["reader"], grid=2, block=32, params=(out3,))
            return device.read(out3, 64)

        w = _App({"map": _map_kernel(), "reader": _reader_kernel()}, host)
        cold, stats, _ = _replay(w, _IMD)
        assert cold.outcome == "sdc"
        # CTA 1 of both map launches; neither reader CTA
        assert stats.cta_skips == 2

    @pytest.mark.parametrize("change", ["grid", "block", "shared_words"])
    def test_host_loop_changes_the_launch_shape(self, change):
        # the second launch's shape depends on a readback the fault
        # corrupts: golden CTA records describe another launch
        def host(device, launch, progs):
            src, out, out2 = _buffers(device, 3)
            launch(progs["map"], grid=2, block=32, params=(src, out))
            shape = {"grid": 2, "block": 32, "shared_words": None}
            if int(device.read(out, 1)[0]) != 1:   # golden: 7 * 0 + 1
                shape[change] = {"grid": 3, "block": 16,
                                 "shared_words": 32}[change]
            launch(progs["spread"], params=(src, out2), **shape)
            return device.read(out2, 128)

        w = _App({"map": _map_kernel(),
                  "spread": _map_kernel("spread", 128, spread=True)}, host)
        cold, stats, _ = _replay(w, _IMD)
        # a 32-word shared memory is too small for CTA 1
        assert cold.outcome == ("due" if change == "shared_words" else "sdc")
        # CTA 1 of the first launch only
        assert stats.cta_skips == 1

    def test_slot_counters_moved_by_an_earlier_launch(self):
        # the fault sits on SM 0's slots 0 and 3. A corrupted readback
        # makes the host launch three CTAs where golden launched one, so
        # the last launch's CTA takes slot 3, not golden's slot 2: it
        # activates, though its golden CTA has no site
        def host(device, launch, progs):
            src, out, out2, out3 = _buffers(device, 4)
            launch(progs["map"], grid=1, block=32, params=(src, out))
            grid = 1 if int(device.read(out, 1)[0]) == 1 else 3
            launch(progs["map"], grid=grid, block=32, params=(src, out2))
            launch(progs["map"], grid=1, block=32, params=(src, out3))
            return np.concatenate((device.read(out, 32),
                                   device.read(out3, 32)))

        w = _App({"map": _map_kernel()}, host)
        desc = ErrorDescriptor(ErrorModel.IMD, warp_slots=frozenset({0, 3}),
                               bit_err_mask=1 << 3)
        cold, stats, _ = _replay(w, desc)
        assert cold.outcome == "sdc" and cold.activations == 2
        assert stats.cta_skips == 0

    def test_site_inside_the_cta(self):
        # the fault sits on SM 1: the second launch's CTA 1 reads golden
        # inputs but activates
        def host(device, launch, progs):
            src, out, out2 = _buffers(device, 3)
            launch(progs["map"], grid=2, block=32, params=(src, out))
            launch(progs["map"], grid=2, block=32, params=(src, out2))
            return np.concatenate((device.read(out, 64),
                                   device.read(out2, 64)))

        w = _App({"map": _map_kernel()}, host)
        desc = ErrorDescriptor(ErrorModel.IMD, sm_id=1, bit_err_mask=1 << 3)
        cold, stats, _ = _replay(w, desc)
        assert cold.outcome == "sdc" and cold.activations == 2
        # CTA 0 of both launches
        assert stats.cta_skips == 2

    def test_crossing_the_watchdog(self):
        # IMS turns CTA 0's trip count from 100 into 1124 (and moves its
        # output pointer by 256 words): CTA 1, clean, starts so late that
        # the cold replay times out in its first slice, before its store
        def host(device, launch, progs):
            device.alloc(512)
            out = device.alloc(512)
            device.alloc(512)
            launch(progs["spin"], grid=2, block=32, params=(100, out))
            return device.read(out, 64)

        w = _App({"spin": _spin_kernel()}, host)
        desc = ErrorDescriptor(ErrorModel.IMS, bit_err_mask=1 << 10)
        _, trace = reference_run(w, _MEM, traced_key="")
        dev = Device(DeviceConfig(global_mem_words=_MEM))
        counts = []
        launch = default_launcher(dev, instrumentation=NVBitPERfi(desc))
        w.run(dev, lambda *a, **k: counts.append(
            launch(*a, **k).instructions_executed))
        n = int(trace.ctas.count[1])
        assert n > 256 and counts[0] - n > trace.total_instructions
        cold, stats, (memory, fast) = _replay(w, desc, counts[0] - n + 100)
        assert (cold.outcome, cold.due_reason) == ("due", "watchdog-timeout")
        assert stats.cta_skips == 0
        # CTA 1's store never ran
        assert fast == memory

    def test_word_written_before_read_is_no_live_in(self):
        # the first launch's CTA 0 corrupts buf[0:32]; in the second, CTA
        # 1 stores to half of those words before it loads them
        def host(device, launch, progs):
            src, buf, out = _buffers(device, 3)
            launch(progs["map"], grid=2, block=32, params=(src, buf))
            launch(progs["rewrite"], grid=2, block=32, params=(buf, out))
            return np.concatenate((device.read(buf, 64),
                                   device.read(out, 64)))

        w = _App({"map": _map_kernel(), "rewrite": _rewrite_kernel()}, host)
        cold, stats, _ = _replay(w, _IMD)
        assert cold.outcome == "sdc"
        # CTA 1 of the map launch, and both rewrite CTAs
        assert stats.cta_skips == 3


class TestReconvergedRun:
    """Runs whose device state reconverges with golden once the last
    activation site has passed. The clean-CTA skip ends such a run; what
    differs from golden outside global memory (a word the host holds, a
    kernel parameter) keeps the run an SDC."""

    def test_reconverged_run_ends_in_skips(self):
        # the corrupted bit is cleared again: the run is Masked, and CTA
        # 3, past the last site in CTA 2, is skipped like CTA 1
        w = _map_app(4, clear=_IMD.bit_err_mask)
        _, trace = reference_run(w, _MEM, traced_key="")
        progs = {p.name: p for p in w.programs().values()}
        sites = accel.activation_sites(trace, _IMD,
                                       NVBitPERfi(_IMD).injector, progs)
        c = trace.ctas
        assert c.start[2] <= sites[-1] < c.start[3]
        cold, stats, _ = _replay(w, _IMD)
        assert cold.outcome == "masked" and cold.activations == 2
        assert stats.cta_skips == 2

    def test_readback_the_host_holds(self):
        # the host keeps a corrupted readback in its output and clears
        # the buffer: global memory is golden again, the output is not
        def host(device, launch, progs):
            src, out, out2 = _buffers(device, 3)
            launch(progs["map"], grid=2, block=32, params=(src, out))
            held = device.read(out, 64)
            device.write(out, np.zeros(64, dtype=np.uint32))
            launch(progs["spin"], grid=2, block=32, params=(200, out2))
            return np.concatenate((held, device.read(out2, 64)))

        w = _App({"map": _map_kernel(), "spin": _spin_kernel()}, host)
        cold, stats, _ = _replay(w, _IMD)
        assert cold.outcome == "sdc" and cold.activations == 1
        # CTA 1 of the map launch, both spin CTAs
        assert stats.cta_skips == 3

    def test_readback_passed_as_a_kernel_parameter(self):
        # a corrupted readback becomes a parameter, in constant memory:
        # CTA 0 spins, CTA 1 stores the parameter
        def host(device, launch, progs):
            src, out, out2 = _buffers(device, 3)
            launch(progs["map"], grid=1, block=32, params=(src, out))
            x = int(device.read(out, 1)[0])
            device.write(out, np.zeros(32, dtype=np.uint32))
            launch(progs["param"], grid=2, block=32, params=(200, out2, x))
            return device.read(out2, 64)

        w = _App({"map": _map_kernel(), "param": _param_kernel()}, host)
        cold, stats, _ = _replay(w, _IMD)
        assert cold.outcome == "sdc" and cold.activations == 1
        # both param CTAs load the corrupted parameter
        assert stats.cta_skips == 0


_LOAD_OPS, _STORE_OPS = (Op.GLD, Op.LDS, Op.LDC), (Op.GST, Op.STS)


class _AccessLog:
    """Reference recorder: each global and constant access, lane by lane,
    into per-CTA dicts (``gld``/``ldc``: live-in word -> value; ``gst``:
    word -> value at CTA end). An access is one of a load or store op,
    its space the instruction's ``aux``, as the executor resolves it."""

    def __init__(self):
        self.rows: list[dict] = []
        self._warps = None

    def round_hook(self, cta, executed, warps, shared_mem):
        if warps is not self._warps:     # held, so never a reused id
            self._warps = warps
            self.rows.append({"gld": {}, "ldc": {}, "gst": {},
                              "seen": set()})

    def table(self, warp, decoded):
        steps = list(decoded.steps)
        for pc, (step, guard, neg, instr) in enumerate(steps):
            if (instr.op in (*_LOAD_OPS, *_STORE_OPS)
                    and instr.aux != MemSpace.SHARED):
                steps[pc] = (self._wrap(step, instr), guard, neg, instr)
        return steps

    def _wrap(self, step, instr):
        store = instr.op in _STORE_OPS

        def logged(w, m, active, top, env):
            base = w.cols[instr.srcs[0]].copy()
            data = w.cols[instr.srcs[1]].copy() if store else None
            res = step(w, m, active, top, env)
            row = self.rows[-1]
            for lane in range(32) if m is None else np.flatnonzero(m):
                word = ((int(base[lane]) + instr.imm) & 0xFFFFFFFF) >> 2
                if store:
                    row["gst"][word] = int(data[lane])
                    row["seen"].add(word)
                elif instr.aux == MemSpace.CONSTANT:
                    row["ldc"].setdefault(word, int(res[lane]))
                elif word not in row["seen"]:
                    row["gld"][word] = int(res[lane])
                    row["seen"].add(word)
            return res
        return logged


def _fuzz_apps():
    from tests.test_fault_fuzz import _MEM_WORDS, _FuzzApp, _spec

    return [(_FuzzApp(_spec(seed)), _MEM_WORDS) for seed in (0, 3, 7, 11)]


class TestCtaRecords:
    @pytest.mark.parametrize("case", ["bfs", "gaussian", "lenet", "fuzz",
                                      "swapped"])
    def test_records_match_a_lane_by_lane_log(self, case):
        if case == "fuzz":
            apps = _fuzz_apps()
        elif case == "swapped":
            apps = [(_map_app(4, swapped=True), _MEM)]
        else:
            apps = [(cached_workload(case, "tiny", DEFAULT_SEED),
                     goldens.DEFAULT_MEM_WORDS)]
        for w, mem_words in apps:
            _, trace = reference_run(w, mem_words, traced_key="")
            log = _AccessLog()
            dev = Device(DeviceConfig(global_mem_words=mem_words))
            w.run(dev, default_launcher(dev, instrumentation=log,
                                        round_hook=log.round_hook))
            c = trace.ctas
            assert len(log.rows) == c.start.size == trace.cta_row(
                len(trace.launches), 0)
            for r, want in enumerate(log.rows):
                for name in ("gld", "ldc", "gst"):
                    ptr = getattr(c, f"{name}_ptr")
                    lo, hi = ptr[r], ptr[r + 1]
                    words = getattr(c, f"{name}_word")[lo:hi]
                    assert list(words) == sorted(want[name]), (r, name)
                    assert getattr(c, f"{name}_val")[lo:hi].tolist() == \
                        [want[name][x] for x in words.tolist()], (r, name)
            # CTAs run back to back; each launch's rows add up to it
            assert c.start.tolist() == np.cumsum(
                [0, *c.count[:-1]]).tolist()
            for m, rec in enumerate(trace.launches):
                rows = slice(trace.cta_row(m, 0), trace.cta_row(m + 1, 0))
                assert c.start[rows][0] == rec.start_index
                assert c.count[rows].sum() == rec.instructions_executed

    @pytest.mark.parametrize("guarded", [False, True])
    def test_ctas_that_touch_no_memory(self, guarded):
        # no memory step, or one store that runs on no lane
        k = KernelBuilder("idle", nregs=4)
        if guarded:
            p = k.pred()
            k.isetp(p, RZ, imm=0, cmp=CmpOp.NE)
            k.gst(RZ, RZ, pred=p)
        k.exit()

        def host(device, launch, progs):
            launch(progs["idle"], grid=3, block=32)
            return np.zeros(1, dtype=np.uint32)

        _, trace = reference_run(_App({"idle": k.build()}, host), _MEM,
                                 traced_key="")
        c = trace.ctas
        assert c.count.tolist() == [3 if guarded else 1] * 3
        for name in ("gld", "ldc", "gst"):
            assert getattr(c, f"{name}_ptr").tolist() == [0, 0, 0, 0]
            assert not getattr(c, f"{name}_word").size
