"""Property-based tests of the executor against a NumPy mirror.

Hypothesis generates random straight-line programs — full-warp ALU
sequences, and predicated programs on partial and multi-warp blocks —
that the simulator runs warp-wide and a direct NumPy model runs per
thread; results must match bit-exactly.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.bitops import float_to_bits
from repro.gpusim import Device, DeviceConfig
from repro.gpusim.alu import REPLACEABLE_OPS, eval_alu
from repro.isa import PT, RZ, CmpOp, Instruction, KernelBuilder, Op, SpecialReg
from repro.isa.opcodes import OPCODE_INFO, MemSpace
from repro.workloads.kutil import elem_addr, global_tid_x

NREGS_DATA = 6  # r0..r5 hold data

BIN_OPS = [Op.IADD, Op.ISUB, Op.IMUL, Op.AND, Op.OR, Op.XOR, Op.SHL, Op.SHR]

op_step = st.tuples(
    st.sampled_from(BIN_OPS),
    st.integers(0, NREGS_DATA - 1),   # dst
    st.integers(0, NREGS_DATA - 1),   # src a
    st.integers(0, NREGS_DATA - 1),   # src b
)


def _numpy_eval(ops, init: np.ndarray) -> np.ndarray:
    regs = [init[i].copy() for i in range(NREGS_DATA)]
    for op, d, a, b in ops:
        x, y = regs[a], regs[b]
        if op is Op.IADD:
            r = x + y
        elif op is Op.ISUB:
            r = x - y
        elif op is Op.IMUL:
            r = (x.astype(np.uint64) * y).astype(np.uint32)
        elif op is Op.AND:
            r = x & y
        elif op is Op.OR:
            r = x | y
        elif op is Op.XOR:
            r = x ^ y
        elif op is Op.SHL:
            r = x << (y & np.uint32(31))
        else:
            r = x >> (y & np.uint32(31))
        regs[d] = r
    return np.stack(regs)


@given(st.lists(op_step, min_size=1, max_size=20), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_random_alu_program_matches_numpy(ops, seed):
    rng = np.random.default_rng(seed)
    n = 32
    init = rng.integers(0, 2**32, size=(NREGS_DATA, n), dtype=np.uint64
                        ).astype(np.uint32)

    k = KernelBuilder("prop", nregs=32)
    g = global_tid_x(k)
    in_ptr = k.load_param(0)
    out_ptr = k.load_param(1)
    data = k.regs(NREGS_DATA)
    addr = k.reg()
    off = k.reg()
    k.shl(off, g, imm=2)
    for i, r in enumerate(data):
        # address = in_ptr + (i*n + g)*4
        k.mov32i(addr, i * n * 4)
        k.iadd(addr, addr, in_ptr)
        k.iadd(addr, addr, off)
        k.gld(r, addr)
    for op, d, a, b in ops:
        getattr(k, {
            Op.IADD: "iadd", Op.ISUB: "isub", Op.IMUL: "imul",
            Op.AND: "and_", Op.OR: "or_", Op.XOR: "xor",
            Op.SHL: "shl", Op.SHR: "shr",
        }[op])(data[d], data[a], data[b])
    for i, r in enumerate(data):
        k.mov32i(addr, i * n * 4)
        k.iadd(addr, addr, out_ptr)
        k.iadd(addr, addr, off)
        k.gst(addr, r)
    k.exit()

    dev = Device(DeviceConfig(global_mem_words=1 << 16))
    pin = dev.alloc_array(init)
    pout = dev.alloc(NREGS_DATA * n)
    dev.launch(k.build(), 1, n, params=[pin, pout])
    got = dev.read(pout, NREGS_DATA * n).reshape(NREGS_DATA, n)
    np.testing.assert_array_equal(got, _numpy_eval(ops, init))


# ----------------------------------------------------------------------
# Predicated code on partial and multi-warp blocks
# ----------------------------------------------------------------------
#
# Random programs of guarded ALU, SEL, ISETP/FSETP and shared-memory
# round-trip steps with RZ operands and immediates, on blocks whose last
# warp is partial (1, 17, 33 threads) or full (32, 64). Unguarded steps on
# full warps take the executor's whole-warp path; guarded steps and
# partial warps take the masked path. Both must match a per-thread NumPy
# mirror bit for bit, and every ALU step must also match ``eval_alu``.

_M32 = 0xFFFFFFFF
NDATA = 6            # R0..R5 hold data
NPRED = 4            # P0..P3 hold data-derived predicates
R_TID4, R_REV4, R_IN, R_OUT, R_T0, R_T1, R_ONE = range(NDATA, NDATA + 7)
REGIONS = 2          # shared-memory regions of one word per thread
CMPS = [CmpOp.LT, CmpOp.LE, CmpOp.GT, CmpOp.GE, CmpOp.EQ, CmpOp.NE]


def _mirror_alu(op, ops, aux):
    """Independent per-thread semantics of an ALU op on uint32 vectors."""
    a = ops[0] if ops else None
    b = ops[1] if len(ops) > 1 else None
    c = ops[2] if len(ops) > 2 else None
    i64, u64 = np.int64, np.uint64
    f32 = np.float32
    if op is Op.MOV:
        return a.copy()
    if op is Op.IADD:
        return ((a.astype(i64) + b) & _M32).astype(np.uint32)
    if op is Op.ISUB:
        return ((a.astype(i64) - b) & _M32).astype(np.uint32)
    if op is Op.IMUL:
        return ((a.astype(u64) * b) & u64(_M32)).astype(np.uint32)
    if op is Op.IMAD:
        return ((a.astype(u64) * b + c) & u64(_M32)).astype(np.uint32)
    if op is Op.IMNMX:
        x, y = a.view(np.int32), b.view(np.int32)
        pick = (x <= y) if aux == CmpOp.MIN else (x >= y)
        return np.where(pick, x, y).view(np.uint32)
    if op is Op.SHL:
        return ((a.astype(u64) << (b & 31).astype(u64)) & u64(_M32)
                ).astype(np.uint32)
    if op is Op.SHR:
        return a >> (b & 31)
    if op is Op.AND:
        return a & b
    if op is Op.OR:
        return a | b
    if op is Op.XOR:
        return a ^ b
    if op is Op.NOT:
        return (a ^ np.uint32(_M32)).astype(np.uint32)
    if op is Op.I2F:
        return a.view(np.int32).astype(f32).view(np.uint32)
    if op is Op.F2I:
        # NaN reads 0; anything at or beyond +-2**31 (the float32 clamp
        # bounds) lands on INT_MIN; everything else truncates toward zero
        f = a.view(f32).astype(np.float64)
        t = np.trunc(np.where(np.isnan(f), 0.0, f))
        sat = (t >= 2.0**31) | (t <= -(2.0**31))
        t = np.where(sat, -(2.0**31), t)
        return (t.astype(i64) & _M32).astype(np.uint32)
    fa = a.view(f32)
    fb = b.view(f32) if b is not None else None
    fc = c.view(f32) if c is not None else None
    if op is Op.FADD:
        r = fa + fb
    elif op is Op.FMUL:
        r = fa * fb
    elif op is Op.FFMA:
        r = (fa * fb) + fc
    elif op is Op.FMNMX:
        r = np.minimum(fa, fb) if aux == CmpOp.MIN else np.maximum(fa, fb)
    elif op is Op.FSIN:
        r = np.sin(fa)
    elif op is Op.FEXP:
        r = np.exp(fa)
    elif op is Op.FLOG:
        r = np.log(fa)
    elif op is Op.FRCP:
        r = np.float32(1.0) / fa
    else:
        assert op is Op.FSQRT
        r = np.sqrt(fa)
    return np.asarray(r, dtype=f32).view(np.uint32)


_CMP_FN = {CmpOp.LT: np.less, CmpOp.LE: np.less_equal,
           CmpOp.GT: np.greater, CmpOp.GE: np.greater_equal,
           CmpOp.EQ: np.equal, CmpOp.NE: np.not_equal}

_operand = st.one_of(st.integers(0, NDATA - 1), st.just(RZ))
_guard = st.one_of(st.none(), st.tuples(st.sampled_from([0, 1, 2, 3, PT]),
                                        st.booleans()))
_imm = st.one_of(st.integers(0, 2**32 - 1), st.integers(0, 40),
                 st.sampled_from([float_to_bits(x) for x in
                                  (0.5, -1.5, 3.0, 1e30, -0.0)]))


@st.composite
def _alu_step(draw):
    op = draw(st.sampled_from(REPLACEABLE_OPS))
    info = OPCODE_INFO[op]
    use_imm = info.may_use_imm and draw(st.booleans())
    nsrc = info.num_srcs - (1 if use_imm else 0)
    srcs = tuple(draw(_operand) for _ in range(nsrc))
    aux = int(draw(st.sampled_from([CmpOp.MIN, CmpOp.MAX])))
    return ("alu", op, draw(_operand), srcs, draw(_imm) if use_imm else None,
            aux, draw(_guard))


@st.composite
def _sel_step(draw):
    use_imm = draw(st.booleans())
    srcs = (draw(_operand),) if use_imm else (draw(_operand), draw(_operand))
    return ("sel", Op.SEL, draw(_operand), srcs,
            draw(_imm) if use_imm else None,
            draw(st.sampled_from([0, 1, 2, 3, PT])), draw(_guard))


@st.composite
def _setp_step(draw):
    op = draw(st.sampled_from([Op.ISETP, Op.FSETP]))
    use_imm = draw(st.booleans())
    srcs = (draw(_operand),) if use_imm else (draw(_operand), draw(_operand))
    return ("setp", op, draw(st.sampled_from([0, 1, 2, 3, PT])), srcs,
            draw(_imm) if use_imm else None,
            int(draw(st.sampled_from(CMPS))), draw(_guard))


@st.composite
def _shared_step(draw):
    # STS own slot of a region, BAR, LDS own or mirrored slot
    return ("shared", draw(st.integers(0, NDATA - 1)), draw(_operand),
            draw(st.integers(0, REGIONS - 1)), draw(st.booleans()),
            draw(_guard), draw(_guard))


_step = st.one_of(_alu_step(), _sel_step(), _setp_step(), _shared_step())


def _emit(k, op, dst, srcs, imm, aux, guard, pdst=PT, offset=0):
    pred, neg = guard if guard is not None else (PT, False)
    k.emit(Instruction(op, dst=dst, srcs=srcs,
                       imm=offset if imm is None else imm,
                       use_imm=imm is not None, aux=aux, pdst=pdst,
                       pred=pred, pred_neg=neg))


def _build(steps, block):
    k = KernelBuilder("prop_masked", nregs=16, shared_words=REGIONS * block)
    # identity and pointers
    k.s2r(R_T0, SpecialReg.TID_X)
    k.shl(R_TID4, R_T0, imm=2)
    k.mov32i(R_REV4, block - 1)
    k.isub(R_REV4, R_REV4, R_T0)
    k.shl(R_REV4, R_REV4, imm=2)
    k.ldc(R_IN, RZ, offset=0)
    k.ldc(R_OUT, RZ, offset=4)
    k.mov32i(R_ONE, 1)
    for i in range(NDATA):
        k.iadd(R_T1, R_IN, R_TID4)
        k.gld(i, R_T1, offset=4 * i * block)
    for p in range(NPRED):
        k.and_(R_T1, p, imm=1 << p)
        k.isetp(p, R_T1, RZ, cmp=CmpOp.NE)
    for s in steps:
        kind = s[0]
        if kind in ("alu", "sel"):
            _, op, dst, srcs, imm, aux, guard = s
            _emit(k, op, dst, srcs, imm, aux, guard)
        elif kind == "setp":
            _, op, pdst, srcs, imm, cmp, guard = s
            _emit(k, op, RZ, srcs, imm, cmp, guard, pdst=pdst)
        else:
            _, src, dst, region, mirrored, g_st, g_ld = s
            off = 4 * region * block
            _emit(k, Op.STS, RZ, (R_TID4, src), None, int(MemSpace.SHARED),
                  g_st, offset=off)
            k.bar()
            _emit(k, Op.LDS, dst, (R_REV4 if mirrored else R_TID4,), None,
                  int(MemSpace.SHARED), g_ld, offset=off)
            k.bar()
    # dump data registers, then predicates as 0/1
    for i in range(NDATA):
        k.iadd(R_T1, R_OUT, R_TID4)
        k.gst(R_T1, i, offset=4 * i * block)
    for p in range(NPRED):
        k.sel(R_T0, R_ONE, RZ, p)
        k.iadd(R_T1, R_OUT, R_TID4)
        k.gst(R_T1, R_T0, offset=4 * (NDATA + p) * block)
    k.exit()
    return k.build()


def _mirror(steps, init, block):
    regs = {i: init[i].copy() for i in range(NDATA)}
    preds = {p: (init[p] & np.uint32(1 << p)) != 0 for p in range(NPRED)}
    preds[PT] = np.ones(block, dtype=bool)
    shared = np.zeros(REGIONS * block, dtype=np.uint32)
    tid = np.arange(block)

    def read(r):
        return np.zeros(block, np.uint32) if r == RZ else regs[r]

    def exec_mask(guard):
        if guard is None:
            return np.ones(block, dtype=bool)
        p, neg = guard
        return ~preds[p] if neg else preds[p].copy()

    def write(r, vals, m):
        if r != RZ:
            regs[r] = np.where(m, vals, regs[r]).astype(np.uint32)

    for s in steps:
        kind = s[0]
        if kind == "shared":
            _, src, dst, region, mirrored, g_st, g_ld = s
            base = region * block
            m = exec_mask(g_st)
            shared[base + tid[m]] = regs[src][m]
            m = exec_mask(g_ld)
            slot = (block - 1 - tid) if mirrored else tid
            write(dst, shared[base + slot], m)
            continue
        _, op, dst, srcs, imm, aux, guard = s
        ops = [read(r) for r in srcs]
        if imm is not None:
            ops.append(np.full(block, imm, dtype=np.uint32))
        m = exec_mask(guard)
        if kind == "alu":
            want = _mirror_alu(op, ops, aux)
            np.testing.assert_array_equal(eval_alu(op, ops, aux), want,
                                          err_msg=f"eval_alu {op.name}")
            write(dst, want, m)
        elif kind == "sel":
            write(dst, np.where(preds[aux], ops[0], ops[1]), m)
        else:
            view = np.int32 if op is Op.ISETP else np.float32
            res = _CMP_FN[CmpOp(aux)](ops[0].view(view), ops[1].view(view))
            if dst != PT:  # setp steps carry their pdst in the dst slot
                preds[dst] = np.where(m, res, preds[dst])
    out = [regs[i] for i in range(NDATA)]
    out += [preds[p].astype(np.uint32) for p in range(NPRED)]
    return np.stack(out)


@given(st.lists(_step, min_size=1, max_size=14),
       st.sampled_from([1, 17, 32, 33, 64]),
       st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_predicated_program_matches_numpy_on_partial_warps(steps, block, seed):
    rng = np.random.default_rng(seed)
    init = rng.integers(0, 2**32, size=(NDATA, block), dtype=np.uint64
                        ).astype(np.uint32)
    init[1] = rng.integers(0, 64, size=block)          # small ints
    init[2] = rng.normal(0, 8, size=block).astype(np.float32).view(np.uint32)

    dev = Device(DeviceConfig(global_mem_words=1 << 14))
    pin = dev.alloc_array(init)
    pout = dev.alloc((NDATA + NPRED) * block)
    dev.launch(_build(steps, block), 1, block, params=[pin, pout])
    got = dev.read(pout, (NDATA + NPRED) * block).reshape(-1, block)
    with np.errstate(all="ignore"):
        want = _mirror(steps, init, block)
    np.testing.assert_array_equal(got, want)
