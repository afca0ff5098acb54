"""Warp-wide SIMT executor with a decode-once dispatch.

Each instruction executes for all 32 lanes of a warp at once on NumPy
vectors (the natural SIMT formulation, and ~100x faster than a per-thread
interpreter — see ``benchmarks/test_bench_ablation.py``). Divergence is
handled with the classic reconvergence stack: a divergent branch replaces
the top-of-stack continuation with the reconvergence PC and pushes one
entry per side; an entry pops when its PC reaches its reconvergence point
or its threads all exit.

Decode once. :func:`decode` compiles a :class:`Program` into one step
closure per pc, with the register indices, immediate vectors, S2R source,
compare ufunc, memory space and ALU kernel (from the op -> kernel table
of :mod:`repro.gpusim.alu`, shared with the error injectors) bound up
front. The table is cached on the program object and rebuilt when its
``instructions`` list, ``nregs`` or ``name`` change. An instruction that
names an out-of-range register decodes to a checked step, so
:class:`~repro.common.exceptions.InvalidRegisterError` is raised when —
and only when — it executes.

One loop. :meth:`WarpExecutor.run_slice` steps a warp through a table
read once per slice: the decode table, or the one the instrumentation
hands out for the warp. A fault tool compiles its behaviour into the
steps of the pcs it can corrupt (NVBitPERfi its error functions, the RTL
tool its stuck-at sites); every other pc keeps its plain step. Tracing
is such a tool too: :class:`Tracer` wraps every step of the table under
it. The instrumentation is the loop's one per-instruction extension
point, and each tool files its tables in a :class:`TableCache`.

Whole-warp fast path. The loop caches the top-of-stack entry and its
active mask between *events* that can change them: slice entry, a
divergent ``BRA`` push, a reconvergence pop, ``EXIT``, ``BAR`` and a
fault site that returns ``_SYNC``. While every lane is alive and the
top-of-stack mask is full, unguarded instructions write whole register
columns and skip the mask reductions (docs/PERFORMANCE.md, "Decode-once
executor").
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, replace
from typing import Callable, Protocol

import numpy as np

from repro.obs.metrics import REGISTRY as _OBS_REGISTRY
from repro.common.exceptions import (
    ControlFlowCorruptionError,
    InvalidRegisterError,
    ReproError,
    WatchdogTimeoutError,
)
from repro.gpusim.alu import REPLACEABLE_OPS, alu_kernel
from repro.isa.instruction import Instruction, PT, RZ
from repro.isa.opcodes import CmpOp, MemSpace, Op, SpecialReg
from repro.isa.program import Program

WARP_SIZE = 32

_U32 = np.uint32

#: dynamic instructions across every launch; incremented once per
#: executed slice (<=256 instructions), so the disabled-mode cost is one
#: flag check per slice, far below the <5% observability budget. A slice
#: that ends in a DeviceError still counts the instructions it completed,
#: so the counter equals the sum of ``WarpState.instructions_executed``.
_SIM_INSTRUCTIONS = _OBS_REGISTRY.counter("sim_instructions_total")


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@functools.lru_cache(maxsize=4096)
def _const(value: int) -> np.ndarray:
    """Read-only warp vector of *value*, shared by every decode table."""
    return _frozen(np.full(WARP_SIZE, value, dtype=_U32))


_FULL = _frozen(np.ones(WARP_SIZE, dtype=bool))
_ZEROS = _const(0)
_LANES = _frozen(np.arange(WARP_SIZE, dtype=_U32))
#: a fresh warp's predicate file: only ``PT`` holds
_PREDS = np.zeros((WARP_SIZE, 8), dtype=bool)
_PREDS[:, PT] = True
_frozen(_PREDS)

#: returned by a step that changed the stack, the alive mask or the
#: barrier flag: the slice loop re-derives its cached state
_SYNC = object()


@dataclass(slots=True)
class _StackEntry:
    """One SIMT reconvergence-stack entry."""

    reconv_pc: int | None
    next_pc: int
    mask: np.ndarray  # bool (32,)


class Instrumentation(Protocol):
    """A fault or tracing tool: it hands out the step table each slice of
    a warp runs, ``decoded.steps`` (see :func:`decode`) with the steps of
    the pcs it acts on wrapped."""

    def table(self, warp: "WarpState", decoded: "_Decoded") -> list: ...


class TableCache:
    """A tool's compiled step tables, filed by ``(id(decode table), key)``.
    An entry holds its decode table and *pin* (the object *key* names by
    id, if any), so neither id is reused while the entry lives."""

    __slots__ = ("_held",)

    def __init__(self):
        self._held: dict[tuple, tuple] = {}

    def table(self, decoded: "_Decoded", key, build: Callable[[], list],
              pin=None) -> list:
        """The table filed under (*decoded*, *key*); ``build()`` makes it
        on a miss."""
        held = self._held.get((id(decoded), key))
        if held is None or held[0] is not decoded or held[1] is not pin:
            held = self._held[id(decoded), key] = (decoded, pin, build())
        return held[2]


def _traced(step, fn, pc: int, instr: Instruction):
    def traced(w, m, active, top, env):
        res = step(w, m, active, top, env)
        fn(w, pc, instr, m)
        return res
    return traced


class Tracer:
    """A tracing tool: ``fn(warp, pc, instr, m)`` runs after every step a
    warp completes, with the exec mask the step got (``None``: all 32
    lanes; read-only). The steps traced are those of *tool*'s table, or
    of the decode table without one; a step that raises is not traced."""

    def __init__(self, fn: Callable, tool: Instrumentation | None = None):
        self.fn = fn
        self.tool = tool
        self._tables = TableCache()

    def table(self, warp: "WarpState", decoded: "_Decoded") -> list:
        inner = (decoded.steps if self.tool is None
                 else self.tool.table(warp, decoded))
        fn = self.fn
        return self._tables.table(decoded, id(inner), lambda: [
            (_traced(step, fn, pc, instr), guard, neg, instr)
            for pc, (step, guard, neg, instr) in enumerate(inner)],
            pin=inner)


class _Columns(dict):
    """Column views of a (32, n) register file, made on first use."""

    __slots__ = ("_file",)

    def __init__(self, file: np.ndarray, zero=None):
        super().__init__()
        self._file = file
        if zero is not None:
            self[RZ] = zero

    def __missing__(self, r: int) -> np.ndarray:
        col = self[r] = self._file[:, r]
        return col


@functools.lru_cache(maxsize=64)
def _threads(warp_in_cta: int, block_dim: tuple[int, int, int]):
    """Read-only ``(alive, tid.x, tid.y, tid.z)`` of warp *warp_in_cta*
    of a block of *block_dim* threads (a lane past the block reads the
    last thread's index)."""
    bx, by, bz = block_dim
    nthreads = bx * by * bz
    lin = warp_in_cta * WARP_SIZE + np.arange(WARP_SIZE, dtype=np.int64)
    lin_c = np.minimum(lin, max(nthreads - 1, 0))
    return (_frozen(lin < nthreads), _frozen((lin_c % bx).astype(_U32)),
            _frozen(((lin_c // bx) % by).astype(_U32)),
            _frozen((lin_c // (bx * by)).astype(_U32)))


@functools.lru_cache(maxsize=1024)
def _identity(warp_in_cta: int, block_dim: tuple[int, int, int],
              grid_dim: tuple[int, int, int], cta_coord: tuple[int, int, int],
              sm_id: int):
    """A warp's identity template: its read-only initial alive mask and
    S2R source vectors indexed by ``SpecialReg`` value. Both depend on
    the launch geometry alone, so every warp at the same place shares
    them; a step that reads one copies it into a register column."""
    alive, tx, ty, tz = _threads(warp_in_cta, block_dim)
    ctaid, ntid, nctaid = (tuple(map(_const, d))
                           for d in (cta_coord, block_dim, grid_dim))
    sources = {
        SpecialReg.TID_X: tx, SpecialReg.TID_Y: ty, SpecialReg.TID_Z: tz,
        SpecialReg.CTAID_X: ctaid[0], SpecialReg.CTAID_Y: ctaid[1],
        SpecialReg.CTAID_Z: ctaid[2],
        SpecialReg.NTID_X: ntid[0], SpecialReg.NTID_Y: ntid[1],
        SpecialReg.NTID_Z: ntid[2],
        SpecialReg.NCTAID_X: nctaid[0], SpecialReg.NCTAID_Y: nctaid[1],
        SpecialReg.NCTAID_Z: nctaid[2],
        SpecialReg.LANEID: _LANES,
        SpecialReg.WARPID: _const(warp_in_cta),
        SpecialReg.SMID: _const(sm_id),
    }
    return alive, tuple(sources[s] for s in sorted(sources))


class WarpState:
    """Architectural state of one resident warp."""

    def __init__(
        self,
        program: Program,
        cta: int,
        warp_in_cta: int,
        block_dim: tuple[int, int, int],
        grid_dim: tuple[int, int, int],
        cta_coord: tuple[int, int, int],
        sm_id: int,
        subpartition: int,
        warp_slot: int,
    ):
        self.program = program
        self.cta = cta
        self.warp_in_cta = warp_in_cta
        self.sm_id = sm_id
        self.subpartition = subpartition
        self.warp_slot = warp_slot

        alive, self.sregs = _identity(warp_in_cta, block_dim, grid_dim,
                                      cta_coord, sm_id)
        self.alive = alive.copy()

        self.regs = np.zeros((WARP_SIZE, program.nregs), dtype=_U32)
        self.preds = _PREDS.copy()
        self.stack: list[_StackEntry] = [
            _StackEntry(reconv_pc=None, next_pc=0, mask=self.alive.copy())
        ]
        self.at_barrier = False
        self.instructions_executed = 0

    # the executor addresses registers and predicates through cached
    # column views, rebuilt whenever a file is replaced (snapshot restore)
    @property
    def regs(self) -> np.ndarray:
        return self._regs

    @regs.setter
    def regs(self, file: np.ndarray) -> None:
        self._regs = file
        self.cols = _Columns(file, _ZEROS)

    @property
    def preds(self) -> np.ndarray:
        return self._preds

    @preds.setter
    def preds(self, file: np.ndarray) -> None:
        self._preds = file
        self.pcols = _Columns(file)

    # ------------------------------------------------------------------
    @property
    def finished(self) -> bool:
        self._pop_converged()
        return not self.stack or not self.alive.any()

    def _pop_converged(self) -> None:
        while self.stack:
            top = self.stack[-1]
            if top.reconv_pc is not None and top.next_pc == top.reconv_pc:
                self.stack.pop()
                continue
            if not (top.mask & self.alive).any():
                self.stack.pop()
                continue
            break

    # -- masked register access (used by fault sites) -------------------
    def read_reg(self, r: int) -> np.ndarray:
        """Read register *r* for all lanes (copy)."""
        if r == RZ:
            return np.zeros(WARP_SIZE, dtype=_U32)
        if r >= self.program.nregs or r < 0:
            raise InvalidRegisterError(
                f"read of R{r} (nregs={self.program.nregs})"
            )
        return self.cols[r].copy()

    def write_reg(self, r: int, values: np.ndarray, mask: np.ndarray) -> None:
        """Write *values* to register *r* on lanes where *mask* holds."""
        if r == RZ:
            return
        if r >= self.program.nregs or r < 0:
            raise InvalidRegisterError(
                f"write of R{r} (nregs={self.program.nregs})"
            )
        np.copyto(self.cols[r], values, where=mask, casting="unsafe")


@dataclass
class _CtaEnv:
    """Per-CTA execution environment shared by its warps."""

    global_mem: object
    constant_mem: object
    shared_mem: object

    def __post_init__(self) -> None:
        #: memories indexed by MemSpace value
        self.spaces = (self.global_mem, self.shared_mem, self.constant_mem)


# ----------------------------------------------------------------------
# decode: one step closure per pc
# ----------------------------------------------------------------------
#
# A step is called as ``step(warp, m, active, top, env)`` after the slice
# loop has set ``top.next_pc = pc + 1``. ``m`` is the exec mask, or
# ``None`` when all 32 lanes execute; ``active`` is the stack-active mask
# (``None`` when full). Steps treat both as read-only and return the
# result vector (a checked step writes it), ``None``, or ``_SYNC``.

def _invalid(r: int, nregs: int) -> bool:
    return r != RZ and not 0 <= r < nregs


def _immediate(instr: Instruction) -> np.ndarray | None:
    """The immediate that replaces the last register source, if any."""
    return _const(instr.imm) if instr.use_imm else None


def _fetcher(regs: tuple[int, ...], imm: np.ndarray | None):
    """``cols -> operand tuple``: register views, then the immediate."""
    if imm is None:
        if len(regs) >= 2:
            return operator.itemgetter(*regs)
        if not regs:
            return lambda c: ()
        (a,) = regs
        return lambda c: (c[a],)
    if not regs:
        return lambda c: (imm,)
    if len(regs) == 1:
        (a,) = regs
        return lambda c: (c[a], imm)
    a, b = regs
    return lambda c: (c[a], c[b], imm)


def _to_reg(d: int, compute):
    """Step writing ``compute(warp, m, env)`` to register *d*."""
    if d == RZ:
        def step(w, m, active, top, env):
            return compute(w, m, env)
    else:
        def step(w, m, active, top, env):
            res = compute(w, m, env)
            col = w.cols[d]
            if m is None:
                col[...] = res
            else:
                np.copyto(col, res, where=m)
            return res
    return step


def _nop(w, m, active, top, env):
    return None


def _exit(w, m, active, top, env):
    if m is None:
        w.alive[...] = False
    else:
        w.alive &= ~m
    return _SYNC


def _bar(w, m, active, top, env):
    if m is None or np.count_nonzero(m):
        w.at_barrier = True
        return _SYNC
    return None


def _bra(instr: Instruction, pc: int, name: str):
    target = instr.imm
    rpc = instr.reconv_pc
    fallthrough = pc + 1

    def step(w, m, active, top, env):
        if m is None:
            top.next_pc = target
            return None
        if not np.count_nonzero(m):
            return None
        not_taken = ~m if active is None else active > m  # active & ~m
        if not np.count_nonzero(not_taken):
            top.next_pc = target
            return None
        if rpc is None:
            # only reachable when instrumentation corrupted the
            # execution mask of a compiler-uniform branch
            raise ControlFlowCorruptionError(
                f"{name}@{pc}: uniform branch diverged"
            )
        top.next_pc = rpc
        w.stack.append(_StackEntry(rpc, fallthrough, not_taken))
        w.stack.append(_StackEntry(rpc, target, m))
        return _SYNC
    return step


def _s2r(instr: Instruction):
    src = int(SpecialReg(instr.aux))
    return _to_reg(instr.dst, lambda w, m, env: w.sregs[src])


def _mov32i(instr: Instruction):
    value = _const(instr.imm)
    return _to_reg(instr.dst, lambda w, m, env: value)


def _sel(instr: Instruction):
    fetch = _fetcher(instr.srcs, _immediate(instr))
    sel = instr.aux & 7

    def compute(w, m, env):
        a, b = fetch(w.cols)
        return np.where(w.pcols[sel], a, b)
    return _to_reg(instr.dst, compute)


_COMPARE = {
    CmpOp.LT: np.less, CmpOp.LE: np.less_equal,
    CmpOp.GT: np.greater, CmpOp.GE: np.greater_equal,
    CmpOp.EQ: np.equal, CmpOp.NE: np.not_equal,
}


def _compare_ufunc(aux: int):
    cmp = CmpOp(aux)
    if cmp not in _COMPARE:
        raise ReproError(f"invalid comparison selector {cmp!r} for SETP")
    return _COMPARE[cmp]


def _setp(instr: Instruction, dtype):
    cmp = _compare_ufunc(instr.aux)
    fetch = _fetcher(instr.srcs, _immediate(instr))
    p = instr.pdst

    def step(w, m, active, top, env):
        a, b = fetch(w.cols)
        res = cmp(a.view(dtype), b.view(dtype))
        if p != PT:
            if m is None:
                w.pcols[p][...] = res
            else:
                np.copyto(w.pcols[p], res, where=m)
        return None
    return step


def _mem(instr: Instruction):
    space = int(MemSpace(instr.aux))
    offset = _const(instr.imm)
    base = instr.srcs[0]
    if instr.op in LOAD_OPS:
        def load(w, m, env):
            return env.spaces[space].load(w.cols[base] + offset, m)
        return _to_reg(instr.dst, load)
    data = instr.srcs[1]

    def store(w, m, active, top, env):
        cols = w.cols
        env.spaces[space].store(cols[base] + offset, cols[data], m)
        return None
    return store


def _alu(instr: Instruction):
    # _to_reg with the kernel call inlined: one closure per ALU pc
    kernel = alu_kernel(instr.op, instr.aux)
    fetch = _fetcher(instr.srcs, _immediate(instr))
    d = instr.dst

    def step(w, m, active, top, env):
        cols = w.cols
        res = kernel(*fetch(cols))
        if d != RZ:
            if m is None:
                cols[d][...] = res
            else:
                np.copyto(cols[d], res, where=m)
        return res
    return step


def _checked(inner, srcs: tuple[int, ...], dst: int | None):
    """An instruction naming an out-of-range register: read (and write)
    through the checked accessors, in the order execution touches them."""
    def step(w, m, active, top, env):
        for r in srcs:
            w.read_reg(r)
        res = inner(w, m, active, top, env)
        if dst is not None:
            w.write_reg(dst, res, _FULL if m is None else m)
        return res
    return step


def _failing(reads: tuple[int, ...], fail: Callable[[], object]):
    """An instruction whose AUX selector is invalid: it faults when it
    executes, after the operand reads that precede the selector."""
    def step(w, m, active, top, env):
        for r in reads:
            w.read_reg(r)
        return fail()
    return step


#: the memory ops, by what they do; ``aux`` names the space they access
LOAD_OPS = frozenset({Op.GLD, Op.LDS, Op.LDC})
STORE_OPS = frozenset({Op.GST, Op.STS})
_MEM_OPS = (Op.GLD, Op.GST, Op.LDS, Op.STS, Op.LDC)

#: op -> ``build(instr, pc, program_name) -> step``: the one dispatch
_BUILDERS = {
    Op.NOP: lambda i, pc, name: _nop,
    Op.EXIT: lambda i, pc, name: _exit,
    Op.BAR: lambda i, pc, name: _bar,
    Op.BRA: _bra,
    Op.S2R: lambda i, pc, name: _s2r(i),
    Op.MOV32I: lambda i, pc, name: _mov32i(i),
    Op.SEL: lambda i, pc, name: _sel(i),
    Op.ISETP: lambda i, pc, name: _setp(i, np.int32),
    Op.FSETP: lambda i, pc, name: _setp(i, np.float32),
    **{op: lambda i, pc, name: _mem(i) for op in _MEM_OPS},
    **{op: lambda i, pc, name: _alu(i) for op in REPLACEABLE_OPS},
}

def _decode_one(instr: Instruction, pc: int, nregs: int, name: str):
    """The step closure of one instruction."""
    build = _BUILDERS[instr.op]
    bad_dst = instr.info.writes_reg and _invalid(instr.dst, nregs)
    bad = bad_dst or any(_invalid(r, nregs) for r in instr.srcs)
    if bad:
        # build the fast step on placeholders; the checked wrapper raises
        # before it could touch them
        srcs = tuple(RZ if _invalid(r, nregs) else r for r in instr.srcs)
        body = replace(instr, srcs=srcs, dst=RZ if bad_dst else instr.dst)
    else:
        body = instr
    try:
        step = build(body, pc, name)
    except (ValueError, ReproError):
        # an invalid AUX selector (memory space, special register, SETP
        # compare) faults when executed, after the reads preceding it
        reads = instr.srcs[:1] if instr.op in _MEM_OPS else instr.srcs
        return _failing(reads, lambda: build(body, pc, name))
    if bad:
        step = _checked(step, instr.srcs, instr.dst if bad_dst else None)
    return step


class _Decoded:
    """A program's decode table (see :func:`decode`)."""

    __slots__ = ("instructions", "count", "nregs", "name", "steps",
                 "__weakref__")

    def __init__(self, program: Program):
        self.instructions = program.instructions
        self.count = len(program.instructions)
        self.nregs = program.nregs
        self.name = program.name
        #: per pc: (step, guard predicate or None, guard negated, instr)
        self.steps = []
        for pc, instr in enumerate(program.instructions):
            step = _decode_one(instr, pc, program.nregs, program.name)
            unguarded = instr.pred == PT and not instr.pred_neg
            self.steps.append((step, None if unguarded else instr.pred,
                               instr.pred_neg, instr))

    def current(self, program: Program) -> bool:
        return (self.instructions is program.instructions
                and self.count == len(program.instructions)
                and self.nregs == program.nregs
                and self.name == program.name)


def decode(program: Program) -> _Decoded:
    """The decode table of *program*, built on first use and cached on the
    program object (invisible to ``==``, ``repr`` and pickling)."""
    table = program.__dict__.get("_decoded")
    if table is None or not table.current(program):
        table = _Decoded(program)
        program._decoded = table
    return table


# ----------------------------------------------------------------------
class WarpExecutor:
    """Steps warps through a program inside one CTA."""

    def __init__(
        self,
        program: Program,
        env: _CtaEnv,
        instrumentation: Instrumentation | None = None,
    ):
        self.program = program
        self.env = env
        self.instrumentation = instrumentation
        self._decoded = decode(program)

    # ------------------------------------------------------------------
    @staticmethod
    def _sync(warp: WarpState):
        """Pop converged entries; return ``(top, active, reconv)`` for the
        next step, or ``None`` when the warp finished or waits at a
        barrier. ``active`` is ``None`` when all 32 lanes are active."""
        stack = warp.stack
        while stack:
            top = stack[-1]
            rpc = top.reconv_pc
            if rpc is not None and top.next_pc == rpc:
                stack.pop()
                continue
            active = top.mask & warp.alive
            live = np.count_nonzero(active)
            if not live:
                stack.pop()
                continue
            if warp.at_barrier:
                return None
            return (top, None if live == WARP_SIZE else active,
                    -1 if rpc is None else rpc)
        return None

    def run_slice(self, warp: WarpState, budget: int) -> int:
        """Execute up to *budget* instructions on *warp*.

        Stops early at a barrier or warp completion. Returns the number of
        instructions executed. The slice runs under
        ``np.errstate(all="ignore")`` (simulated IEEE arithmetic never
        warns), the instrumentation's steps included, through
        the step table the instrumentation hands out for *warp*, read once
        per slice.
        """
        tool = self.instrumentation
        steps = (self._decoded.steps if tool is None
                 else tool.table(warp, self._decoded))
        n = len(steps)
        env = self.env
        resync = _SYNC
        done = 0
        sync = True
        try:
            with np.errstate(all="ignore"):
                while done < budget:
                    if sync:
                        state = self._sync(warp)
                        if state is None:
                            break
                        top, active, rpc = state
                        sync = False
                    pc = top.next_pc
                    if pc == rpc:
                        sync = True
                        continue
                    if pc >= n:
                        # falling off the end of the program is an implicit
                        # hang source
                        raise WatchdogTimeoutError(
                            f"{self.program.name}: PC past end")
                    step, guard, neg, _ = steps[pc]
                    if guard is None:
                        m = active
                    else:
                        g = warp.pcols[guard]
                        if active is None:
                            m = ~g if neg else g.copy()
                        else:
                            m = active > g if neg else active & g
                    top.next_pc = pc + 1
                    if step(warp, m, active, top, env) is resync:
                        sync = True
                    warp.instructions_executed += 1
                    done += 1
        finally:
            if done:
                _SIM_INSTRUCTIONS.inc(done)
        return done


__all__ = [
    "WarpState",
    "WarpExecutor",
    "Instrumentation",
    "TableCache",
    "Tracer",
    "WARP_SIZE",
    "decode",
]
