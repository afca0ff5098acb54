"""Accelerated EPR injection: differential replay against the golden trace.

A cold replay re-executes every injection from dynamic instruction 0.
But a permanent fault is invisible until its *activation condition*
first holds — the victim warp sits on the faulty hardware, the
instruction maps onto the faulty unit, and an affected thread is in the
execution mask — and until then the faulty run is the golden run, bit
for bit.  All three predicates are closed-form over the golden trace
(:class:`repro.campaign.goldens.GoldenTrace`), so this module supplies
the shortcuts :func:`repro.swinjector.campaign.run_one_injection` takes
when it is handed a golden trace. It

* computes every injection's activation sites without simulating
  (:func:`activation_sites`), classifying never-activating descriptors,
  and those whose every activation the static analyzer proves inert, as
  Masked with zero simulated instructions;
* skips a CTA of a golden-shaped launch whose golden execution provably
  repeats (:class:`_CleanCtas`): no activation site lies in it and every
  word it loads before storing holds its golden value, so its golden
  stores are written instead of simulating it. This is the replay's one
  prefix shortcut: every CTA before the first activation site, in the
  earlier launches too, is skipped this way, and the first site's CTA is
  simulated from its start. It also ends a run that has reconverged with
  golden past its last activation site: each later CTA is skipped, and
  the host reads the output as the cold replay does;
* fast-forwards a launch that has outrun its golden counterpart over the
  loop periods it provably repeats (:class:`HangCycle`). In a CTA with
  one unfinished warp, a watch on one anchor pc (:class:`_LoopWatch`)
  proposes the loop's period ``L``. A state that recurs exactly after
  ``L`` ("cycle") ends the run at once with the cold replay's watchdog
  and activation count. One whose integer registers (and a few global
  words) move by a constant delta ("affine", a count-up loop) has one
  period of ``L`` instructions recorded and proved to repeat its path
  (:func:`affine_periods`): the run ends the same way when the path
  repeats through the watchdog slice, else it jumps over whole periods
  to the slice grid and simulation goes on from there;
* serves a launch past the end of the golden launch list from the run's
  launch memo (:class:`_LaunchMemo`) when an earlier launch of the run
  started from the same state: a runaway host loop (a faulty
  ``quicksort``) repeats a handful of launches hundreds of times.

Every shortcut is equivalence-preserving — outcomes, DUE reasons and
activation counts are bit-identical to the cold replay (the
soundness arguments live in docs/PERFORMANCE.md, the proof-by-test in
tests/test_accel_equivalence.py).
"""

from __future__ import annotations

import bisect
import functools
import hashlib
import math
import pickle
from dataclasses import dataclass, field, replace

import numpy as np

from repro.campaign.goldens import GoldenTrace
from repro.common.exceptions import InvalidRegisterError
from repro.gpusim.device import (
    _SLICE,
    LaunchResult,
    _dim3,
    cta_shared_words,
    param_words,
)
from repro.gpusim.executor import (
    LOAD_OPS,
    STORE_OPS,
    WARP_SIZE,
    _compare_ufunc,
)
from repro.gpusim.snapshot import (
    Checkpoint,
    capture_checkpoint,
    checkpoint_delta,
    slot_counters,
)
from repro.isa.instruction import RZ
from repro.isa.opcodes import MemSpace, Op
from repro.swinjector.injectors import BaseInjector
from repro.swinjector.instrumentation import target_mask

#: anchor visits one :class:`_LoopWatch` digests before it gives up: the
#: bound on what a watch costs (and holds for) a hang that never repeats
_MAX_VISITS = 1 << 8

#: longest loop period, in instructions, :class:`HangCycle` records for
#: an affine proof (operand copies of ~0.6 KiB an instruction)
_MAX_RECORDED = 1 << 13

#: most global words an affine period may move
_MAX_MEM_WORDS = 64

#: bytes of launch records one run's :class:`_LaunchMemo` holds; once
#: they are spent, lookups go on and nothing more is recorded
_MEMO_BYTES = 1 << 20

#: largest written extent of global memory, in words, a launch memo reads
#: (1 MiB): reading an untouched word makes its page resident, and a
#: stray store can stretch the extent far past the words a run wrote
_MEMO_WORDS = 1 << 18

#: periods per NumPy pass of the affine proof's range checks: a proof
#: may cover every period up to the watchdog (thousands at tiny scale),
#: and a pass holds a few uint64 arrays of periods x lanes, 64 KiB each
_CHUNK = 256


@dataclass
class AccelStats:
    """Per-work-unit acceleration accounting: the unit result's ``accel``
    dict, summed by :func:`repro.campaign.store.fold_results`."""

    saved_instructions: int = 0
    #: injections classified without simulating a single instruction
    skipped: int = 0
    #: injections sharing a behaviorally identical descriptor's run
    collapsed: int = 0
    #: loop fast-forwards by :class:`HangCycle`, both kinds in one count:
    #: exact repeats ("cycle") and count-up loops ("affine")
    hang_cycles: int = 0
    #: CTAs written from their golden stores instead of simulated
    #: (:class:`_CleanCtas`)
    cta_skips: int = 0

    def as_dict(self) -> dict:
        return {"enabled": True,
                "saved_instructions": self.saved_instructions,
                "skipped": self.skipped,
                "collapsed": self.collapsed,
                "hang_cycles": self.hang_cycles,
                "cta_skips": self.cta_skips}

    def skip(self, trace: GoldenTrace) -> None:
        """Tally an injection classified Masked without simulating (it
        never activates, or every activation is inert)."""
        self.skipped += 1
        self.saved_instructions += trace.total_instructions

    def hang_cycle(self, instructions: int) -> None:
        """Tally a loop fast-forwarded over *instructions* (either kind)."""
        self.hang_cycles += 1
        self.saved_instructions += instructions

    def cta_skip(self, instructions: int) -> None:
        """Tally a clean CTA of *instructions* that was not simulated."""
        self.cta_skips += 1
        self.saved_instructions += instructions


#: descriptor fields each model's injector actually reads (beyond the
#: dispatcher's victim selection).  Two descriptors agreeing on the
#: dispatcher fields AND these are behaviorally identical: the entire
#: faulty run is a deterministic function of them, so the injection is
#: simulated once and its outcome replicated (dynamic fault collapsing —
#: the EPR analog of gate-level fault dropping).  Derived from
#: repro/swinjector/injectors.py; verified by tests/test_accel_equivalence.py.
_RELEVANT_FIELDS: dict[str, tuple[str, ...]] = {
    "IRA": ("err_oper_loc", "bit_err_mask"),
    "IVRA": ("err_oper_loc", "bit_err_mask"),
    "IOC": ("replacement_op",),
    "IVOC": (),                      # raises at the first activation
    "IIO": ("bit_err_mask",),
    "WV": ("bit_err_mask",),
    "IAT": ("bit_err_mask",),
    "IAW": ("bit_err_mask",),
    "IAC": ("bit_err_mask",),
    "IAL": ("lane", "lane_enable_mode"),
    "IMS": ("bit_err_mask",),
    "IMD": ("bit_err_mask", "err_oper_loc"),
    # IPP picks its delegate from (bit_err_mask, lane, err_oper_loc)
    "IPP": ("bit_err_mask", "lane", "err_oper_loc"),
}


def behavior_key(desc) -> tuple | None:
    """Hashable behavioral identity of a descriptor, or ``None`` when the
    model is unknown (then never collapse)."""
    fields = _RELEVANT_FIELDS.get(desc.model.value)
    if fields is None:
        return None
    return (desc.model.value, desc.sm_id, desc.subpartition,
            tuple(sorted(desc.warp_slots)), desc.thread_mask,
            *(getattr(desc, f) for f in fields))


def activation_sites(trace: GoldenTrace, desc, injector,
                     programs: dict) -> np.ndarray:
    """Global dynamic-instruction indices where *desc* activates.

    Evaluates the exact activation condition of the compiled sites over
    the golden trajectory: warp coordinates match the descriptor, the
    static instruction is targeted by the model's injector, and the
    thread mask intersects the execution mask.  Valid for the whole
    faulty run up to (and including) the first returned site, because
    the faulty run is the golden run until then.
    """
    n = trace.ev_pc.size
    if n == 0 or not trace.coords:
        return np.zeros(0, dtype=np.int64)
    coord_ok = np.fromiter(
        (desc.matches_warp(sm, sub, slot) for sm, sub, slot in trace.coords),
        dtype=bool, count=len(trace.coords))
    ok = np.zeros(n, dtype=bool)
    pc_masks: dict[str, np.ndarray] = {}
    for rec in trace.launches:
        s = rec.start_index
        e = s + rec.instructions_executed
        pc_ok = pc_masks.get(rec.program)
        if pc_ok is None:
            pc_ok = pc_masks[rec.program] = target_mask(
                injector, programs[rec.program])
        ok[s:e] = pc_ok[trace.ev_pc[s:e]]
    ok &= coord_ok[trace.ev_coord]
    ok &= (trace.ev_mask & np.uint32(desc.thread_mask & 0xFFFFFFFF)) != 0
    return np.flatnonzero(ok)


def injector_state(injector: BaseInjector) -> bytes:
    """An injector's instance state as bytes: every attribute except its
    (constant) descriptor, an IPP delegate included. Pickling is
    faithful, so equal bytes mean equal state."""
    return pickle.dumps({k: v for k, v in vars(injector).items()
                         if k != "desc"}, protocol=5)


def _control_digest(w, inj: bytes) -> bytes:
    """SHA-256 of warp *w*'s predicates, alive mask, barrier flag and
    reconvergence stack, and the injector state *inj*: the anchor digest
    of :class:`_LoopWatch`. Registers and memory are left out, so a
    count-up loop hits too; a hit is only a candidate, confirmed by exact
    comparison."""
    h = hashlib.sha256(w.preds)
    h.update(w.alive)
    h.update(b"%d %d" % (w.at_barrier, len(w.stack)))
    for e in w.stack:
        h.update(b"%d %d" % (-1 if e.reconv_pc is None else e.reconv_pc,
                             e.next_pc))
        h.update(e.mask)
    h.update(inj)
    return h.digest()


def fires(sel: np.ndarray | None, m: np.ndarray | None) -> bool:
    """Does a step with victim lanes *sel* (``None``: not a target pc)
    activate under exec mask *m* (``None``: all 32 lanes)?"""
    if sel is None:
        return False
    return bool(np.count_nonzero(sel if m is None else sel & m))


def observe(tool, watch, recorder=None) -> None:
    """Set *watch* (``None`` unsets it) and *recorder* on *tool* for the
    slices of ``watch.warp`` from its next one on: an overlay table in
    which the recorder wraps every plain step, a target's inside its
    error functions, and the watch every step it sees: its anchor and
    ``BAR`` pcs and the target pcs, every pc while recording."""
    tool.watch, tool.recorder, tool.overlay = watch, recorder, None
    if watch is None:
        return

    def outer(pc, instr, step, sel):
        if recorder is None and sel is None and pc not in watch.pcs:
            return step
        return watch.wrap(pc, instr, step, sel)
    tool.overlay = watch.warp, tool.compile(
        watch.warp, None if recorder is None else recorder.wrap, outer)


# ----------------------------------------------------------------------
# affine proof
# ----------------------------------------------------------------------

_U32 = np.uint32
_M32 = np.uint64(0xFFFFFFFF)
_ZERO = np.zeros(WARP_SIZE, dtype=_U32)
_ZERO.setflags(write=False)
_FULL = np.ones(WARP_SIZE, dtype=bool)
_FULL.setflags(write=False)

#: integer ops that map affine operands to an affine result (IMUL and
#: IMAD need an invariant factor on every lane, SHL an invariant shift)
_AFFINE_OPS = frozenset({Op.IADD, Op.ISUB, Op.MOV, Op.IMUL, Op.IMAD, Op.SHL})


class _PeriodRecorder:
    """One period of dynamic instructions with their operand values,
    recorded as the tool's :attr:`~NVBitPERfi.recorder`: it wraps every
    plain step of the watched warp, inside the error function of a
    target pc, so it sees the operands the instruction reads and the
    result it writes."""

    def __init__(self, tool):
        self.tool = tool
        #: per step: (instr, exec mask, operand values or ``None`` when a
        #: register is out of range, result or ``None``, the registers
        #: the error functions may touch when the step activated, else ())
        self.steps: list[tuple] = []

    def wrap(self, pc: int, instr, step, sel):
        """*step* of *instr*, recorded while this recorder is set (*sel*:
        the victim lanes when *pc* is a target, else ``None``)."""
        tool = self.tool
        srcs, dst = instr.srcs, instr.dst
        writes = instr.info.writes_reg and dst != RZ

        def recorded(w, m, active, top, env):
            if tool.recorder is not self:
                return step(w, m, active, top, env)
            try:
                vals = [w.read_reg(r) for r in srcs]
            except InvalidRegisterError:
                vals = None  # the step itself raises
            else:
                if instr.use_imm:
                    vals.append(np.full(WARP_SIZE, instr.imm, dtype=_U32))
            touched = (tool.injector.registers(instr) if fires(sel, m)
                       else ())
            res = step(w, m, active, top, env)
            out = w.read_reg(dst) if vals is not None and writes else None
            self.steps.append((instr, _FULL.copy() if m is None else m.copy(),
                               vals, out, touched))
            return res
        return recorded


def _first_failure(fails, limit: int) -> int:
    """The first period ``j`` in ``[1, limit]`` where ``fails`` flags a
    lane, else ``limit + 1``. ``fails`` maps a uint64 column of periods
    to one row of lane flags per period; it is called on chunks of
    :data:`_CHUNK` periods, in order."""
    for lo in range(1, limit + 1, _CHUNK):
        j = np.arange(lo, min(lo + _CHUNK, limit + 1), dtype=np.uint64)
        bad = fails(j[:, None]).any(axis=1)
        if bad.any():
            return lo + int(np.argmax(bad))
    return limit + 1


def _at(v: np.ndarray, d: np.ndarray, j: np.ndarray) -> np.ndarray:
    """``v + j·d`` modulo 2**32, one row per period in the column *j*
    (as uint64)."""
    return (v.astype(np.uint64) + j * d.astype(np.uint64)) & _M32


def _first_flip(instr, m, vals, ds, limit: int) -> int:
    """First period at which an ISETP with moving operands gives another
    int32 result than in the recorded period on a lane of *m* (the
    operands wrap modulo 2**32 exactly as the executor's do)."""
    cmp = _compare_ufunc(instr.aux)
    lanes = m & ((ds[0] | ds[1]) != 0)
    x, y = vals[0][lanes], vals[1][lanes]
    dx, dy = ds[0][lanes], ds[1][lanes]
    r0 = cmp(x.view(np.int32), y.view(np.int32))

    def fails(j):
        xj = _at(x, dx, j).astype(_U32).view(np.int32)
        yj = _at(y, dy, j).astype(_U32).view(np.int32)
        return cmp(xj, yj) != r0
    return _first_failure(fails, limit)


def _load(instr, m, vals, res, ds, spaces, written, mem_deltas,
          limit: int) -> tuple[np.ndarray, int]:
    """``(value delta, limit)`` of a load in the recorded period.

    A lane at a fixed address reads a word that moves like the last store
    to it earlier in the period, else like the word moves between periods
    (*mem_deltas*). A lane whose address moves must, for every later
    period, stay aligned and in range and read the word it read in the
    recorded period, from a word that no store of the period writes and
    that does not move: *limit* is cut before the first period where that
    fails, and the value does not move."""
    space = instr.aux
    addr = vals[0] + _U32(instr.imm & 0xFFFFFFFF)
    moves = m & (ds[0] != 0)
    table = written[space] if space in written else {}
    boundary = mem_deltas if space == int(MemSpace.GLOBAL) else {}
    out = np.zeros(WARP_SIZE, dtype=_U32)
    for lane in np.flatnonzero(m & ~moves):
        word = int(addr[lane]) >> 2
        out[lane] = table.get(word, boundary.get(word, 0))
    if moves.any():
        mem = spaces[space]
        a, d = addr[moves], ds[0][moves]
        want = None if res is None else res[moves]
        unstable = np.array(sorted(set(table) | set(boundary)),
                            dtype=np.uint64)
        nbytes = 4 * mem.num_words

        def fails(j):
            at = _at(a, d, j)
            bad = ((at & np.uint64(3)) != 0) | (at >= nbytes)
            words = np.minimum(at >> np.uint64(2), mem.num_words - 1)
            if want is not None:
                bad |= mem.data[words] != want
            if unstable.size:
                bad |= np.isin(words, unstable)
            return bad
        limit = min(limit, _first_failure(fails, limit) - 1)
    return out, limit


def _affine_result(op, m, vals, ds) -> np.ndarray | None:
    """Per-lane delta of an affine-preserving op's result, ``None`` when
    a product has two moving factors or a shift a moving amount."""
    if op is Op.MOV:
        return ds[0]
    if op is Op.IADD:
        return ds[0] + ds[1]
    if op is Op.ISUB:
        return ds[0] - ds[1]
    if op is Op.SHL:
        if ds[1][m].any():
            return None
        return ds[0] << (vals[1] & _U32(31))
    # (a + j·da)(b + j·db) = ab + j(da·b + a·db) when da·db == 0
    if ((ds[0] != 0) & (ds[1] != 0) & m).any():
        return None
    out = ds[0] * vals[1] + vals[0] * ds[1]
    return out + ds[2] if op is Op.IMAD else out


def affine_periods(steps, deltas: np.ndarray, mem_deltas: dict[int, int],
                   spaces, k_max: int, at: int = 0):
    """How many periods after a recorded one provably repeat its path.

    *steps* is one period of one warp (:class:`_PeriodRecorder`), which
    started from registers ``R`` and global memory ``M``; *deltas* (uint32
    ``(32, nregs)``) and *mem_deltas* (global word -> uint32) are how they
    move per period. Period ``j`` starts from ``R + j·deltas`` and
    ``M + j·mem_deltas`` with control state, predicates, shared memory
    and injector state unchanged. The walk carries each register's delta
    through the period and finds the largest ``k <= k_max`` such that
    periods ``1..k`` take the recorded path: no compare flips, no moving
    address leaves range or alignment or reads another word, and the
    period ends ``deltas``/``mem_deltas`` further on.

    Returns ``(k, register deltas, word deltas)``, the deltas being how
    the state *at* instructions into a period moves per period (they
    differ from the end deltas where a register or word is written twice
    in a period), or ``None`` to refuse: an op that is not
    affine-preserving on a moving operand (FP, SEL, min/max, logic, right
    shift), a store to a moving address, an activation that may touch a
    moving register or computes a moving result, or end deltas that
    differ."""
    rd = deltas.copy()
    written = {int(MemSpace.GLOBAL): {}, int(MemSpace.SHARED): {}}
    stored = written[int(MemSpace.GLOBAL)]
    limit = k_max
    nregs = rd.shape[1]
    mid = None

    def moves(regs) -> bool:
        return any(r != RZ and (r >= nregs or rd[:, r].any()) for r in regs)

    for n, (instr, m, vals, res, touched) in enumerate(steps):
        if n == at:
            mid = rd.copy(), {**mem_deltas, **stored}
        if vals is None or moves(touched):
            return None
        op = instr.op
        ds = [_ZERO if r == RZ else rd[:, r] for r in instr.srcs]
        if instr.use_imm:
            ds.append(_ZERO)
        moving = any(d[m].any() for d in ds)
        out = _ZERO
        if op is Op.ISETP:
            if moving:
                limit = min(limit, _first_flip(instr, m, vals, ds, limit) - 1)
        elif op in LOAD_OPS:
            out, limit = _load(instr, m, vals, res, ds, spaces, written,
                               mem_deltas, limit)
        elif op in STORE_OPS:
            if ds[0][m].any():
                return None
            table = written[instr.aux]
            words = (vals[0] + _U32(instr.imm & 0xFFFFFFFF)) >> _U32(2)
            for lane in np.flatnonzero(m):  # the last writer wins
                table[int(words[lane])] = int(ds[1][lane])
        elif op in _AFFINE_OPS:
            out = _affine_result(op, m, vals, ds)
            if out is None:
                return None
        elif moving:
            return None
        if touched and out[m].any():
            return None
        if instr.info.writes_reg and instr.dst != RZ:
            rd[m, instr.dst] = out[m]
    if (not np.array_equal(rd, deltas)
            or any(written[int(MemSpace.SHARED)].values())
            or any(stored.get(w) != d for w, d in mem_deltas.items())
            or any(d != mem_deltas.get(w, 0) for w, d in stored.items())):
        return None
    regs, mem = mid
    return limit, regs, {w: d for w, d in mem.items() if d}


@dataclass
class _Period:
    """A loop period under test by :class:`_LoopWatch`, from its anchor
    visit ``start`` (``E``) to ``start + length``."""

    start: int
    length: int
    ck: Checkpoint                 # the state at E
    inj: bytes                     # injector state at E
    activations: int               # tool.activations at E
    #: offsets from E of the period's activations, in order
    offsets: list[int] = field(default_factory=list)
    #: activations of the whole period, once proved
    gained: int = 0
    #: ``(register deltas, global word deltas)`` of the period when
    #: something moved (an affine candidate), once proved; else ``None``
    #: (a cycle)
    delta: tuple | None = None
    #: the period's steps, when the watch recorded them
    #: (:class:`_PeriodRecorder`)
    steps: list | None = None


class _LoopWatch:
    """The one source of loop periods of :class:`HangCycle`: a watch on
    the only unfinished warp of a CTA, set as the tool's
    :attr:`~NVBitPERfi.watch` (:func:`observe`).

    It wraps the warp's steps at an *anchor* pc (the warp's next pc when
    the watch arms), the program's ``BAR`` pcs and the target pcs, where
    it sees whether the step activates. At each anchor visit, before the
    error function, the warp's control state and the injector state are
    digested (:func:`_control_digest`). A digest seen ``L`` instructions
    earlier makes ``L`` a candidate period: the exact state at that visit
    ``E`` is captured and the activations of ``[E, E + L)`` are recorded
    by their offset from ``E``. At the visit ``E + L`` the injector state
    must be equal, no ``BAR`` may have run in between, and
    :func:`~repro.gpusim.snapshot.checkpoint_delta` must find the rest of
    the state, global and shared memory included, equal up to integer
    registers and at most :data:`_MAX_MEM_WORDS` global words. The period
    is then the :attr:`proof`: a cycle when nothing moved, else an affine
    candidate (:attr:`_Period.delta`).

    A watch armed with the *length* of a proved period records one period
    instead: the tool's :attr:`~NVBitPERfi.recorder` was set with it, at
    a round boundary, and both wrap every step; its first step must be
    the anchor, which starts the period ``E`` without a digest, and the
    proof at ``E + L`` keeps the recorded steps.

    The watch ends at a proof, at a failed comparison, at a ``BAR`` in a
    candidate period, or after :data:`_MAX_VISITS` visits; ending, it
    unsets the recorder too, and its wrappers pass the steps through for
    the rest of the slice. Launch counts are the warp's own count plus
    *offset*, fixed when the watch arms: only this warp runs, and any
    fast-forward drops the watch."""

    def __init__(self, dev, tool, watchdog: int, warp, shared_mem,
                 offset: int, anchor: int, bars: frozenset[int],
                 length: int | None = None):
        self.dev = dev
        self.tool = tool
        self.watchdog = watchdog
        self.warp = warp
        self.shared_mem = shared_mem
        self.offset = offset
        self.anchor = anchor
        self.bars = bars
        self.length = length
        self.pcs = bars | {anchor}
        #: anchor digest -> launch count where last seen
        self.seen: dict[bytes, int] = {}
        self.visits = 0
        self.candidate: _Period | None = None
        self.proof: _Period | None = None

    def wrap(self, pc: int, instr, step, sel):
        """*step* with this watch's visit in front, while the watch is set
        (*sel*: the victim lanes when *pc* is a target, else ``None``).
        The visit sees the warp before the step, its next pc still *pc*."""
        tool = self.tool

        def watched(w, m, active, top, env):
            if tool.watch is self:
                top.next_pc = pc
                self.before(pc, fires(sel, m))
                top.next_pc = pc + 1
            return step(w, m, active, top, env)
        return watched

    def before(self, pc: int, activated: bool) -> None:
        """A step of the warp at *pc*, before its error function, which
        activates at it when *activated*."""
        c = self.candidate
        x = self.offset + self.warp.instructions_executed
        if pc == self.anchor:
            if c is None:
                self._visit(x)
            elif x >= c.start + c.length:
                self._confirm(x)
            c = self.candidate
        elif c is not None and pc in self.bars:  # a BAR in the period
            self._stop()
            return
        elif c is None and self.length is not None:
            self._stop()  # the recorded period must start at the anchor
            return
        if activated and c is not None:
            c.offsets.append(x - c.start)

    def _visit(self, x: int) -> None:
        self.visits += 1
        if self.visits > _MAX_VISITS:
            self._stop()
            return
        inj = injector_state(self.tool.injector)
        length = self.length
        if length is None:
            key = _control_digest(self.warp, inj)
            prev = self.seen.get(key)
            self.seen[key] = x
            if prev is None:
                return
            length = x - prev
        if x + length >= self.watchdog:
            return
        ck = capture_checkpoint(self.dev, self.warp.cta, x, [self.warp],
                                self.shared_mem)
        self.candidate = _Period(x, length, ck, inj, self.tool.activations)

    def _confirm(self, x: int) -> None:
        c = self.candidate
        delta = None
        if (x == c.start + c.length
                and injector_state(self.tool.injector) == c.inj):
            delta = checkpoint_delta(self.dev, c.ck, [self.warp],
                                     self.shared_mem, _MAX_MEM_WORDS)
        if delta is not None:
            (regs,), mem = delta
            if mem or regs.any():
                c.delta = regs, mem
            c.gained = self.tool.activations - c.activations
            if self.tool.recorder is not None:
                c.steps = self.tool.recorder.steps
            self.proof = c
        self._stop()

    def _stop(self) -> None:
        self.candidate = None
        observe(self.tool, None)


class HangCycle:
    """Round hook that proves a launch's loop periodic up to a constant
    per-period delta and ends the run, or fast-forwards it over the
    periods that provably repeat.

    Once a launch has outrun its golden counterpart, a slice into each CTA
    it arms a :class:`_LoopWatch` on the CTA's only unfinished warp: the
    one source of loop periods ``L``. At the first round boundary ``R``
    after the watch proved a period:

    * **cycle** — nothing moved: the simulator's determinism makes the
      run periodic for ever. The hook sets the tool's activations to the
      cold replay's count at ``T``, the end of the slice where its
      watchdog fires, and returns ``T - R``: the launch raises the
      timeout at once (:meth:`_end`).
    * **affine** — integer registers and a few global words moved: the
      hook sets the tool's recorder and arms a watch of known length
      ``L``, which records one period ``[E2, E2 + L)`` with its operand
      values and proves again that it moved only by ``D`` (and gained
      ``ΔA`` activations). At the next round boundary ``R``,
      :func:`affine_periods` proves for how many periods ``k`` the
      recorded path repeats, and gives the deltas at ``R``'s offset
      ``r = (R − E2) mod L`` in the period. If the path repeats through
      ``T``, the run ends like a cycle. Otherwise the hook jumps ``j``
      periods, the most that stay in the proved ones with ``j·L`` a
      multiple of 256 (so the jump lands on the cold replay's slice
      grid): it adds ``j`` times the deltas at ``r`` to the warp's
      registers and the moved words and returns ``j·L``.
      ``Device.launch`` adds the returned count to the launch counter,
      the tool is credited the ``j·ΔA`` activations those periods would
      have made, and plain simulation continues: a loop that ends
      finishes with the cold replay's output bits or fault; a new watch
      arms after every jump.

    A watch that ends without a proof, and an affine proof that is
    refused (``L`` over :data:`_MAX_RECORDED`, a refusal of
    :func:`affine_periods`, or too few proved periods for one jump to
    the grid), back off: the next watch arms no earlier than a window
    that doubles after each failure. CTAs with several unfinished warps,
    and loops with a ``BAR``, get no proof.

    Each fast-forward appends ``"cycle"`` or ``"affine"`` to *shortcuts*
    (docs/PERFORMANCE.md, "Hang short-circuit").
    """

    def __init__(self, dev, tool, watchdog: int, stats: AccelStats,
                 shortcuts: list | None = None):
        self.dev = dev
        self.tool = tool
        self.watchdog = watchdog
        self.stats = stats
        self.shortcuts = [] if shortcuts is None else shortcuts
        self.cta = None
        #: the next watch arms no earlier than this launch count
        self.retry_at = 0
        self.failures = 0
        #: the current CTA's watch, until its end is handled
        self.watch: _LoopWatch | None = None
        #: the launch's ``BAR`` pcs, found when a watch first arms
        self.bars: frozenset[int] | None = None
        #: launch count of the CTA's first round boundary here; a watch
        #: arms a slice later, so a CTA that ends within it pays nothing
        self.since = 0
        #: the CTA's warps not yet seen finished (:meth:`_lone`)
        self.live: list = []

    def __call__(self, cta, executed, warps, shared_mem):
        if cta != self.cta:
            self.cta = cta
            self.since = executed
            self.live = list(warps)
            self.watch = None
            observe(self.tool, None)
        watch = self.watch
        if watch is None:
            if (executed - self.since >= _SLICE and executed >= self.retry_at
                    and (w := self._lone()) is not None):
                self._arm(executed, w, shared_mem)
            return None
        if self.tool.watch is watch:
            return None  # still watching
        self.watch = None
        p = watch.proof
        if p is None:
            return self._give_up(executed)
        if p.delta is None:
            return self._end(p, executed, "cycle")
        if p.steps is None:
            return self._record(p, executed, shared_mem)
        return self._affine(p, watch.warp, executed, shared_mem)

    def _lone(self):
        """The CTA's only unfinished warp, else ``None``. A warp never
        comes back once finished, so :attr:`live` drops the finished ones
        for good, and two unfinished warps at its head settle the answer:
        while several warps run, a round boundary tests two."""
        live = self.live
        while len(live) > 1:
            if live[0].finished:
                del live[0]
            elif live[1].finished:
                del live[1]
            else:
                return None
        return live[0] if live and not live[0].finished else None

    def _arm(self, executed: int, w, shared_mem, length: int | None = None,
             recorder: bool = False) -> bool:
        """Set a :class:`_LoopWatch` (of *length*, if given, and with a
        :class:`_PeriodRecorder` when *recorder*) on *w*, the CTA's only
        unfinished warp, anchored at its next pc (not a ``BAR``)."""
        if w.at_barrier:
            return False
        if self.bars is None:
            self.bars = frozenset(pc for pc, instr in enumerate(w.program)
                                  if instr.op is Op.BAR)
        anchor = w.stack[-1].next_pc
        if anchor in self.bars:
            return False
        self.watch = _LoopWatch(
            self.dev, self.tool, self.watchdog, w, shared_mem,
            executed - w.instructions_executed, anchor, self.bars, length)
        observe(self.tool, self.watch,
                _PeriodRecorder(self.tool) if recorder else None)
        return True

    def _record(self, p: _Period, executed: int, shared_mem):
        """Record one period of the count-up loop *p* from this round
        boundary on: a step table is read once per slice, so a recorder
        set mid-slice would miss the rest of the slice."""
        w = self._lone()
        if (p.length > _MAX_RECORDED or w is None
                or not self._arm(executed, w, shared_mem, p.length, True)):
            return self._give_up(executed)
        return None

    def _affine(self, p: _Period, warp, executed: int, shared_mem):
        """End the count-up loop recorded in *p* when its path provably
        repeats through the watchdog slice, else jump over the whole
        periods it allows to the slice grid, or back off."""
        t = self._timeout_at(executed)
        q, r = divmod(executed - p.start, p.length)
        # periods after the recorded one that hold the steps up to T
        need = -(-(t - p.start) // p.length) - 1
        regs, mem = p.delta
        spaces = (self.dev.global_mem, shared_mem, self.dev.constant_mem)
        proved = affine_periods(p.steps, regs, mem, spaces, need, r)
        if proved is None:
            return self._give_up(executed)
        k, regs, mem = proved
        if k == need:
            return self._end(p, executed, "affine")
        grid = _SLICE // math.gcd(p.length, _SLICE)
        j = (k - q) // grid * grid
        if j < 1:
            return self._give_up(executed)
        warp.regs += regs * _U32(j & 0xFFFFFFFF)
        g = self.dev.global_mem
        for w, d in mem.items():
            g.data[w] = (int(g.data[w]) + j * d) & 0xFFFFFFFF
        if mem:
            g.reach(max(mem) + 1)
        self.tool.activations += j * p.gained
        self.stats.hang_cycle(j * p.length)
        self.shortcuts.append("affine")
        return j * p.length

    def _timeout_at(self, executed: int) -> int:
        """``T``: the end of the slice where the watchdog fires, for a
        warp whose slices run 256 instructions from round boundary
        *executed* on."""
        return executed + _SLICE * ((self.watchdog - executed) // _SLICE + 1)

    def _end(self, p: _Period, executed: int, kind: str) -> int:
        """Return the count that takes the launch to ``T``, with the
        activations the cold replay has made by then: the path of period
        *p* repeats from its start through ``T``."""
        t = self._timeout_at(executed)
        n = t - p.start
        self.tool.activations = (
            p.activations + n // p.length * p.gained
            + bisect.bisect_left(p.offsets, n % p.length))
        self.stats.hang_cycle(t - executed)
        self.shortcuts.append(kind)
        return t - executed

    def _give_up(self, executed: int) -> None:
        """Drop a failed proof and back off."""
        self.failures += 1
        self.retry_at = executed + (_SLICE << self.failures)
        return None


@dataclass(frozen=True)
class _Words:
    """A memory's contents as its nonzero words: indices and values."""

    idx: np.ndarray
    vals: np.ndarray

    @classmethod
    def of(cls, mem) -> "_Words":
        data = mem.data[:mem.extent]
        idx = np.flatnonzero(data)
        return cls(idx, data[idx])

    def matches(self, mem, nonzero: int) -> bool:
        """Does *mem*, holding *nonzero* nonzero words, hold exactly
        these? Every recorded value is nonzero, so equal counts and equal
        values at the recorded indices leave no other nonzero word."""
        return (nonzero == self.idx.size
                and np.array_equal(mem.data[self.idx], self.vals))

    @property
    def nbytes(self) -> int:
        return self.idx.nbytes + self.vals.nbytes


def _changes(mem, before: _Words) -> tuple[np.ndarray, np.ndarray]:
    """The words of *mem* that differ from *before*, and their values: a
    changed word is nonzero now (and held another value before) or was
    nonzero before (and is zero now)."""
    now = np.flatnonzero(mem.data[:mem.extent])
    at = np.minimum(np.searchsorted(before.idx, now), before.idx.size - 1)
    old = np.zeros(now.size, dtype=np.uint32)
    if before.idx.size:
        held = before.idx[at] == now
        old[held] = before.vals[at[held]]
    words = np.concatenate((now[mem.data[now] != old],
                            before.idx[mem.data[before.idx] == 0]))
    return words, mem.data[words]


@dataclass(frozen=True)
class _Launch:
    """One completed launch of a run: the memory it started from, what
    it left and what it returned (:class:`_LaunchMemo`)."""

    program: object                # pins the key's id(program)
    global_before: _Words
    constant_before: _Words
    #: global words the launch changed, and their values after it
    changed: np.ndarray
    after: np.ndarray
    brk: int
    slots: dict
    injector: bytes                # injector state after the launch
    activations: int               # activations the launch made
    result: LaunchResult

    @property
    def nbytes(self) -> int:
        return (self.global_before.nbytes + self.constant_before.nbytes
                + self.changed.nbytes + self.after.nbytes)


class _LaunchMemo:
    """Completed launches of one faulty run past the end of its golden
    launch list, replayed without simulating when the run repeats one.

    A completed launch is a deterministic function of the key (the
    program object, grid, block, parameter words and shared size; the
    allocation break and warp-slot counters; the injector state) and of
    global and constant memory, under the run's one watchdog budget. So a
    launch whose key and memories equal a recorded one's ends as it did:
    its global words, break, slot counters, injector state and activation
    count move as recorded, the parameters land in constant memory as
    ``Device.set_params`` writes them, and it returns the recorded
    :class:`LaunchResult`. Memories are held sparse (:class:`_Words`) and
    matched exactly. Records stop at :data:`_MEMO_BYTES`, and a global
    memory written past :data:`_MEMO_WORDS` is neither read nor recorded;
    a launch that raises ends the run and is never recorded."""

    def __init__(self, dev, tool, stats: AccelStats, shortcuts: list):
        self.dev = dev
        self.tool = tool
        self.stats = stats
        self.shortcuts = shortcuts
        self.records: dict[tuple, list[_Launch]] = {}
        self.nbytes = 0

    def launch(self, run, program, grid, block, params, shared_words):
        """The launch's result, from a matching record or from *run()*."""
        dev, tool = self.dev, self.tool
        g, c = dev.global_mem, dev.constant_mem
        if g.extent > _MEMO_WORDS:
            return run()
        inj = injector_state(tool.injector)
        key = (id(program), _dim3(grid), _dim3(block),
               param_words(params).tobytes(), shared_words, g._brk,
               tuple(sorted(dev._slot_counters.items())), inj)
        held = self.records.get(key, ())
        if held:
            gn = np.count_nonzero(g.data[:g.extent])
            cn = np.count_nonzero(c.data[:c.extent])
            for r in held:
                if (r.global_before.matches(g, gn)
                        and r.constant_before.matches(c, cn)):
                    return self._replay(r, params, inj)
        if self.nbytes >= _MEMO_BYTES:
            return run()
        before = _Words.of(g), _Words.of(c)
        activations = tool.activations
        result = run()
        if g.extent > _MEMO_WORDS:
            return result
        r = _Launch(program, *before, *_changes(g, before[0]), g._brk,
                    dict(dev._slot_counters), injector_state(tool.injector),
                    tool.activations - activations, result)
        self.records.setdefault(key, []).append(r)
        self.nbytes += r.nbytes
        return result

    def _replay(self, r: _Launch, params, inj: bytes) -> LaunchResult:
        dev, tool = self.dev, self.tool
        g = dev.global_mem
        g.data[r.changed] = r.after
        if r.changed.size:
            g.reach(int(r.changed.max()) + 1)
        g._brk = r.brk
        dev.set_params(params)
        dev._slot_counters.clear()
        dev._slot_counters.update(r.slots)
        if r.injector != inj:
            # every attribute but the descriptor, in the recorded order
            state = vars(tool.injector)
            desc = state["desc"]
            state.clear()
            state.update({"desc": desc, **pickle.loads(r.injector)})
        tool.activations += r.activations
        self.stats.saved_instructions += r.result.instructions_executed
        self.shortcuts.append("launch-memo")
        return replace(r.result)


def _holds(mem, ptr: np.ndarray, words: np.ndarray, vals: np.ndarray,
           row: int) -> bool:
    """Does *mem* hold row *row*'s words of a :class:`CtaRecords` word
    list at their recorded values?"""
    lo, hi = int(ptr[row]), int(ptr[row + 1])
    return lo == hi or bool((mem.data[words[lo:hi]] == vals[lo:hi]).all())


class _CleanCtas:
    """The clean-CTA skip of one faulty run: a CTA whose golden execution
    provably repeats is not simulated; its golden stores are written
    instead.

    :meth:`launch` hands out the skip of one launch of golden launch
    ``m``, or ``None`` when none of its CTAs can be skipped: the launch's
    program, grid, block and shared words must equal golden launch
    ``m``'s, and its warp-slot counters golden's at launch start. The
    skip is called at the first round of each CTA. The CTA, of golden
    count ``n``, entered at launch count ``e``, is skipped when

    * no activation site lies in its golden index range;
    * ``e + n`` is within the watchdog budget, so the cold replay's
      timeout slice is kept, and within the golden launch's count, so
      the hang detector, which acts only past it, never runs in the CTA;
    * every live-in word (:class:`~repro.campaign.goldens.CtaRecords`)
      holds its golden value.

    Then it writes the CTA's golden store words, clears its warps' alive
    masks (the CTA has finished) and returns ``n``, which
    ``Device.launch`` adds to the launch counter.

    Soundness (docs/PERFORMANCE.md, "Clean-CTA skip"): CTAs run one at a
    time to completion, there are no atomics, shared memory is fresh for
    each CTA, and warps start from identity templates fixed by the
    geometry, SM and slot. So, by induction over the CTA's steps, every
    load returns its golden value: the CTA takes the golden path,
    activates nowhere, executes exactly ``n`` instructions and stores the
    golden words."""

    def __init__(self, dev, trace: GoldenTrace, sites: np.ndarray,
                 watchdog: int, stats: AccelStats):
        self.dev = dev
        self.trace = trace
        self.watchdog = watchdog
        self.stats = stats
        c = trace.ctas
        #: per CTA row: no activation site lies in its golden range
        self.siteless = (np.searchsorted(sites, c.start)
                         == np.searchsorted(sites, c.start + c.count))

    def launch(self, m: int, program, grid, block, shared_words):
        """The skip ``skip(cta, executed, warps) -> n`` of a launch of
        golden launch *m*, about to start, or ``None``."""
        trace = self.trace
        rec = trace.launches[m]
        row0 = trace.cta_row(m, 0)
        if (not self.siteless[row0:row0 + rec.num_ctas].any()
                or (program.name, _dim3(grid), _dim3(block),
                    cta_shared_words(program, shared_words))
                != (rec.program, rec.grid, rec.block, rec.shared_words)
                or slot_counters(self.dev) != rec.slot_counters):
            return None
        limit = min(self.watchdog, rec.instructions_executed)
        return functools.partial(self._skip, row0, limit)

    def _skip(self, row0: int, limit: int, cta: int, executed: int,
              warps) -> int:
        c, row = self.trace.ctas, row0 + cta
        n = int(c.count[row])
        if not self.siteless[row] or executed + n > limit:
            return 0
        dev = self.dev
        g = dev.global_mem
        if not (_holds(g, c.gld_ptr, c.gld_word, c.gld_val, row)
                and _holds(dev.constant_mem, c.ldc_ptr, c.ldc_word,
                           c.ldc_val, row)):
            return 0
        lo, hi = int(c.gst_ptr[row]), int(c.gst_ptr[row + 1])
        if lo < hi:
            g.data[c.gst_word[lo:hi]] = c.gst_val[lo:hi]
            g.reach(int(c.gst_word[hi - 1]) + 1)  # words ascend in a row
        for w in warps:
            w.alive[...] = False
        self.stats.cta_skip(n)
        return n


def replay_launcher(dev, trace: GoldenTrace, sites: np.ndarray, tool,
                    watchdog: int, stats: AccelStats,
                    shortcuts: list | None = None):
    """Workload launcher for a faulty run on *dev* that activates at
    *sites* (non-empty): every launch runs on the device, a clean CTA of
    a launch shaped like its golden counterpart is skipped
    (:class:`_CleanCtas`; each CTA before the first site is one), and a
    launch that outruns its golden counterpart (or has none) is watched
    by :class:`HangCycle`, which appends the kind of each fast-forward to
    *shortcuts*. A launch past the end of the golden launch list that
    repeats an earlier one of the run is served by the run's
    :class:`_LaunchMemo` (``"launch-memo"``)."""
    state = {"launch": 0}
    shortcuts = [] if shortcuts is None else shortcuts
    memo = _LaunchMemo(dev, tool, stats, shortcuts)
    clean = _CleanCtas(dev, trace, sites, watchdog, stats)

    def run(program, grid, block, params, shared_words, hook):
        try:
            return dev.launch(program, grid, block, params=params,
                              shared_words=shared_words, watchdog=watchdog,
                              instrumentation=tool, round_hook=hook)
        finally:
            # a period or a watch left unfinished by the launch
            observe(tool, None)

    def launcher(program, grid, block, params=(), shared_words=None):
        m = state["launch"]
        state["launch"] += 1
        if m >= len(trace.launches):
            # past the golden launch list: no golden CTA to skip, so the
            # round hook is the hang detector alone
            return memo.launch(lambda: run(
                program, grid, block, params, shared_words,
                HangCycle(dev, tool, watchdog, stats, shortcuts)),
                program, grid, block, params, shared_words)
        hang = HangCycle(dev, tool, watchdog, stats, shortcuts)
        skip = clean.launch(m, program, grid, block, shared_words)
        #: the CTA the launch is in
        entered = [-1]

        def hook(cta, executed, warps, shared_mem,
                 _golden=trace.launches[m].instructions_executed):
            if cta != entered[0]:
                entered[0] = cta
                if skip is not None and (n := skip(cta, executed, warps)):
                    return n
            if executed > _golden:
                # past the golden launch's count: a hang candidate
                return hang(cta, executed, warps, shared_mem)

        return run(program, grid, block, params, shared_words, hook)

    return launcher


__all__ = [
    "AccelStats",
    "HangCycle",
    "activation_sites",
    "affine_periods",
    "behavior_key",
    "injector_state",
    "replay_launcher",
]
