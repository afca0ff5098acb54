"""RTL stuck-at injection mechanics.

An :class:`RtlInjection` (site + polarity + temporal mode) is compiled
into the step table of every warp it can reach, so the site's bit is
forced at the exact pipeline moment the structure is used: operand
staging (before the instruction), result write-back (after), scheduler
mask/PC manipulation (execution-mask override and next-PC rewrite). One
injection is active for a whole run.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from repro.common.exceptions import (
    DeviceError,
    IllegalInstructionError,
    InvalidRegisterError,
    WatchdogTimeoutError,
)
from repro.common.rng import make_rng
from repro.gpusim.alu import alu_kernel, eval_alu
from repro.gpusim.config import DeviceConfig
from repro.gpusim.device import Device
from repro.gpusim.executor import WARP_SIZE, Instrumentation, TableCache, _SYNC
from repro.isa.instruction import RZ
from repro.isa.opcodes import Op, OpClass, is_valid_opcode
from repro.rtl.sites import RtlSite

_U32 = np.uint32
_ALL = np.ones(WARP_SIZE, dtype=bool)
_ALL.setflags(write=False)


@dataclass(frozen=True)
class RtlInjection:
    """One fault: a site, a polarity, and a temporal model.

    ``mode`` extends the methodology beyond permanent faults exactly as
    the paper suggests (§5.3): ``"permanent"`` forces the bit whenever the
    structure is exercised; ``"transient"`` forces it on a single dynamic
    exercise (``transient_event``, a soft error); ``"intermittent"``
    forces it on a seeded random subset (``intermittent_p``) of exercises
    (a marginal/aging device).
    """

    site: RtlSite
    stuck_at: int
    mode: str = "permanent"
    transient_event: int = 0
    intermittent_p: float = 0.25
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in ("permanent", "transient", "intermittent"):
            raise ValueError(f"unknown fault mode {self.mode!r}")

    def __str__(self) -> str:
        tag = "" if self.mode == "permanent" else f"/{self.mode}"
        return f"{self.site}/SA{self.stuck_at}{tag}"


def _apply_bit(values: np.ndarray, bit: int, stuck: int) -> np.ndarray:
    m = _U32(1 << bit)
    return values | m if stuck else values & ~m


def _apply_bit_int(value: int, bit: int, stuck: int) -> int:
    return value | (1 << bit) if stuck else value & ~(1 << bit)


_ALU_CLASSES = (OpClass.INT, OpClass.FP32, OpClass.SFU)


#: module -> the op classes whose instructions exercise it; the
#: scheduler takes part in every instruction
_MODULE_CLASSES = {
    "fu_int": (OpClass.INT,), "fu_fp32": (OpClass.FP32,),
    "fu_sfu": (OpClass.SFU,), "pipeline": (*_ALU_CLASSES, OpClass.MEM),
}


def _exercises(inj: RtlInjection):
    """``on() -> bool`` per exercise of the structure (transient: the
    ``transient_event``-th only; intermittent: a seeded subset), or
    ``None`` for a permanent fault, which acts at every exercise."""
    if inj.mode == "permanent":
        return None
    if inj.mode == "transient":
        count, event = itertools.count(), inj.transient_event
        return lambda: next(count) == event
    rng = make_rng(inj.seed, "intermittent", str(inj.site), inj.stuck_at)
    return lambda: bool(rng.random() < inj.intermittent_p)


def _gated(on, step, site):
    """*site* at the exercises *on* selects, *step* at the others."""
    def gated(w, m, active, top, env):
        return (site if on() else step)(w, m, active, top, env)
    return gated


# sites: ``build(tool, pc, instr, step, nregs) -> site`` per kind, or
# ``None`` where the kind cannot act. A site sees the loop's masks and
# returns ``_SYNC`` whenever it changed the alive mask, the stack or the
# next pc, or ran the step under an overridden exec mask.

def _specialize(step, lanes, before=None, after=None):
    """*step* with ``saved = before(w, mask)`` before it and
    ``after(w, mask, saved)`` after it, where *mask* is the fault's
    *lanes* in the exec mask: the plain step when there are none. An
    ``after`` that rewrote the next pc returns true."""
    def site(w, m, active, top, env):
        mask = lanes if m is None else lanes & m
        if not np.count_nonzero(mask):
            return step(w, m, active, top, env)
        saved = None if before is None else before(w, mask)
        res = step(w, m, active, top, env)
        if after is not None and after(w, mask, saved):
            return _SYNC
        return res
    return site


def _forcing(step, force):
    """*step* under the exec mask ``force(w, m, act)`` returns (*act*:
    the stack-active mask), then a re-sync; the plain step where it
    returns ``None``."""
    def site(w, m, active, top, env):
        forced = force(w, m, _ALL if active is None else active)
        if forced is None:
            return step(w, m, active, top, env)
        step(w, forced, active, top, env)
        return _SYNC
    return site


def _raise(error, msg: str):
    """A ``before`` or ``after`` raising *error* (a DUE)."""
    def fail(w, mask, saved=None):
        raise error(msg)
    return fail


def _writes(instr) -> bool:
    return instr.info.writes_reg and instr.dst != RZ


def _staged(tool, instr, reg: int, bit: int, step):
    """Source *reg* read with *bit* stuck on the fault's lanes; the
    register file keeps its value (an instruction that writes its own
    source keeps its result)."""
    if reg == RZ:
        return None
    stuck = tool.inj.stuck_at

    def before(w, mask):
        old = w.read_reg(reg)
        new = old.copy()
        new[mask] = _apply_bit(old[mask], bit, stuck)
        if np.array_equal(new, old):
            return None
        w.write_reg(reg, new, mask)
        return old

    def after(w, mask, old):
        if old is not None:
            w.write_reg(reg, old, mask)
    keeps = instr.info.writes_reg and instr.dst == reg
    return _specialize(step, tool.lanes, before, None if keeps else after)


def _operand(tool, pc, instr, step, nregs):
    # op_a/op_b/op_c of an ALU instruction, or the SFU's input
    kind = tool.inj.site.kind
    unit = kind.startswith("op_")
    k = "abc".index(kind[-1]) if unit else 0
    if unit and instr.info.op_class not in _ALU_CLASSES or k >= len(instr.srcs):
        return None
    return _staged(tool, instr, instr.srcs[k], tool.inj.site.bit, step)


def _ctl_memflags(tool, pc, instr, step, nregs):
    # the address the lanes issue carries the stuck flag bit
    if not (instr.info.is_mem and instr.srcs):
        return None
    return _staged(tool, instr, instr.srcs[0], 2 + 3 * tool.inj.site.bit,
                   step)


def _result(tool, pc, instr, step, nregs):
    """The written result with the bit stuck on the fault's lanes."""
    if not _writes(instr):
        return None
    d, bit, stuck = instr.dst, tool.inj.site.bit, tool.inj.stuck_at

    def after(w, mask, saved):
        val = w.read_reg(d)
        val[mask] = _apply_bit(val[mask], bit, stuck)
        w.write_reg(d, val, mask)
    return _specialize(step, tool.lanes, after=after)


def _sfu_counter(tool, pc, instr, step, nregs):
    """A stuck sequencing counter: the SFU's results land rotated among
    the threads it serves."""
    if not _writes(instr):
        return None
    d, bit = instr.dst, tool.inj.site.bit

    def after(w, mask, saved):
        pos = np.flatnonzero(mask)
        shift = (1 << bit) % len(pos)
        if shift:
            val = w.read_reg(d)
            val[pos] = val[np.roll(pos, shift)]
            w.write_reg(d, val, mask)
    return _specialize(step, tool.lanes, after=after)


def _sfu_busy(tool, pc, instr, step, nregs):
    return _specialize(step, tool.lanes, _raise(
        WatchdogTimeoutError, f"SFU{tool.inj.site.index} busy stuck"))


def _pc_bit(tool, pc, instr, step, nregs):
    # a fault in the PC write path acts on PC *writes* (backward branch
    # redirects), not on the sequential +1 stream, which is why the
    # scheduler AVF grows with control-flow-heavy codes; only a branch
    # writes the next pc
    if instr.op is not Op.BRA:
        return None
    bit, stuck = tool.inj.site.bit, tool.inj.stuck_at

    def after(w, mask, saved):
        entry = w.stack[-1]
        if entry.next_pc < pc:
            entry.next_pc = _apply_bit_int(entry.next_pc, bit, stuck)
            return True
    return _specialize(step, tool.lanes, after=after)


def _active_bit(tool, pc, instr, step, nregs):
    b = tool.inj.site.bit
    if not tool.inj.stuck_at:
        # the thread's active bit never reads 1: the thread is
        # descheduled, after this step ran under the mask it issued with
        def kill(w, m, act):
            if not w.alive[b]:
                return None
            w.alive[b] = False
            return _ALL if m is None else m
        return _forcing(step, kill)
    if instr.info.op_class is OpClass.CTRL:
        # warp-level control keeps its scheduler sequencing
        return None

    thread = np.arange(WARP_SIZE) == b

    def force(w, m, act):
        # an inactive (live) thread is forced onto the datapath
        if m is None or m[b] or not w.alive[b]:
            return None
        return m | thread
    return _forcing(step, force)


def _warp_enable(tool, pc, instr, step, nregs):
    if tool.inj.stuck_at:
        return None

    def kill(w, m, act):
        # incorrect warp detention: the slot is never issued again
        w.alive[:] = False
        return _ALL if m is None else m
    return _forcing(step, kill)


def _ctl_grpmask(tool, pc, instr, step, nregs):
    if instr.info.op_class is OpClass.CTRL:
        return None
    lanes = tool.lanes
    if tool.inj.stuck_at:
        return _forcing(step, lambda w, m, act:
                        None if m is None else m | (lanes & act))
    return _forcing(step, lambda w, m, act:
                    (_ALL if m is None else m) & ~lanes)


def _ctl_pred(tool, pc, instr, step, nregs):
    val = instr.pred | (int(instr.pred_neg) << 3)
    bad = _apply_bit_int(val, tool.inj.site.bit, tool.inj.stuck_at)
    if bad == val:
        return None
    p, neg, lanes = bad & 7, bool(bad & 8), tool.lanes

    def force(w, m, act):
        # the lanes read the guard of the corrupted predicate field
        g = w.pcols[p]
        return np.where(lanes, act > g if neg else act & g,
                        _ALL if m is None else m)
    return _forcing(step, force)


def _ctl_wben(tool, pc, instr, step, nregs):
    lanes, d = tool.lanes, instr.dst
    if tool.inj.stuck_at:
        # write-back always enabled: the lanes the guard disabled write
        return _forcing(step, lambda w, m, act:
                        None if m is None else np.where(lanes, act, m))
    if not _writes(instr):
        return None
    # no write-back: the lanes keep their old destination
    return _specialize(step, lanes, lambda w, mask: w.read_reg(d),
                       lambda w, mask, old: w.write_reg(d, old, mask))


def _ctl_dest(tool, pc, instr, step, nregs):
    d = instr.dst
    bad = _apply_bit_int(d, tool.inj.site.bit, tool.inj.stuck_at)
    if not _writes(instr) or bad == d:
        return None

    def after(w, mask, old):
        # the result goes to the wrong register on the fault's lanes
        if bad != RZ and bad >= nregs:
            raise InvalidRegisterError(f"pipeline dest corruption -> R{bad}")
        w.write_reg(bad, w.read_reg(d), mask)
        w.write_reg(d, old, mask)
    return _specialize(step, tool.lanes, lambda w, mask: w.read_reg(d),
                       after)


def _opcode(tool, pc, instr, step, nregs):
    op = int(instr.op)
    bad = _apply_bit_int(op, tool.inj.site.bit, tool.inj.stuck_at)
    if bad == op:
        return None
    if not _writes(instr):
        return _specialize(step, tool.lanes, _raise(
            IllegalInstructionError,
            f"pipeline opcode corruption on {instr.op.name}"))
    # what the lanes decode instead, found after the instruction ran: an
    # invalid opcode, an operation with no register result, or one
    # computed from the operands
    repl = Op(bad) if is_valid_opcode(bad) else None
    if repl is None or alu_kernel(repl, instr.aux) is None:
        name = f"0x{bad:02x}" if repl is None \
            else f"{repl.name} (format mismatch)"
        return _specialize(step, tool.lanes, after=_raise(
            IllegalInstructionError, f"pipeline opcode corruption -> {name}"))
    srcs, d, aux = instr.srcs, instr.dst, instr.aux
    imm = [np.full(WARP_SIZE, instr.imm, dtype=_U32)] if instr.use_imm else []
    return _specialize(step, tool.lanes,
                       lambda w, mask: [w.read_reg(r) for r in srcs] + imm,
                       lambda w, mask, ops: w.write_reg(
                           d, eval_alu(repl, ops, aux=aux), mask))


#: site kind -> site builder; a kind not listed (``internal``, ``age_ctr``,
#: ``rr_ptr``: truncated datapath extensions and issue-order bookkeeping,
#: structurally present but architecturally unobservable) never acts
_SITES = {
    "op_a": _operand, "op_b": _operand, "op_c": _operand, "sfu_in": _operand,
    "res": _result, "sfu_out": _result,
    "sfu_counter": _sfu_counter, "sfu_busy": _sfu_busy,
    "active_bit": _active_bit, "warp_enable": _warp_enable,
    "pc_bit": _pc_bit,
    "ctl_grpmask": _ctl_grpmask, "ctl_pred": _ctl_pred,
    "ctl_wben": _ctl_wben, "ctl_dest": _ctl_dest,
    "ctl_opcode": _opcode, "ibuf_opcode": _opcode,
    "ctl_memflags": _ctl_memflags,
}


class RtlInstrumentation:
    """One RTL fault, compiled into the step table of each warp it reaches.

    The module picks the pcs that exercise the structure, the site kind
    what happens there, and ``pc_bit``/``warp_enable`` faults reach only
    warp ``index`` of each CTA. Under the transient and intermittent
    modes every exercise (a module-matching pc of any warp) counts, and
    the site acts at the ones the mode selects (docs/PERFORMANCE.md,
    "Compiled RTL sites").
    """

    def __init__(self, injection: RtlInjection):
        self.inj = injection
        s = injection.site
        #: the thread positions the faulty structure serves: 8 lanes serve
        #: a warp in 4 sub-groups of 8 threads, control registers leak
        #: into the next sub-group, each SFU serves 16 threads
        t = np.arange(WARP_SIZE)
        sticky = (t // 8 - s.index) % 4 < 2
        if s.kind in ("op_a", "op_b", "op_c", "res", "internal"):
            # dedicated per-thread units (paper: one ADD/MUL/MAD per
            # thread slot) touch a single thread position
            lanes = t == s.index if s.module.startswith("fu_") \
                else t % 8 == s.index
        elif s.kind.startswith("sfu_"):
            lanes = t % 16 // 8 == s.index
        elif s.kind == "ctl_grpmask":
            lanes = sticky & (t % 8 == s.bit)
        elif s.kind.startswith("ctl_"):
            lanes = sticky
        else:
            lanes = t >= 0
        lanes.setflags(write=False)
        self.lanes = lanes
        self._build = _SITES.get(s.kind)
        self._on = _exercises(injection)
        self._warp = s.index if s.kind in ("pc_bit", "warp_enable") else None
        self._tables = TableCache()

    def table(self, warp, decoded) -> list:
        """The step table *warp* runs its next slice under (*decoded* is
        its program's decode table)."""
        reached = self._warp is None or warp.warp_in_cta == self._warp
        return self._tables.table(decoded, reached,
                                  lambda: self._compile(decoded, reached))

    def _compile(self, decoded, reached: bool) -> list:
        if self._build is None:
            return decoded.steps
        classes = _MODULE_CLASSES.get(self.inj.site.module)
        steps = list(decoded.steps)
        for pc, (step, guard, neg, instr) in enumerate(decoded.steps):
            if classes is not None and instr.info.op_class not in classes:
                continue
            site = self._build(self, pc, instr, step, decoded.nregs) \
                if reached else None
            if self._on is not None:
                site = _gated(self._on, step, site or step)
            if site is not None:
                steps[pc] = (site, guard, neg, instr)
        # a table with no site is the decode table itself
        return steps if steps != decoded.steps else decoded.steps


@dataclass
class RtlOutcome:
    """Classified result of one RTL injection run."""

    injection: RtlInjection
    outcome: str                    # "masked" | "sdc" | "due"
    due_reason: str | None = None
    corrupted: np.ndarray | None = None     # indices of corrupted outputs
    rel_errors: np.ndarray | None = None    # per corrupted element

    @property
    def num_corrupted(self) -> int:
        return 0 if self.corrupted is None else len(self.corrupted)


@dataclass(kw_only=True)
class RtlTally:
    """Masked/SDC/DUE counters of one cell of an RTL study; SDCs split by
    whether one or several output elements were corrupted."""

    n_injections: int = 0
    n_due: int = 0
    n_sdc_single: int = 0
    n_sdc_multi: int = 0

    def tally(self, outcome: str, num_corrupted: int = 0) -> None:
        """Count one injection outcome (``masked`` | ``sdc`` | ``due``)."""
        self.n_injections += 1
        if outcome == "due":
            self.n_due += 1
        elif outcome == "sdc" and num_corrupted > 1:
            self.n_sdc_multi += 1
        elif outcome == "sdc":
            self.n_sdc_single += 1

    @property
    def avf_sdc_single(self) -> float:
        return 100.0 * self.n_sdc_single / max(self.n_injections, 1)

    @property
    def avf_sdc_multi(self) -> float:
        return 100.0 * self.n_sdc_multi / max(self.n_injections, 1)

    @property
    def avf_due(self) -> float:
        return 100.0 * self.n_due / max(self.n_injections, 1)


def relative_errors(golden_bits: np.ndarray, faulty_bits: np.ndarray,
                    idx: np.ndarray, fp: bool) -> np.ndarray:
    """|faulty - golden| / |golden| per corrupted element."""
    if fp:
        g = golden_bits.view(np.float32)[idx].astype(np.float64)
        f = faulty_bits.view(np.float32)[idx].astype(np.float64)
    else:
        g = golden_bits.view(np.int32)[idx].astype(np.float64)
        f = faulty_bits.view(np.int32)[idx].astype(np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):
        denom = np.maximum(np.abs(g), 1e-30)
        rel = np.abs(f - g) / denom
    return np.nan_to_num(rel, nan=1e30, posinf=1e30)


def run_target(target, watchdog: int, tool: Instrumentation | None = None
               ) -> tuple[np.ndarray, int]:
    """Run *target* (anything with ``run_golden(device, launcher)``) on a
    fresh device, every launch under *tool* and a *watchdog* instruction
    budget; returns its output bits and the instructions it executed."""
    device = Device(DeviceConfig(global_mem_words=1 << 24))
    executed = 0

    def launch(program, grid, block, params=(), shared_words=None):
        nonlocal executed
        res = device.launch(program, grid, block, params=params,
                            shared_words=shared_words, watchdog=watchdog,
                            instrumentation=tool)
        executed += res.instructions_executed
        return res

    return target.run_golden(device, launch), executed


def run_rtl_injection(target, injection: RtlInjection,
                      golden_bits: np.ndarray, watchdog: int) -> RtlOutcome:
    """Run *target* under one RTL fault and classify the result against
    *golden_bits*; a run past *watchdog* instructions is a hang (DUE)."""
    try:
        faulty, _ = run_target(target, watchdog,
                               RtlInstrumentation(injection))
    except DeviceError as exc:
        return RtlOutcome(injection, "due", due_reason=exc.reason)
    diff = np.nonzero(faulty != golden_bits)[0]
    if diff.size == 0:
        return RtlOutcome(injection, "masked")
    rel = relative_errors(golden_bits, faulty, diff, target.is_fp)
    return RtlOutcome(injection, "sdc", corrupted=diff, rel_errors=rel)
