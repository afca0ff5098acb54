"""RTL stuck-at injection mechanics.

An :class:`RtlInjection` (site + polarity) is turned into executor
instrumentation that forces the site's bit at the exact pipeline moment
the structure is used: operand staging (before the instruction), result
write-back (after), scheduler mask/PC manipulation (execution-mask
override and next-PC rewrite). One injection is active for a whole run —
the fault is permanent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.exceptions import (
    DeviceError,
    IllegalInstructionError,
    InvalidRegisterError,
    WatchdogTimeoutError,
)
from repro.gpusim.alu import eval_alu
from repro.gpusim.config import DeviceConfig
from repro.gpusim.device import Device
from repro.gpusim.executor import HookContext, WARP_SIZE
from repro.isa.instruction import RZ
from repro.isa.opcodes import Op, OpClass, is_valid_opcode
from repro.rtl.sites import RtlSite

_U32 = np.uint32


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


def _positions_lane(lane: int) -> np.ndarray:
    """Threads served by physical lane *lane* (4 sub-groups)."""
    return np.array([lane, lane + 8, lane + 16, lane + 24])


def _positions_sticky_group(grp: int) -> np.ndarray:
    """Threads of sub-group *grp* and the following one (stale control)."""
    g2 = (grp + 1) % 4
    return np.concatenate([np.arange(8 * grp, 8 * grp + 8),
                           np.arange(8 * g2, 8 * g2 + 8)])


def _positions_sticky_lane(grp: int, lane: int) -> np.ndarray:
    g2 = (grp + 1) % 4
    return np.array([8 * grp + lane, 8 * g2 + lane])


def _positions_sfu(sfu: int) -> np.ndarray:
    t = np.arange(WARP_SIZE)
    return t[((t % 16) // 8) == sfu]


def _apply_bit(values: np.ndarray, bit: int, stuck: int) -> np.ndarray:
    m = _U32(1 << bit)
    if stuck:
        return values | m
    return values & ~m


def _apply_bit_int(value: int, bit: int, stuck: int) -> int:
    return value | (1 << bit) if stuck else value & ~(1 << bit)


_ALU_CLASSES = (OpClass.INT, OpClass.FP32, OpClass.SFU)


class RtlInstrumentation:
    """Executor hooks realizing one permanent RTL fault."""

    def __init__(self, injection: RtlInjection):
        self.inj = injection
        self._saved: list[tuple[int, np.ndarray, np.ndarray]] = []
        self._pending = None
        self._events = 0
        self._on = True
        if injection.mode == "intermittent":
            from repro.common.rng import make_rng

            self._rng = make_rng(injection.seed, "intermittent",
                                 str(injection.site), injection.stuck_at)
        s = injection.site
        if s.kind in ("op_a", "op_b", "op_c", "res", "internal"):
            if s.module.startswith("fu_"):
                # dedicated per-thread units (paper: one ADD/MUL/MAD per
                # thread slot): the fault touches a single thread position
                self._lanes = np.array([s.index])
            else:
                self._lanes = _positions_lane(s.index)
        elif s.kind in ("sfu_in", "sfu_out", "sfu_counter", "sfu_busy"):
            self._lanes = _positions_sfu(s.index)
        elif s.kind in ("ctl_opcode", "ctl_dest", "ctl_memflags", "ctl_pred",
                        "ctl_wben"):
            self._lanes = _positions_sticky_group(s.index)
        elif s.kind == "ctl_grpmask":
            self._lanes = _positions_sticky_lane(s.index, s.bit)
        else:
            self._lanes = np.arange(WARP_SIZE)
        self._lane_mask = np.zeros(WARP_SIZE, dtype=bool)
        self._lane_mask[self._lanes] = True

    # ------------------------------------------------------------------
    def _module_matches(self, ctx: HookContext) -> bool:
        m = self.inj.site.module
        cl = ctx.instr.info.op_class
        if m == "fu_int":
            return cl is OpClass.INT
        if m == "fu_fp32":
            return cl is OpClass.FP32
        if m == "fu_sfu":
            return cl is OpClass.SFU
        if m == "pipeline":
            return cl in _ALU_CLASSES or ctx.instr.info.is_mem
        return True  # scheduler: every instruction

    # ------------------------------------------------------------------
    def _fault_active_now(self) -> bool:
        """Temporal gating: permanent always, transient once, intermittent
        on a seeded subset of exercises."""
        mode = self.inj.mode
        if mode == "permanent":
            return True
        event = self._events
        self._events += 1
        if mode == "transient":
            return event == self.inj.transient_event
        return bool(self._rng.random() < self.inj.intermittent_p)

    def before(self, ctx: HookContext) -> None:
        self._saved = []
        self._pending = None
        self._on = False
        if not self._module_matches(ctx):
            return
        self._on = self._fault_active_now()
        if not self._on:
            return
        s, stuck = self.inj.site, self.inj.stuck_at
        kind = s.kind
        if kind in ("internal", "age_ctr", "rr_ptr"):
            # truncated datapath extensions / issue-order bookkeeping:
            # structurally present, architecturally unobservable
            return
        if kind in ("op_a", "op_b", "op_c"):
            if ctx.instr.info.op_class in _ALU_CLASSES:
                self._corrupt_operand(ctx, ("op_a", "op_b", "op_c").index(kind))
        elif kind == "sfu_in":
            self._corrupt_operand(ctx, 0)
        elif kind == "sfu_busy":
            if ctx.exec_mask[self._lanes].any():
                raise WatchdogTimeoutError(f"SFU{s.index} busy stuck")
        elif kind == "active_bit":
            if stuck:
                # enabling an inactive thread: forced onto the datapath
                # (warp-level control keeps its scheduler sequencing)
                if ctx.instr.info.op_class is OpClass.CTRL:
                    return
                exec_mask = ctx.exec_mask.copy()
                exec_mask[s.bit] |= ctx.warp.alive[s.bit]
                ctx.override_exec_mask(exec_mask)
            else:
                # the thread's active bit can never be seen as 1 by the
                # scheduler: the thread is permanently descheduled
                if ctx.warp.alive[s.bit]:
                    ctx.warp.alive[s.bit] = False
        elif kind == "warp_enable":
            # incorrect warp detention: the slot is never issued again
            if not stuck and ctx.warp.warp_in_cta == s.index:
                ctx.warp.alive[:] = False
        elif kind == "ctl_grpmask":
            if ctx.instr.info.op_class is OpClass.CTRL:
                return
            exec_mask = ctx.exec_mask.copy()
            if stuck:
                exec_mask[self._lanes] |= (ctx.active_mask
                                           & ctx.warp.alive)[self._lanes]
            else:
                exec_mask[self._lanes] = False
            ctx.override_exec_mask(exec_mask)
        elif kind == "ctl_pred":
            val = ctx.instr.pred | (int(ctx.instr.pred_neg) << 3)
            bad = _apply_bit_int(val, s.bit, stuck)
            if bad != val:
                guard = ctx.read_pred(bad & 7)
                if bad & 8:
                    guard = ~guard
                exec_mask = ctx.exec_mask.copy()
                sel = self._lane_mask
                exec_mask[sel] = (ctx.active_mask & guard)[sel]
                ctx.override_exec_mask(exec_mask)
        elif kind == "ctl_wben":
            if stuck:
                exec_mask = ctx.exec_mask.copy()
                sel = self._lane_mask
                exec_mask[sel] = (ctx.active_mask & ctx.warp.alive)[sel]
                ctx.override_exec_mask(exec_mask)
            else:
                self._save_dst(ctx)
        elif kind == "ctl_dest":
            self._save_dst(ctx)
            ok_srcs = [ctx.read_reg(r) for r in ctx.instr.srcs]
            self._pending = ("dest", ok_srcs)
        elif kind in ("ctl_opcode", "ibuf_opcode"):
            if ctx.instr.info.writes_reg and ctx.instr.dst != RZ:
                srcs = [ctx.read_reg(r) for r in ctx.instr.srcs]
                if ctx.instr.use_imm:
                    srcs.append(np.full(WARP_SIZE, ctx.instr.imm, dtype=_U32))
                self._pending = ("opcode", srcs)
            else:
                bad = _apply_bit_int(int(ctx.instr.op), s.bit, stuck)
                if bad != int(ctx.instr.op) and ctx.exec_mask[
                        self._lanes].any():
                    raise IllegalInstructionError(
                        f"pipeline opcode corruption on {ctx.instr.op.name}"
                    )
        elif kind == "ctl_memflags":
            if ctx.instr.info.is_mem and ctx.instr.srcs:
                base = ctx.instr.srcs[0]
                old = ctx.read_reg(base)
                mask = self._lane_mask & ctx.exec_mask
                if mask.any() and base != RZ:
                    new = old.copy()
                    new[mask] = _apply_bit(old[mask], 2 + 3 * s.bit, stuck)
                    ctx.write_reg(base, new, mask)
                    self._saved.append((base, old, mask))

    # ------------------------------------------------------------------
    def after(self, ctx: HookContext) -> None:
        if not self._on or not self._module_matches(ctx):
            return
        s, stuck = self.inj.site, self.inj.stuck_at
        kind = s.kind
        instr = ctx.instr
        writes = instr.info.writes_reg and instr.dst != RZ

        if kind in ("res", "sfu_out") and writes:
            mask = self._lane_mask & ctx.exec_mask
            if mask.any():
                val = ctx.read_reg(instr.dst)
                val[mask] = _apply_bit(val[mask], s.bit, stuck)
                ctx.write_reg(instr.dst, val, mask)
        elif kind == "sfu_counter" and writes:
            mask = self._lane_mask & ctx.exec_mask
            pos = np.nonzero(mask)[0]
            if len(pos) >= 2:
                val = ctx.read_reg(instr.dst)
                shift = (1 << s.bit) % len(pos)
                if shift:
                    val[pos] = val[np.roll(pos, shift)]
                    ctx.write_reg(instr.dst, val, mask)
        elif kind == "pc_bit":
            # fault in the PC write path: activates on PC *writes* (branch
            # redirects), not on the sequential +1 stream — which is why
            # the scheduler AVF grows with control-flow-heavy codes
            if ctx.warp.warp_in_cta == s.index and ctx.exec_mask.any():
                top = ctx.warp.stack[-1]
                if top.next_pc != ctx.pc + 1 and top.next_pc < ctx.pc:
                    top.next_pc = _apply_bit_int(top.next_pc, s.bit, stuck)
        elif kind == "ctl_dest" and self._pending and writes:
            _, _srcs = self._pending
            bad_dst = _apply_bit_int(instr.dst, s.bit, stuck)
            if bad_dst != instr.dst:
                mask = self._lane_mask & ctx.exec_mask
                if mask.any():
                    if bad_dst != RZ and bad_dst >= ctx.nregs:
                        raise InvalidRegisterError(
                            f"pipeline dest corruption -> R{bad_dst}"
                        )
                    newval = ctx.read_reg(instr.dst)
                    ctx.write_reg(bad_dst, newval, mask)
                    self._restore(ctx, only_mask=mask)
        elif kind in ("ctl_opcode", "ibuf_opcode") and self._pending:
            _, srcs = self._pending
            bad = _apply_bit_int(int(instr.op), s.bit, stuck)
            if bad != int(instr.op):
                mask = self._lane_mask & ctx.exec_mask
                if mask.any():
                    if not is_valid_opcode(bad):
                        raise IllegalInstructionError(
                            f"pipeline opcode corruption -> 0x{bad:02x}"
                        )
                    alt = eval_alu(Op(bad), srcs, aux=instr.aux)
                    if alt is None:
                        raise IllegalInstructionError(
                            f"pipeline opcode corruption -> "
                            f"{Op(bad).name} (format mismatch)"
                        )
                    ctx.write_reg(instr.dst, alt, mask)

        # operand/address restoration (register file was never the victim)
        if kind in ("op_a", "op_b", "op_c", "sfu_in", "ctl_memflags"):
            self._restore_operands(ctx)
        elif kind == "ctl_wben" and not stuck:
            # no write-back: undo the result on the affected lanes
            if self._saved and writes:
                mask = self._lane_mask & ctx.exec_mask
                reg, old, _ = self._saved[0]
                ctx.write_reg(reg, old, mask)
            self._saved = []

    # ------------------------------------------------------------------
    def _corrupt_operand(self, ctx: HookContext, operand_idx: int) -> None:
        instr = ctx.instr
        if operand_idx >= len(instr.srcs):
            return
        reg = instr.srcs[operand_idx]
        if reg == RZ:
            return
        mask = self._lane_mask & ctx.exec_mask
        if not mask.any():
            return
        old = ctx.read_reg(reg)
        new = old.copy()
        new[mask] = _apply_bit(old[mask], self.inj.site.bit, self.inj.stuck_at)
        if not np.array_equal(new, old):
            ctx.write_reg(reg, new, mask)
            self._saved.append((reg, old, mask))

    def _save_dst(self, ctx: HookContext) -> None:
        instr = ctx.instr
        if instr.info.writes_reg and instr.dst != RZ:
            self._saved.append((instr.dst, ctx.read_reg(instr.dst), None))

    def _restore_operands(self, ctx: HookContext) -> None:
        instr = ctx.instr
        for reg, old, mask in self._saved:
            restore = mask.copy()
            # if the instruction wrote its own source, keep the result
            if instr.info.writes_reg and instr.dst == reg:
                restore &= ~ctx.exec_mask
            if restore.any():
                ctx.write_reg(reg, old, restore)
        self._saved = []

    def _restore(self, ctx: HookContext, only_mask: np.ndarray) -> None:
        for reg, old, _ in self._saved:
            ctx.write_reg(reg, old, only_mask)
        self._saved = []


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


def run_target(target, watchdog: int, hooks: RtlInstrumentation | None = None
               ) -> tuple[np.ndarray, int]:
    """Run *target* (anything with ``run_golden(device, launcher)``) on a
    fresh device, every launch under *hooks* and a *watchdog* instruction
    budget; returns its output bits and the instructions it executed."""
    device = Device(DeviceConfig(global_mem_words=1 << 24))
    executed = 0

    def launch(program, grid, block, params=(), shared_words=None):
        nonlocal executed
        res = device.launch(program, grid, block, params=params,
                            shared_words=shared_words, watchdog=watchdog,
                            instrumentation=hooks)
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
