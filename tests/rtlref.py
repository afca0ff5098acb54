"""The RTL tool on the hook protocol, kept as a test reference.

:class:`RtlInstrumentation` is the ``before``/``after`` hook pair that
:class:`repro.rtl.injector.RtlInstrumentation` compiles into the step
table, kept as it was and served through :class:`tests.hookref.Hooked`
(every step of every warp inside the pair, masks built afresh, a forced
re-sync). :func:`run_reference` runs a target under it and classifies the
result as :func:`repro.rtl.injector.run_rtl_injection` does, so a test
can ask both for the outcome, DUE reason, corrupted outputs and relative
errors of the same fault.
"""

from __future__ import annotations

import numpy as np

from repro.common.exceptions import (
    DeviceError,
    IllegalInstructionError,
    InvalidRegisterError,
    WatchdogTimeoutError,
)
from repro.gpusim.alu import eval_alu
from repro.gpusim.executor import WARP_SIZE
from repro.isa.instruction import RZ
from repro.isa.opcodes import Op, OpClass, is_valid_opcode
from repro.rtl.injector import (
    RtlInjection,
    RtlOutcome,
    relative_errors,
    run_target,
)
from tests.hookref import HookContext, Hooked

_U32 = np.uint32


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


class RtlInstrumentation(Hooked):
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



def run_reference(target, injection: RtlInjection, golden_bits: np.ndarray,
                  watchdog: int) -> RtlOutcome:
    """:func:`repro.rtl.injector.run_rtl_injection` under the hook pair."""
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
