"""The per-model error functions (paper §5.1, Figs. IRAerr/IA-T-W-C/IALerr/
WVerr).

Each injector implements ``targets(instr)`` — does this static instruction
map onto the corrupted hardware — and ``before``/``after`` error functions
operating on the executor hook context, restricted to the victim lanes
computed by the dispatcher.
"""

from __future__ import annotations

import numpy as np

from repro.common.exceptions import IllegalInstructionError
from repro.errormodels.descriptor import ErrorDescriptor
from repro.gpusim.alu import eval_alu
from repro.gpusim.executor import HookContext, WARP_SIZE
from repro.isa.instruction import Instruction, RZ
from repro.isa.opcodes import Op, OpClass, SpecialReg

_U32 = np.uint32


class BaseInjector:
    """Common machinery for one error model's error functions."""

    def __init__(self, desc: ErrorDescriptor):
        self.desc = desc
        self._saved: list[tuple[int, np.ndarray]] = []

    # -- interface -------------------------------------------------------
    def targets(self, instr: Instruction) -> bool:
        raise NotImplementedError

    def before(self, ctx: HookContext, victims: np.ndarray) -> None:
        pass

    def after(self, ctx: HookContext, victims: np.ndarray) -> None:
        pass

    def registers(self, instr: Instruction) -> tuple[int, ...]:
        """Every register the error functions may read or write at an
        activation on *instr* (its operands and destination unless a
        model reaches further)."""
        return (*instr.srcs, instr.dst)

    # -- helpers ---------------------------------------------------------
    def _xor_reg(self, ctx: HookContext, reg: int, victims: np.ndarray) -> None:
        if reg == RZ:
            return
        val = ctx.read_reg(reg)
        val[victims] ^= _U32(self.desc.bit_err_mask)
        ctx.write_reg(reg, val, victims)

    def _corrupted_reg(self, reg: int) -> int:
        return (reg ^ self.desc.bit_err_mask) & 0xFF


class IRAInjector(BaseInjector):
    """Incorrect Register Addressed: a wrong (valid) register is used as
    the destination (errOperLoc=0) or one of the sources (1..3)."""

    def targets(self, instr: Instruction) -> bool:
        loc = self.desc.err_oper_loc
        if loc == 0:
            return instr.info.writes_reg and instr.dst != RZ
        return len(instr.srcs) >= loc

    def before(self, ctx: HookContext, victims: np.ndarray) -> None:
        instr = ctx.instr
        loc = self.desc.err_oper_loc
        if loc == 0:
            # Part I: M <= Rd (save the victim destination's old value)
            self._saved = [(instr.dst, ctx.read_reg(instr.dst))]
        else:
            src = instr.srcs[loc - 1]
            wrong = self._corrupted_reg(src)
            self._saved = [(src, ctx.read_reg(src))]
            wrong_val = ctx.read_reg(wrong)  # may raise for IVRA masks
            val = ctx.read_reg(src)
            val[victims] = wrong_val[victims]
            ctx.write_reg(src, val, victims)

    def registers(self, instr: Instruction) -> tuple[int, ...]:
        loc = self.desc.err_oper_loc
        right = instr.dst if loc == 0 else instr.srcs[loc - 1]
        return (*super().registers(instr), self._corrupted_reg(right))

    def after(self, ctx: HookContext, victims: np.ndarray) -> None:
        instr = ctx.instr
        loc = self.desc.err_oper_loc
        if loc == 0:
            # R_IR <= Rd (result to the wrong register); Rd <= M
            wrong = self._corrupted_reg(instr.dst)
            result = ctx.read_reg(instr.dst)
            ctx.write_reg(wrong, result, victims)
            reg, old = self._saved[0]
            ctx.write_reg(reg, old, victims)
        else:
            reg, old = self._saved[0]
            ctx.write_reg(reg, old, victims)
        self._saved = []


class IVRAInjector(IRAInjector):
    """Invalid Register Addressed: same mechanics, but the corrupted
    register number lies outside the per-thread allocation — reading or
    writing it raises the device exception the paper observes as DUE."""


class IOCInjector(BaseInjector):
    """Incorrect Operation Code: integer/FP instructions execute a
    different (valid) operation on the same operands."""

    def targets(self, instr: Instruction) -> bool:
        return (instr.info.op_class in (OpClass.INT, OpClass.FP32)
                and instr.info.writes_reg and instr.dst != RZ)

    def before(self, ctx: HookContext, victims: np.ndarray) -> None:
        srcs = [ctx.read_reg(r) for r in ctx.instr.srcs]
        if ctx.instr.use_imm:
            srcs.append(np.full(WARP_SIZE, ctx.instr.imm, dtype=_U32))
        self._srcs = srcs

    def after(self, ctx: HookContext, victims: np.ndarray) -> None:
        repl = self.desc.replacement_op
        if repl is ctx.instr.op:
            return
        alt = eval_alu(repl, self._srcs, aux=ctx.instr.aux)
        if alt is None:
            raise IllegalInstructionError(
                f"IOC replacement {repl.name} has no register result"
            )
        ctx.write_reg(ctx.instr.dst, alt, victims)


class IVOCInjector(BaseInjector):
    """Invalid Operation Code: the corrupted opcode is not a valid
    instruction; the device raises an illegal-instruction exception."""

    def targets(self, instr: Instruction) -> bool:
        return True

    def before(self, ctx: HookContext, victims: np.ndarray) -> None:
        raise IllegalInstructionError("IVOC: invalid opcode fetched")


class IIOInjector(BaseInjector):
    """Incorrect Immediate Operand: the destination of every instruction
    consuming an immediate is corrupted by the bit mask."""

    def targets(self, instr: Instruction) -> bool:
        return (instr.reads_immediate and instr.info.writes_reg
                and instr.dst != RZ)

    def after(self, ctx: HookContext, victims: np.ndarray) -> None:
        self._xor_reg(ctx, ctx.instr.dst, victims)


class WVInjector(BaseInjector):
    """Work-flow Violation: the written predicate flips for the victims."""

    def targets(self, instr: Instruction) -> bool:
        return instr.info.writes_pred

    def after(self, ctx: HookContext, victims: np.ndarray) -> None:
        p = ctx.instr.pdst
        val = ctx.read_pred(p)
        if self.desc.bit_err_mask & 1:
            val[victims] = ~val[victims]
        ctx.write_pred(p, val, victims)


class _S2RInjector(BaseInjector):
    """Shared behaviour of IAT/IAW/IAC: corrupt the thread/CTA index read
    through S2R, skewing the thread's view of its own identity."""

    sregs: tuple[SpecialReg, ...] = ()

    def targets(self, instr: Instruction) -> bool:
        return (instr.op is Op.S2R and instr.aux in
                tuple(int(s) for s in self.sregs))

    def after(self, ctx: HookContext, victims: np.ndarray) -> None:
        self._xor_reg(ctx, ctx.instr.dst, victims)


class IATInjector(_S2RInjector):
    """Incorrect Active Thread: selected threads read a wrong TID (the
    execution of the victim thread is replaced by another's)."""

    sregs = (SpecialReg.TID_X, SpecialReg.TID_Y, SpecialReg.TID_Z)


class IAWInjector(_S2RInjector):
    """Incorrect Active Warp: all TID reads of the victim warp shift — a
    full warp substitution."""

    sregs = (SpecialReg.TID_X, SpecialReg.TID_Y, SpecialReg.TID_Z)


class IACInjector(_S2RInjector):
    """Incorrect Active CTA: the block index reads wrong."""

    sregs = (SpecialReg.CTAID_X, SpecialReg.CTAID_Y, SpecialReg.CTAID_Z)


class IALInjector(BaseInjector):
    """Incorrect Active Lane: disable mode discards the results computed
    on the victim lane; enable mode forces predicated-off instructions on
    that lane to execute."""

    def __init__(self, desc: ErrorDescriptor):
        super().__init__(desc)
        #: the faulty lane in each group of eight (built once: it depends
        #: on the descriptor alone)
        self._lanes = np.zeros(WARP_SIZE, dtype=bool)
        self._lanes[[desc.lane, desc.lane + 8, desc.lane + 16,
                     desc.lane + 24]] = True

    def targets(self, instr: Instruction) -> bool:
        return instr.info.op_class in (OpClass.INT, OpClass.FP32)

    def before(self, ctx: HookContext, victims: np.ndarray) -> None:
        instr = ctx.instr
        if self.desc.lane_enable_mode == "disable":
            if instr.info.writes_reg and instr.dst != RZ:
                self._saved = [(instr.dst, ctx.read_reg(instr.dst))]
        else:
            # force execution where the guard predicate disabled it
            exec_mask = ctx.exec_mask.copy()
            forced = self._lanes & victims & ctx.active_mask & ctx.warp.alive
            exec_mask |= forced
            ctx.override_exec_mask(exec_mask)

    def after(self, ctx: HookContext, victims: np.ndarray) -> None:
        if self.desc.lane_enable_mode != "disable" or not self._saved:
            return
        reg, old = self._saved[0]
        restore = self._lanes & victims & ctx.exec_mask
        if restore.any():
            ctx.write_reg(reg, old, restore)
        self._saved = []


class IPPInjector(BaseInjector):
    """Incorrect Parallel Parameter: the paper notes IPP manifests as
    wrong resource addressing (IRA/IMS/IMD) or incorrect thread/warp
    execution (IAT/IAW), so this injector deterministically delegates to
    one of those representations based on the descriptor parameters."""

    _DELEGATES = ("IRA", "IAT", "IAW", "IMS", "IMD")

    def __init__(self, desc: ErrorDescriptor):
        super().__init__(desc)
        choice = (desc.bit_err_mask.bit_length() + desc.lane
                  + desc.err_oper_loc) % len(self._DELEGATES)
        name = self._DELEGATES[choice]
        table = {
            "IRA": IRAInjector, "IAT": IATInjector, "IAW": IAWInjector,
            "IMS": IMSInjector, "IMD": IMDInjector,
        }
        # keep register corruption valid: IRA delegation caps the mask
        if name == "IRA" and desc.bit_err_mask >= 64:
            from dataclasses import replace

            desc = replace(desc, bit_err_mask=desc.bit_err_mask % 32 + 1)
        self.delegate: BaseInjector = table[name](desc)
        self.delegate_name = name

    def targets(self, instr: Instruction) -> bool:
        return self.delegate.targets(instr)

    def before(self, ctx: HookContext, victims: np.ndarray) -> None:
        self.delegate.before(ctx, victims)

    def after(self, ctx: HookContext, victims: np.ndarray) -> None:
        self.delegate.after(ctx, victims)

    def registers(self, instr: Instruction) -> tuple[int, ...]:
        return self.delegate.registers(instr)


class IMSInjector(BaseInjector):
    """Incorrect Memory Source: instructions reading constant or shared
    memory deliver a corrupted value."""

    def targets(self, instr: Instruction) -> bool:
        return instr.op in (Op.LDS, Op.LDC)

    def after(self, ctx: HookContext, victims: np.ndarray) -> None:
        self._xor_reg(ctx, ctx.instr.dst, victims)


class IMDInjector(BaseInjector):
    """Incorrect Memory Destination: shared-memory stores corrupt either
    the stored data (errOperLoc even) or the addressing register (odd)."""

    def targets(self, instr: Instruction) -> bool:
        return instr.op is Op.STS

    def before(self, ctx: HookContext, victims: np.ndarray) -> None:
        addr_reg, data_reg = ctx.instr.srcs
        victim_reg = data_reg if self.desc.err_oper_loc % 2 == 0 else addr_reg
        self._xor_reg(ctx, victim_reg, victims)
