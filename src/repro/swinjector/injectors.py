"""The per-model error functions (paper §5.1, Figs. IRAerr/IA-T-W-C/IALerr/
WVerr).

Each injector implements ``targets(instr)`` — does this static instruction
map onto the corrupted hardware — and ``error_functions(instr)``, which
:meth:`BaseInjector.specialize` compiles around the instruction's step,
restricted to the victim lanes the dispatcher's thread mask selects.
"""

from __future__ import annotations

import numpy as np

from repro.common.exceptions import IllegalInstructionError
from repro.errormodels.descriptor import ErrorDescriptor
from repro.gpusim.alu import alu_kernel
from repro.gpusim.executor import WARP_SIZE
from repro.isa.instruction import Instruction, PT, RZ
from repro.isa.opcodes import OPCODE_INFO, Op, OpClass, SpecialReg

_U32 = np.uint32


class BaseInjector:
    """Common machinery for one error model's error functions."""

    def __init__(self, desc: ErrorDescriptor):
        self.desc = desc

    # -- interface -------------------------------------------------------
    def targets(self, instr: Instruction) -> bool:
        raise NotImplementedError

    def target_key(self) -> tuple:
        """Hashable identity of :meth:`targets`: injectors with equal keys
        target the same instructions."""
        return (type(self),)

    def registers(self, instr: Instruction) -> tuple[int, ...]:
        """Every register the error functions may read or write at an
        activation on *instr* (its operands and destination unless a
        model reaches further)."""
        return (*instr.srcs, instr.dst)

    def error_functions(self, instr: Instruction):
        """``(before, after)`` of a target *instr*, either ``None``:
        ``before(w, victims)`` runs before the instruction and returns
        what ``after(w, victims, saved)`` gets after it."""
        raise NotImplementedError

    def specialize(self, pc: int, instr: Instruction, step, sel, tally):
        """The step of target *pc* (*instr*, plain step *step*) with the
        error functions around it on the victims, the lanes of *sel* in
        the exec mask; with none it is the plain step."""
        before, after = self.error_functions(instr)
        every = bool(sel.all())

        def site(w, m, active, top, env):
            victims = sel if m is None else m if every else sel & m
            if not np.count_nonzero(victims):
                return step(w, m, active, top, env)
            tally.activations += 1
            saved = None if before is None else before(w, victims)
            res = step(w, m, active, top, env)
            if after is not None:
                after(w, victims, saved)
            return res
        return site

    # -- helpers ---------------------------------------------------------
    def _corrupted_reg(self, reg: int) -> int:
        return (reg ^ self.desc.bit_err_mask) & 0xFF

    def _flip(self, reg: int):
        """An error function flipping the bit mask of *reg* on the
        victims (before or after the instruction)."""
        bits = _U32(self.desc.bit_err_mask)

        def flip(w, victims, saved=None):
            if reg != RZ:
                val = w.read_reg(reg)
                val[victims] ^= bits
                w.write_reg(reg, val, victims)
        return flip


class IRAInjector(BaseInjector):
    """Incorrect Register Addressed: a wrong (valid) register is used as
    the destination (errOperLoc=0) or one of the sources (1..3)."""

    def targets(self, instr: Instruction) -> bool:
        loc = self.desc.err_oper_loc
        if loc == 0:
            return instr.info.writes_reg and instr.dst != RZ
        return len(instr.srcs) >= loc

    def target_key(self) -> tuple:
        return (IRAInjector, self.desc.err_oper_loc)

    def registers(self, instr: Instruction) -> tuple[int, ...]:
        loc = self.desc.err_oper_loc
        right = instr.dst if loc == 0 else instr.srcs[loc - 1]
        return (*super().registers(instr), self._corrupted_reg(right))

    def error_functions(self, instr: Instruction):
        loc = self.desc.err_oper_loc
        reg = instr.dst if loc == 0 else instr.srcs[loc - 1]
        wrong = self._corrupted_reg(reg)
        if loc == 0:
            # M <= Rd; the instruction; R_IR <= Rd (the result goes to the
            # wrong register); Rd <= M
            def after(w, victims, old):
                w.write_reg(wrong, w.read_reg(reg), victims)
                w.write_reg(reg, old, victims)
            return (lambda w, victims: w.read_reg(reg)), after

        def before(w, victims):  # the wrong register feeds the operand
            old = w.read_reg(reg)
            w.write_reg(reg, w.read_reg(wrong), victims)  # may raise (IVRA)
            return old
        return before, lambda w, victims, old: w.write_reg(reg, old, victims)


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

    def error_functions(self, instr: Instruction):
        srcs, dst, repl = instr.srcs, instr.dst, self.desc.replacement_op
        imm = ([np.full(WARP_SIZE, instr.imm, dtype=_U32)] if instr.use_imm
               else [])
        kernel = alu_kernel(repl, instr.aux)
        arity = OPCODE_INFO[repl].num_srcs
        pad = [np.zeros(WARP_SIZE, dtype=_U32)] * (
            arity - len(srcs) - len(imm))

        def before(w, victims):
            # the last activation's operands are injector state
            # (repro.swinjector.accel.injector_state)
            self._srcs = [*(w.read_reg(r) for r in srcs), *imm]
            return self._srcs

        def after(w, victims, vals):
            if kernel is None:
                raise IllegalInstructionError(
                    f"IOC replacement {repl.name} has no register result")
            w.write_reg(dst, kernel(*vals[:arity], *pad), victims)
        return before, None if repl is instr.op else after


class IVOCInjector(BaseInjector):
    """Invalid Operation Code: the corrupted opcode is not a valid
    instruction; the device raises an illegal-instruction exception."""

    def targets(self, instr: Instruction) -> bool:
        return True

    def error_functions(self, instr: Instruction):
        def before(w, victims):
            raise IllegalInstructionError("IVOC: invalid opcode fetched")
        return before, None


class IIOInjector(BaseInjector):
    """Incorrect Immediate Operand: the destination of every instruction
    consuming an immediate is corrupted by the bit mask."""

    def targets(self, instr: Instruction) -> bool:
        return (instr.reads_immediate and instr.info.writes_reg
                and instr.dst != RZ)

    def error_functions(self, instr: Instruction):
        return None, self._flip(instr.dst)


class WVInjector(BaseInjector):
    """Work-flow Violation: the written predicate flips for the victims."""

    def targets(self, instr: Instruction) -> bool:
        return instr.info.writes_pred

    def error_functions(self, instr: Instruction):
        p = instr.pdst
        if not self.desc.bit_err_mask & 1 or p == PT:
            return None, None  # nothing flips, or the write is dropped

        def after(w, victims, saved):
            w.preds[victims, p] = ~w.preds[victims, p]
        return None, after


class _S2RInjector(BaseInjector):
    """Shared behaviour of IAT/IAW/IAC: corrupt the thread/CTA index read
    through S2R, skewing the thread's view of its own identity."""

    sregs: tuple[SpecialReg, ...] = ()

    def targets(self, instr: Instruction) -> bool:
        return (instr.op is Op.S2R and instr.aux in
                tuple(int(s) for s in self.sregs))

    def error_functions(self, instr: Instruction):
        return None, self._flip(instr.dst)


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

    def error_functions(self, instr: Instruction):
        # enable mode forces the faulty lanes among the victims, which are
        # threads of the exec mask already: the forced mask is the exec
        # mask, and an activation changes nothing but the count
        if (self.desc.lane_enable_mode != "disable"
                or not instr.info.writes_reg or instr.dst == RZ):
            return None, None
        dst, lanes = instr.dst, self._lanes

        def after(w, victims, old):
            restore = lanes & victims
            if np.count_nonzero(restore):
                w.write_reg(dst, old, restore)
        return (lambda w, victims: w.read_reg(dst)), after


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

    def target_key(self) -> tuple:
        return self.delegate.target_key()

    def error_functions(self, instr: Instruction):
        return self.delegate.error_functions(instr)

    def registers(self, instr: Instruction) -> tuple[int, ...]:
        return self.delegate.registers(instr)


class IMSInjector(BaseInjector):
    """Incorrect Memory Source: instructions reading constant or shared
    memory deliver a corrupted value."""

    def targets(self, instr: Instruction) -> bool:
        return instr.op in (Op.LDS, Op.LDC)

    def error_functions(self, instr: Instruction):
        return None, self._flip(instr.dst)


class IMDInjector(BaseInjector):
    """Incorrect Memory Destination: shared-memory stores corrupt either
    the stored data (errOperLoc even) or the addressing register (odd)."""

    def targets(self, instr: Instruction) -> bool:
        return instr.op is Op.STS

    def error_functions(self, instr: Instruction):
        addr_reg, data_reg = instr.srcs
        reg = data_reg if self.desc.err_oper_loc % 2 == 0 else addr_reg
        return self._flip(reg), None
