"""ACE-style static pruning of software injection sites.

Given the full static program set of a workload, :class:`StaticPruner`
decides — per error descriptor — whether the injection is *statically
Masked*: no dynamic execution of any kernel can propagate the error to
architectural state that is ever observed.  Once a descriptor has
activation sites in the golden trace only R2 can hold, and the
accelerated EPR replay (:func:`repro.swinjector.campaign.replay_injection`)
then records it Masked, with one activation per golden site, without
simulating it (docs/PERFORMANCE.md, "Inert activations").

Soundness rules (each maps 1:1 onto the injector mechanics in
:mod:`repro.swinjector.injectors`):

R0 — *no victims*: ``thread_mask == 0`` means the victim-lane selector
     is empty forever; the dispatcher never activates the injector.

R1 — *no targets*: ``injector.targets(instr)`` is False for every
     static instruction of every kernel; the error functions never run.
     Evaluated against the injector instance itself (including IPP's
     resolved delegate), so the rule can never drift out of sync with
     the injector implementations.

R2 — *inert targets*: every target's corruption lands in state that is
     provably never observed. A target whose error functions
     (``injector.error_functions(instr)``) are ``(None, None)`` only
     counts the activation: WV with ``bit_err_mask`` bit 0 clear or a
     ``PT`` destination, IAL *enable* (the forced lanes are exec-mask
     lanes already), IAL *disable* on a target writing no register.
     Otherwise the rules use the conservative backward liveness of
     :mod:`repro.staticanalysis.liveness` (predicated defs do not kill;
     registers are dead at exit because workload outputs travel through
     global-memory stores):

     * xor-destination models (IIO, IMS, IAT, IAW, IAC): the corrupted
       destination register is dead-out at the site (or RZ).
     * WV: the flipped predicate destination is dead-out.
     * IAL *disable* on a register write (the injector restores
       ``dst``): the destination must be dead-out.
     * IRA ``errOperLoc == 0``: the result is duplicated into the wrong
       register and the true destination reverts; both the destination
       and the wrong register must be dead-out, and the wrong register
       must be inside ``nregs`` (else the write raises — a DUE).
     * IRA ``errOperLoc >= 1``: the source is temporarily replaced, so
       the only residue is the instruction's own result: memory
       operations are never prunable; ALU results need a dead (or RZ)
       destination; SETP needs a dead (or PT) predicate destination.
       The wrong source register must be RZ or inside ``nregs``.
     * IOC: a replacement equal to the original opcode is the identity;
       otherwise the replacement must be a computable ALU op (anything
       else raises illegal-instruction — a DUE) writing a dead
       destination.

     IVRA, IVOC and IMD are *never* prunable beyond R0/R1: their
     activation either raises a device exception or corrupts memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.errormodels.descriptor import ErrorDescriptor
from repro.gpusim.alu import REPLACEABLE_OPS
from repro.isa.instruction import PT, RZ, Instruction
from repro.isa.program import Program
from repro.staticanalysis.cfg import CFG
from repro.staticanalysis.liveness import Liveness
from repro.swinjector.injectors import (
    BaseInjector,
    IALInjector,
    IIOInjector,
    IMSInjector,
    IOCInjector,
    IPPInjector,
    IRAInjector,
    IVRAInjector,
    WVInjector,
    _S2RInjector,
)
from repro.swinjector.instrumentation import INJECTOR_CLASSES, target_mask


@dataclass(frozen=True)
class PruneDecision:
    masked: bool
    rule: str
    detail: str = ""


@dataclass
class _KernelAnalysis:
    program: Program
    cfg: CFG
    liveness: Liveness

    @classmethod
    def of(cls, program: Program) -> "_KernelAnalysis":
        cfg = CFG(program)
        return cls(program=program, cfg=cfg,
                   liveness=Liveness(program, cfg))


class StaticPruner:
    """Classifies error descriptors against a fixed static program set."""

    def __init__(self, programs: Iterable[Program]):
        self.analyses = [_KernelAnalysis.of(p) for p in programs]

    # -- public API ----------------------------------------------------

    def classify(self, desc: ErrorDescriptor) -> PruneDecision:
        if desc.thread_mask == 0:
            return PruneDecision(True, "R0", "empty victim thread mask")
        injector = INJECTOR_CLASSES[desc.model](desc)
        effective: BaseInjector = injector
        if isinstance(injector, IPPInjector):
            effective = injector.delegate
        sites = [(a, pc) for a in self.analyses
                 for pc in np.flatnonzero(
                     target_mask(effective, a.program)).tolist()]
        if not sites:
            return PruneDecision(True, "R1", "no static target instruction")
        for a, pc in sites:
            if not self._site_inert(effective, a, pc):
                instr = a.program.instructions[pc]
                return PruneDecision(
                    False, "live",
                    f"{a.program.name}@{pc}: {instr.op.name} not provably "
                    f"inert")
        return PruneDecision(True, "R2",
                             f"all {len(sites)} target sites inert")

    def statically_masked(self, desc: ErrorDescriptor) -> bool:
        return self.classify(desc).masked

    # -- per-model site rules ------------------------------------------

    def _site_inert(self, inj: BaseInjector, a: _KernelAnalysis,
                    pc: int) -> bool:
        instr = a.program.instructions[pc]
        if isinstance(inj, IVRAInjector):
            return False
        if isinstance(inj, IRAInjector):
            return self._ira_inert(inj, a, pc, instr)
        if isinstance(inj, IOCInjector):
            repl = inj.desc.replacement_op
            if repl is instr.op:
                return True
            if repl not in REPLACEABLE_OPS:
                return False  # raises IllegalInstructionError -> DUE
            return self._reg_dead(a, pc, instr.dst)
        if inj.error_functions(instr) == (None, None):
            return True  # an activation is only counted
        if isinstance(inj, (IIOInjector, IMSInjector, _S2RInjector)):
            return self._reg_dead(a, pc, instr.dst)
        if isinstance(inj, WVInjector):
            return self._pred_dead(a, pc, instr.pdst)
        if isinstance(inj, IALInjector):
            # disable mode on a register write: the victims' results
            # are discarded
            return self._reg_dead(a, pc, instr.dst)
        # IVOC, IMD and anything unrecognised: never prunable
        return False

    def _ira_inert(self, inj: IRAInjector, a: _KernelAnalysis, pc: int,
                   instr: Instruction) -> bool:
        loc = inj.desc.err_oper_loc
        nregs = a.program.nregs
        if loc == 0:
            wrong = (instr.dst ^ inj.desc.bit_err_mask) & 0xFF
            if not self._reg_dead(a, pc, instr.dst):
                return False
            if wrong == RZ:
                return True  # the duplicate write is discarded
            if wrong >= nregs:
                return False  # InvalidRegisterError -> DUE
            return not a.liveness.reg_live_out[pc, wrong]
        src = instr.srcs[loc - 1]
        wrong = (src ^ inj.desc.bit_err_mask) & 0xFF
        if wrong != RZ and wrong >= nregs:
            return False  # reading the wrong register raises -> DUE
        if instr.info.is_mem:
            return False  # corrupted address or store data
        if instr.info.writes_pred:
            return self._pred_dead(a, pc, instr.pdst)
        if instr.info.writes_reg:
            return self._reg_dead(a, pc, instr.dst)
        return False

    # -- liveness helpers ----------------------------------------------

    @staticmethod
    def _reg_dead(a: _KernelAnalysis, pc: int, reg: int) -> bool:
        if reg == RZ:
            return True
        return not a.liveness.reg_live_out[pc, reg]

    @staticmethod
    def _pred_dead(a: _KernelAnalysis, pc: int, pred: int) -> bool:
        if pred == PT:
            return True
        return not a.liveness.pred_live_out[pc, pred]
