"""NVBitPERfi: compiled error functions, and descriptor generation."""

from __future__ import annotations

import weakref

import numpy as np

from repro.common.rng import make_rng
from repro.errormodels.descriptor import ErrorDescriptor
from repro.errormodels.models import ErrorModel
from repro.gpusim.executor import WARP_SIZE, TableCache, decode
from repro.isa.opcodes import Op
from repro.swinjector.injectors import (
    BaseInjector,
    IACInjector,
    IALInjector,
    IATInjector,
    IAWInjector,
    IIOInjector,
    IMDInjector,
    IMSInjector,
    IOCInjector,
    IPPInjector,
    IRAInjector,
    IVOCInjector,
    IVRAInjector,
    WVInjector,
)

INJECTOR_CLASSES: dict[ErrorModel, type[BaseInjector]] = {
    ErrorModel.IRA: IRAInjector,
    ErrorModel.IVRA: IVRAInjector,
    ErrorModel.IOC: IOCInjector,
    ErrorModel.IVOC: IVOCInjector,
    ErrorModel.IIO: IIOInjector,
    ErrorModel.WV: WVInjector,
    ErrorModel.IAT: IATInjector,
    ErrorModel.IAW: IAWInjector,
    ErrorModel.IAC: IACInjector,
    ErrorModel.IAL: IALInjector,
    ErrorModel.IMS: IMSInjector,
    ErrorModel.IMD: IMDInjector,
    ErrorModel.IPP: IPPInjector,
}


#: decoded program -> {injector target key: read-only pc mask}
_TARGETS = weakref.WeakKeyDictionary()


def target_mask(injector: BaseInjector, program) -> np.ndarray:
    """Read-only mask of the pcs of *program* where ``injector.targets``
    holds: one per (decoded program, ``injector.target_key()``), shared by
    the activation-site planner, the static pruner and the compiled step
    tables."""
    masks = _TARGETS.setdefault(decode(program), {})
    key = injector.target_key()
    if key not in masks:
        masks[key] = np.fromiter(map(injector.targets, program.instructions),
                                 dtype=bool, count=len(program))
        masks[key].setflags(write=False)
    return masks[key]


class NVBitPERfi:
    """The instrumentation object attached to every kernel launch.

    Mirrors the paper's tool: the descriptor pins the faulty hardware's
    coordinates; every dynamic instruction whose static form maps onto the
    faulty unit and whose warp runs on the faulty sub-partition gets the
    model's error functions, compiled (as NVBit does at JIT time) into
    the step table a warp at the descriptor's coordinates runs.
    """

    def __init__(self, descriptor: ErrorDescriptor):
        self.descriptor = descriptor
        if descriptor.model not in INJECTOR_CLASSES:
            raise KeyError(f"{descriptor.model} is not software-injectable")
        self.injector = INJECTOR_CLASSES[descriptor.model](descriptor)
        #: dynamic instructions actually corrupted (activation telemetry)
        self.activations = 0
        #: the accelerated replay's loop watch and period recorder, and the
        #: ``(warp, steps)`` table they lay over one warp
        #: (:func:`repro.swinjector.accel.observe`)
        self.watch = self.recorder = self.overlay = None
        self._tables = TableCache()

    def matches(self, warp) -> bool:
        """Does *warp* run on the faulty hardware?"""
        return self.descriptor.matches_warp(warp.sm_id, warp.subpartition,
                                            warp.warp_slot)

    def table(self, warp, decoded) -> list:
        """The step table *warp* runs its next slice under (*decoded* is
        its program's decode table)."""
        if self.overlay is not None and self.overlay[0] is warp:
            return self.overlay[1]
        if not self.matches(warp):
            return decoded.steps
        return self._tables.table(decoded, None, lambda: self.compile(warp))

    def compile(self, warp, inner=None, outer=None) -> list:
        """The decode table of *warp*'s program with its target pcs (none
        off the descriptor's coordinates) specialized. ``inner`` and
        ``outer(pc, instr, step, sel)`` wrap each step before and after
        that (``sel``: the victim lanes at a target pc, else ``None``)."""
        sites = target_mask(self.injector, warp.program) \
            if self.matches(warp) else ()
        sel = (self.descriptor.thread_mask >> np.arange(WARP_SIZE)) & 1 == 1
        tally = weakref.proxy(self)  # no cycle through the table
        steps = list(decode(warp.program).steps)
        for pc, (step, guard, neg, instr) in enumerate(steps):
            site = sel if len(sites) and sites[pc] else None
            if inner is not None:
                step = inner(pc, instr, step, site)
            if site is not None:
                step = self.injector.specialize(pc, instr, step, sel, tally)
            if outer is not None:
                step = outer(pc, instr, step, site)
            steps[pc] = (step, guard, neg, instr)
        return steps


def make_descriptor(model: ErrorModel, seed: int, index: int,
                    nregs_hint: int = 64) -> ErrorDescriptor:
    """Draw a random error descriptor, as the campaign does per injection.

    Targets one sub-partition of SM0 (the paper's §5.2 setup) and draws
    the model-specific parameters: bit masks that stay inside the register
    window for IRA but exceed it for IVRA, a subset of threads for IAT
    (always keeping at least one thread unaffected), the whole warp for
    IAW, a victim lane for IAL, and a random replacement operation for IOC.
    """
    rng = make_rng(seed, "descriptor", model.value, index)
    kw: dict = {
        "model": model,
        "sm_id": 0,
        "subpartition": 0,
        "warp_slots": frozenset(),
        "thread_mask": 0xFFFFFFFF,
        # a stuck line can sit anywhere in the 32-bit datapath
        "bit_err_mask": 1 << int(rng.integers(0, 32)),
        "err_oper_loc": int(rng.integers(0, 4)),
    }
    if int(rng.integers(0, 4)) == 0:
        # a quarter of the faults sit in per-slot hardware: the victim is
        # one of the low warp slots (always populated by real launches)
        kw["warp_slots"] = frozenset(
            int(s) for s in rng.choice(6, size=int(rng.integers(1, 4)),
                                       replace=False)
        )
    if model in (ErrorModel.IRA, ErrorModel.IVRA):
        if model is ErrorModel.IRA:
            kw["bit_err_mask"] = 1 << int(rng.integers(0, 5))      # stays low
        else:
            kw["bit_err_mask"] = 1 << int(rng.integers(6, 8))      # escapes
        kw["err_oper_loc"] = int(rng.integers(0, 4))
    elif model is ErrorModel.IOC:
        # any other *valid* opcode; landing on an instruction format the
        # operands cannot satisfy raises an illegal-instruction DUE (the
        # paper: 99% of IOC DUEs are illegal instructions/addresses)
        all_ops = list(Op)
        kw["replacement_op"] = all_ops[int(rng.integers(0, len(all_ops)))]
    elif model is ErrorModel.IAT:
        # a strict subset of threads, at least one thread left untouched
        n = int(rng.integers(1, 16))
        sel = rng.choice(31, size=n, replace=False)
        kw["thread_mask"] = int(sum(1 << int(i) for i in sel))
        kw["bit_err_mask"] = 1 << int(rng.integers(0, 4))
    elif model is ErrorModel.IAW:
        # the whole warp substitutes another warp: the corrupted index
        # bits are warp-level (>= log2(warp size))
        kw["thread_mask"] = 0xFFFFFFFF
        kw["bit_err_mask"] = 1 << int(rng.integers(5, 8))
    elif model is ErrorModel.IAC:
        kw["bit_err_mask"] = 1 << int(rng.integers(0, 3))
    elif model is ErrorModel.IAL:
        kw["lane"] = int(rng.integers(0, 8))
        kw["lane_enable_mode"] = "disable" if rng.integers(0, 2) else "enable"
    elif model is ErrorModel.WV:
        kw["bit_err_mask"] = 1
    return ErrorDescriptor(**kw)
