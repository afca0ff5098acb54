"""NVBitPERfi instrumentation dispatcher and descriptor generation."""

from __future__ import annotations

import numpy as np

from repro.common.rng import make_rng
from repro.errormodels.descriptor import ErrorDescriptor
from repro.errormodels.models import ErrorModel
from repro.gpusim.executor import HookContext, WARP_SIZE
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


class NVBitPERfi:
    """The instrumentation object attached to every kernel launch.

    Mirrors the paper's tool: the descriptor pins the faulty hardware's
    coordinates; every dynamic instruction whose static form maps onto the
    faulty unit and whose warp runs on the faulty sub-partition gets the
    model's error functions.
    """

    def __init__(self, descriptor: ErrorDescriptor,
                 site_filter: bool = False):
        self.descriptor = descriptor
        if descriptor.model not in INJECTOR_CLASSES:
            raise KeyError(f"{descriptor.model} is not software-injectable")
        self.injector = INJECTOR_CLASSES[descriptor.model](descriptor)
        self._thread_sel = np.zeros(WARP_SIZE, dtype=bool)
        for i in range(WARP_SIZE):
            if descriptor.thread_mask & (1 << i):
                self._thread_sel[i] = True
        #: dynamic instructions actually corrupted (activation telemetry)
        self.activations = 0
        self._active_ctx = False
        #: skip hook sites that cannot activate (accelerated path only)
        self.site_filter = site_filter
        self._pcs_cache: dict[int, tuple[object, frozenset[int]]] = {}
        #: observer of every step while set: ``before(ctx, activated)``
        #: after the error function, ``after(ctx)`` before it (the
        #: accelerated replay records one loop period this way)
        self.recorder = None
        #: observer of the hooked steps while set, its ``pcs`` hooked
        #: too: ``before(ctx, activated)`` before the error function (the
        #: accelerated replay watches a loop's anchor pc this way)
        self.watch = None

    # ------------------------------------------------------------------
    def slice_gate(self, warp) -> bool | frozenset[int]:
        """Which hook sites of *warp* can possibly activate.

        Returns ``False`` (the warp never matches the descriptor's
        coordinates, or no pc is a target), a frozenset of pcs where
        ``injector.targets`` holds, or ``True``.  A hook at a non-returned
        site is a guaranteed no-op pair (``before`` only clears
        ``_active_ctx``; ``after`` then does nothing), so skipping it is
        bit-identical.  Disabled by default so ``--no-accel`` (the cold
        replay) hooks every site; a set :attr:`recorder` sees every site
        too, and a set :attr:`watch` adds its ``pcs``.
        """
        if not self.site_filter or self.recorder is not None:
            return True
        pcs = self._target_pcs(warp)
        if self.watch is not None:
            pcs = pcs | self.watch.pcs
        return pcs or False

    def _target_pcs(self, warp) -> frozenset[int]:
        """The pcs of *warp* where ``injector.targets`` holds (none when
        the warp does not match the descriptor's coordinates)."""
        d = self.descriptor
        if not d.matches_warp(warp.sm_id, warp.subpartition, warp.warp_slot):
            return frozenset()
        program = warp.program
        cached = self._pcs_cache.get(id(program))
        if cached is not None and cached[0] is program:
            return cached[1]
        pcs = frozenset(
            pc for pc, instr in enumerate(program)
            if self.injector.targets(instr))
        # hold the program reference so id() stays pinned to it
        self._pcs_cache[id(program)] = (program, pcs)
        return pcs

    # ------------------------------------------------------------------
    def _victims(self, ctx: HookContext) -> np.ndarray | None:
        d = self.descriptor
        w = ctx.warp
        if not d.matches_warp(w.sm_id, w.subpartition, w.warp_slot):
            return None
        if not self.injector.targets(ctx.instr):
            return None
        victims = self._thread_sel & ctx.exec_mask
        if not victims.any():
            return None
        return victims

    def before(self, ctx: HookContext) -> None:
        victims = self._victims(ctx)
        if self.watch is not None:
            self.watch.before(ctx, victims is not None)
        self._active_ctx = victims is not None
        if victims is not None:
            self.activations += 1
            self.injector.before(ctx, victims)
        if self.recorder is not None:
            self.recorder.before(ctx, victims is not None)

    def after(self, ctx: HookContext) -> None:
        if self.recorder is not None:
            self.recorder.after(ctx)
        if self._active_ctx:
            victims = self._thread_sel & ctx.exec_mask
            self.injector.after(ctx, victims)
        self._active_ctx = False


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
