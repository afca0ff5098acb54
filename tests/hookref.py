"""The generic ``before``/``after`` hook protocol, kept as a test reference.

The executor runs a tool's step table (``table(warp, decoded) -> steps``),
and the fault tools compile their error functions into the steps of the
pcs they can corrupt. :class:`Hooked` gives a tool with only ``before``
and ``after`` that table protocol the way the executor once served it:
every step of every warp runs inside the hook pair, with masks built
afresh (``active = top.mask & alive``, the exec mask from the guard), a
:class:`HookContext`, the exec-mask override and a forced re-sync.

:class:`HookedPERfi` is NVBitPERfi on that protocol, the path that
compilation replaced: ``before`` works out the victims afresh at every
step and calls the model's error functions below, which read and write
through the context. Tests run it against the compiled tool: outcome, DUE
reason and message, activation count and memory must be identical
(:mod:`tests.rtlref` does the same for the RTL tool).
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.common.exceptions import IllegalInstructionError
from repro.gpusim.alu import eval_alu
from repro.gpusim.executor import WARP_SIZE, _SYNC
from repro.isa.instruction import PT, RZ
from repro.swinjector import injectors as inj
from repro.swinjector.instrumentation import INJECTOR_CLASSES

_U32 = np.uint32


class HookContext:
    """What a hook sees at an instrumented step."""

    def __init__(self, warp, pc, instr, active_mask, exec_mask):
        self.warp = warp
        self.pc = pc
        self.instr = instr
        #: lanes active on the SIMT stack (before predication)
        self.active_mask = active_mask
        #: lanes the instruction will actually execute on
        self.exec_mask = exec_mask
        self._override = None

    def read_reg(self, r):
        return self.warp.read_reg(r)

    def write_reg(self, r, values, mask=None):
        self.warp.write_reg(r, values, self.exec_mask if mask is None else mask)

    def read_pred(self, p):
        return self.warp.preds[:, p].copy()

    def write_pred(self, p, values, mask=None):
        mask = self.exec_mask if mask is None else mask
        if p != PT:
            self.warp.preds[mask, p] = values[mask]

    def override_exec_mask(self, mask):
        """Force the instruction to execute on *mask* lanes."""
        self._override = mask.astype(bool)

    @property
    def nregs(self):
        return self.warp.program.nregs


def hook_table(decoded, hooks) -> list:
    """*decoded*'s steps, each inside *hooks*' pair: fresh masks,
    ``before`` (seeing the step's pc as the warp's next pc), the exec-mask
    override honoured, the step, ``after``, and a forced re-sync."""
    def hooked(pc, step, guard, neg, instr):
        def run(w, m, active, top, env):
            active = top.mask & w.alive
            if guard is None:
                exec_mask = active.copy()
            else:
                g = w.pcols[guard]
                exec_mask = active > g if neg else active & g
            ctx = HookContext(w, pc, instr, active, exec_mask)
            top.next_pc = pc
            hooks.before(ctx)
            if ctx._override is not None:
                exec_mask = ctx.exec_mask = ctx._override & w.alive
            top.next_pc = pc + 1
            step(w, exec_mask, active, top, env)
            hooks.after(ctx)
            return _SYNC
        return run
    return [(hooked(pc, *entry), *entry[1:])
            for pc, entry in enumerate(decoded.steps)]


class Hooked:
    """The table protocol for a tool with ``before``/``after``: every warp
    runs :func:`hook_table` of its program (built once per program)."""

    def table(self, warp, decoded) -> list:
        tables = self.__dict__.setdefault("_hook_tables", {})
        held = tables.get(id(decoded))
        if held is None or held[0] is not decoded:
            held = tables[id(decoded)] = (decoded, hook_table(decoded, self))
        return held[1]


def _xor_reg(model, ctx, reg, victims):
    if reg == RZ:
        return
    val = ctx.read_reg(reg)
    val[victims] ^= _U32(model.desc.bit_err_mask)
    ctx.write_reg(reg, val, victims)


def _wrong(model, reg):
    return (reg ^ model.desc.bit_err_mask) & 0xFF


def _ira_before(tool, model, ctx, victims):
    instr = ctx.instr
    loc = model.desc.err_oper_loc
    if loc == 0:
        tool.saved = [(instr.dst, ctx.read_reg(instr.dst))]
        return
    src = instr.srcs[loc - 1]
    tool.saved = [(src, ctx.read_reg(src))]
    wrong_val = ctx.read_reg(_wrong(model, src))
    val = ctx.read_reg(src)
    val[victims] = wrong_val[victims]
    ctx.write_reg(src, val, victims)


def _ira_after(tool, model, ctx, victims):
    instr = ctx.instr
    if model.desc.err_oper_loc == 0:
        result = ctx.read_reg(instr.dst)
        ctx.write_reg(_wrong(model, instr.dst), result, victims)
    reg, old = tool.saved[0]
    ctx.write_reg(reg, old, victims)
    tool.saved = []


def _ioc_before(tool, model, ctx, victims):
    srcs = [ctx.read_reg(r) for r in ctx.instr.srcs]
    if ctx.instr.use_imm:
        srcs.append(np.full(WARP_SIZE, ctx.instr.imm, dtype=_U32))
    model._srcs = srcs
    if ctx.instr.dst in ctx.instr.srcs:
        tool.events["ioc-dst-is-src"] += 1


def _ioc_after(tool, model, ctx, victims):
    repl = model.desc.replacement_op
    if repl is ctx.instr.op:
        return
    alt = eval_alu(repl, model._srcs, aux=ctx.instr.aux)
    if alt is None:
        raise IllegalInstructionError(
            f"IOC replacement {repl.name} has no register result")
    ctx.write_reg(ctx.instr.dst, alt, victims)


def _ivoc_before(tool, model, ctx, victims):
    raise IllegalInstructionError("IVOC: invalid opcode fetched")


def _dst_after(tool, model, ctx, victims):
    _xor_reg(model, ctx, ctx.instr.dst, victims)


def _wv_after(tool, model, ctx, victims):
    p = ctx.instr.pdst
    val = ctx.read_pred(p)
    if model.desc.bit_err_mask & 1:
        val[victims] = ~val[victims]
    ctx.write_pred(p, val, victims)


def _ial_before(tool, model, ctx, victims):
    instr = ctx.instr
    if model.desc.lane_enable_mode == "disable":
        if instr.info.writes_reg and instr.dst != RZ:
            tool.saved = [(instr.dst, ctx.read_reg(instr.dst))]
    else:
        # force execution where the guard predicate disabled it
        exec_mask = ctx.exec_mask.copy()
        forced = model._lanes & victims & ctx.active_mask & ctx.warp.alive
        exec_mask |= forced
        ctx.override_exec_mask(exec_mask)
        tool.events["ial-override"] += 1


def _ial_after(tool, model, ctx, victims):
    if model.desc.lane_enable_mode != "disable" or not tool.saved:
        return
    reg, old = tool.saved[0]
    restore = model._lanes & victims & ctx.exec_mask
    if restore.any():
        ctx.write_reg(reg, old, restore)
    tool.saved = []


def _imd_before(tool, model, ctx, victims):
    addr_reg, data_reg = ctx.instr.srcs
    reg = data_reg if model.desc.err_oper_loc % 2 == 0 else addr_reg
    _xor_reg(model, ctx, reg, victims)


def _none(tool, model, ctx, victims):
    pass


#: injector class -> (before, after) error functions
ERROR_FUNCTIONS = {
    inj.IRAInjector: (_ira_before, _ira_after),
    inj.IVRAInjector: (_ira_before, _ira_after),
    inj.IOCInjector: (_ioc_before, _ioc_after),
    inj.IVOCInjector: (_ivoc_before, _none),
    inj.IIOInjector: (_none, _dst_after),
    inj.WVInjector: (_none, _wv_after),
    inj.IATInjector: (_none, _dst_after),
    inj.IAWInjector: (_none, _dst_after),
    inj.IACInjector: (_none, _dst_after),
    inj.IALInjector: (_ial_before, _ial_after),
    inj.IMSInjector: (_none, _dst_after),
    inj.IMDInjector: (_imd_before, _none),
}


class HookedPERfi(Hooked):
    """NVBitPERfi on the generic ``before``/``after`` protocol. *events*
    counts the rarer activations a test may want to see covered."""

    def __init__(self, descriptor):
        self.descriptor = descriptor
        self.injector = INJECTOR_CLASSES[descriptor.model](descriptor)
        model = getattr(self.injector, "delegate", self.injector)
        self._model = model
        self._before, self._after = ERROR_FUNCTIONS[type(model)]
        self._thread_sel = np.array(
            [bool(descriptor.thread_mask & (1 << i))
             for i in range(WARP_SIZE)])
        self.activations = 0
        self.saved: list = []
        self.events: Counter = Counter()
        self._active = False

    def _victims(self, ctx):
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

    def before(self, ctx) -> None:
        victims = self._victims(ctx)
        self._active = victims is not None
        if victims is not None:
            self.activations += 1
            self._before(self, self._model, ctx, victims)

    def after(self, ctx) -> None:
        if self._active:
            victims = self._thread_sel & ctx.exec_mask
            self._after(self, self._model, ctx, victims)
        self._active = False
