"""Step cost: a plain step, a compiled fault site, a generic hook.

One warp runs a loop of integer ALU instructions three ways:

* plain: no instrumentation (the decode table);
* compiled: under NVBitPERfi with an IOC descriptor, so every ALU pc is a
  compiled site, whose victim threads are never in the exec mask (half
  a warp runs; the victims are the other half): each step pays the
  activation test and the plain step;
* generic: under an instrumentation with no-op ``before``/``after``, which
  the executor serves with its generic hook table (a ``HookContext`` per
  step and a re-sync after it).

Each cost is the best of a few launches, in seconds per warp-instruction;
the ratios to the plain step go to ``extra_info`` (docs/PERFORMANCE.md,
"Compiled fault sites"). The one assertion is an order, not a time.
"""

from __future__ import annotations

import time

from repro.errormodels import ErrorDescriptor, ErrorModel
from repro.gpusim import Device, DeviceConfig
from repro.isa import CmpOp, KernelBuilder
from repro.isa.opcodes import Op
from repro.swinjector import NVBitPERfi

#: loop trips and ALU instructions per trip
_TRIPS, _BODY = 200, 24
_ROUNDS = 7


def _kernel():
    k = KernelBuilder("steps", nregs=8)
    i, a, b = k.mov32i_new(0), k.mov32i_new(3), k.mov32i_new(5)
    p = k.pred()
    with k.loop() as lp:
        k.isetp(p, i, imm=_TRIPS, cmp=CmpOp.GE)
        lp.break_if(p)
        for _ in range(_BODY // 2):
            k.iadd(a, a, b)
            k.xor(b, b, a)
        k.iadd(i, i, imm=1)
    k.exit()
    return k.build()


class _NoOpHooks:
    def before(self, ctx):
        pass

    def after(self, ctx):
        pass


def _costs(program, tools: dict) -> dict:
    """Best-of-:data:`_ROUNDS` seconds per warp-instruction of each of
    *tools* (name -> tool factory), the launches interleaved so a change
    of host speed hits every variant alike."""
    dev = Device(DeviceConfig(global_mem_words=1024))
    best = dict.fromkeys(tools, float("inf"))
    for _ in range(_ROUNDS):
        for name, make_tool in tools.items():
            tool = make_tool()
            t0 = time.perf_counter()
            res = dev.launch(program, 1, 16, watchdog=1 << 30,
                             instrumentation=tool)
            best[name] = min(best[name], (time.perf_counter() - t0)
                             / res.instructions_executed)
    return best


def test_bench_step_cost(benchmark):
    program = _kernel()
    # lanes 16..31: never alive in a 16-thread block
    ioc = ErrorDescriptor(ErrorModel.IOC, thread_mask=0xFFFF0000,
                          replacement_op=Op.ISUB)
    costs = _costs(program, {"plain": lambda: None,
                             "compiled": lambda: NVBitPERfi(ioc),
                             "generic": _NoOpHooks})
    for name, c in costs.items():
        benchmark.extra_info[f"{name}_us"] = round(c * 1e6, 3)
        benchmark.extra_info[f"{name}_ratio"] = round(c / costs["plain"], 3)
    tool = NVBitPERfi(ioc)
    benchmark.pedantic(_costs, args=(program, {"compiled": lambda: tool}),
                       rounds=1, iterations=1)
    assert tool.activations == 0
    assert costs["compiled"] < costs["generic"]
