"""Step cost: a plain step and the compiled fault sites of both levels.

One warp runs a loop of integer ALU instructions three ways:

* plain: no instrumentation (the decode table);
* compiled: under NVBitPERfi with an IOC descriptor, so every ALU pc is a
  compiled site, whose victim threads are never in the exec mask (half
  a warp runs; the victims are the other half): each step pays the
  activation test and the plain step;
* rtl: under an RTL ``fu_int`` operand fault on a thread position past
  the block, so every INT pc is a compiled RTL site that never acts.

Each cost is the best of a few launches, in seconds per warp-instruction;
the ratios to the plain step go to ``extra_info`` (docs/PERFORMANCE.md,
"Compiled fault sites", "Compiled RTL sites"). The assertions are
structural, not times: each tool wraps exactly the pcs it can corrupt.
"""

from __future__ import annotations

import time

from repro.errormodels import ErrorDescriptor, ErrorModel
from repro.gpusim import Device, DeviceConfig
from repro.isa import CmpOp, KernelBuilder
from repro.gpusim.executor import WarpState, decode
from repro.isa.opcodes import Op, OpClass
from repro.rtl import RtlInjection, RtlSite
from repro.rtl.injector import RtlInstrumentation
from repro.swinjector import NVBitPERfi
from repro.swinjector.instrumentation import target_mask

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
    # thread position 20: never alive in a 16-thread block
    rtl = RtlInjection(RtlSite("fu_int", "op_a", 20, 0), 1)
    costs = _costs(program, {"plain": lambda: None,
                             "compiled": lambda: NVBitPERfi(ioc),
                             "rtl": lambda: RtlInstrumentation(rtl)})
    for name, c in costs.items():
        benchmark.extra_info[f"{name}_us"] = round(c * 1e6, 3)
        benchmark.extra_info[f"{name}_ratio"] = round(c / costs["plain"], 3)
    tool = NVBitPERfi(ioc)
    benchmark.pedantic(_costs, args=(program, {"compiled": lambda: tool}),
                       rounds=1, iterations=1)
    assert tool.activations == 0
    warp = WarpState(program, 0, 0, (16, 1, 1), (1, 1, 1), (0, 0, 0), 0, 0, 0)
    decoded = decode(program)

    def wrapped(t):
        return [s[0] is not d[0]
                for s, d in zip(t.table(warp, decoded), decoded.steps)]
    assert wrapped(tool) == list(target_mask(tool.injector, program))
    assert wrapped(RtlInstrumentation(rtl)) == [
        i.info.op_class is OpClass.INT for i in program.instructions]
