"""Standalone ALU semantics: the one op -> kernel table.

Every computable (register-in, register-out) opcode maps to a warp-wide
kernel over uint32 operand vectors. The executor binds these kernels
into its decoded per-pc steps (:mod:`repro.gpusim.executor`), and the
error injectors evaluate them through :func:`eval_alu`: the IOC error
model and the RTL pipeline-opcode corruption both need "what would
opcode X have produced on these operands". Both therefore share one
definition of each operation.

Kernels assume floating-point error reporting is off (the executor runs
each slice under ``np.errstate(all="ignore")``; :func:`eval_alu` sets it
itself). Integer products wrap modulo 2**32, which is the low word of
the 64-bit product.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.isa.opcodes import OPCODE_INFO, CmpOp, Op

_U32 = np.uint32
_I32 = np.int32
_F32 = np.float32
_SHIFT_MASK = _U32(31)

Kernel = Callable[..., np.ndarray]


def _mov(a):
    return a


def _imad(a, b, c):
    return a * b + c


def _shl(a, b):
    return a << (b & _SHIFT_MASK)


def _shr(a, b):
    return a >> (b & _SHIFT_MASK)


def _i2f(a):
    return a.view(_I32).astype(_F32).view(_U32)


def _f2i(a):
    f = np.nan_to_num(a.view(_F32), nan=0.0, posinf=2**31 - 1,
                      neginf=-(2**31))
    f = np.clip(f, -(2.0**31), 2.0**31 - 1)
    return np.trunc(f).astype(np.int64).astype(_I32).view(_U32)


def _fadd(a, b):
    return (a.view(_F32) + b.view(_F32)).view(_U32)


def _fmul(a, b):
    return (a.view(_F32) * b.view(_F32)).view(_U32)


def _ffma(a, b, c):
    return (a.view(_F32) * b.view(_F32) + c.view(_F32)).view(_U32)


def _sfu(fn):
    def kernel(a):
        return fn(a.view(_F32), dtype=_F32).view(_U32)
    return kernel


def _frcp(a):
    return (_F32(1.0) / a.view(_F32)).view(_U32)


def _imnmx(aux: int) -> Kernel:
    fn = np.minimum if aux == CmpOp.MIN else np.maximum

    def kernel(a, b):
        return fn(a.view(_I32), b.view(_I32)).view(_U32)
    return kernel


def _fmnmx(aux: int) -> Kernel:
    fn = np.minimum if aux == CmpOp.MIN else np.maximum

    def kernel(a, b):
        return fn(a.view(_F32), b.view(_F32)).view(_U32)
    return kernel


#: op -> kernel factory taking the instruction's AUX field (only the
#: min/max selectors read it); kernels take ``OPCODE_INFO[op].num_srcs``
#: operands and return the uint32 result vector
_KERNELS: dict[Op, Callable[[int], Kernel]] = {
    Op.IADD: lambda aux: np.add,
    Op.ISUB: lambda aux: np.subtract,
    Op.IMUL: lambda aux: np.multiply,
    Op.IMAD: lambda aux: _imad,
    Op.IMNMX: _imnmx,
    Op.SHL: lambda aux: _shl,
    Op.SHR: lambda aux: _shr,
    Op.AND: lambda aux: np.bitwise_and,
    Op.OR: lambda aux: np.bitwise_or,
    Op.XOR: lambda aux: np.bitwise_xor,
    Op.NOT: lambda aux: np.invert,
    Op.I2F: lambda aux: _i2f,
    Op.F2I: lambda aux: _f2i,
    Op.FADD: lambda aux: _fadd,
    Op.FMUL: lambda aux: _fmul,
    Op.FFMA: lambda aux: _ffma,
    Op.FMNMX: _fmnmx,
    Op.FSIN: lambda aux: _sfu(np.sin),
    Op.FEXP: lambda aux: _sfu(np.exp),
    Op.FLOG: lambda aux: _sfu(np.log),
    Op.FRCP: lambda aux: _frcp,
    Op.FSQRT: lambda aux: _sfu(np.sqrt),
    Op.MOV: lambda aux: _mov,
}

#: opcodes whose result can be recomputed from register operands alone
REPLACEABLE_OPS: tuple[Op, ...] = tuple(_KERNELS)


def alu_kernel(op: Op, aux: int = 0) -> Kernel | None:
    """The warp-wide kernel of *op* (``None`` for non-ALU opcodes)."""
    factory = _KERNELS.get(op)
    return None if factory is None else factory(aux)


def eval_alu(op: Op, srcs: list[np.ndarray], aux: int = 0) -> np.ndarray | None:
    """Evaluate *op* on warp-wide uint32 operand vectors.

    Returns ``None`` when the opcode is not a computable ALU operation
    (memory, control flow, predicates). Missing trailing operands default
    to zero; extra operands are ignored — mirroring what hardware does
    when an opcode lands on a different instruction format. The result
    is a fresh array.
    """
    kernel = alu_kernel(op, aux)
    if kernel is None:
        return None
    arity = OPCODE_INFO[op].num_srcs
    n = srcs[0].shape[0] if srcs else 32
    ops = list(srcs[:arity])
    ops += [np.zeros(n, dtype=_U32)] * (arity - len(ops))
    with np.errstate(all="ignore"):
        return np.array(kernel(*ops))
