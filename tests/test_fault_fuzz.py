"""Random-kernel differential fuzzing of the compiled fault sites.

A seeded generator builds ``isa.builder`` kernels in the shapes the
hand-written workloads leave rare: nested divergence, loops whose trip
counts come from memory and whose lengths do not divide 256, FP
accumulators, strided loads and guarded out-of-range ones, barriers with
shared-memory traffic, dense predication, and host code that launches
several kernels and reads results back between launches. It grows the
straight-line programs of ``tests/test_gpusim_property.py`` and the
one-warp loops of ``TestLoopCycleFuzz``/``TestAffineFuzz`` in
``tests/test_accel_equivalence.py`` into whole multi-warp workloads.

Over descriptors of all 13 models drawn as the campaign draws them, each
kernel set runs three ways: the generic hook reference
(:class:`tests.hookref.HookedPERfi`), the compiled tool replayed cold
(``--no-accel``), and the compiled tool accelerated. Asserted: reference
== compiled in outcome, DUE reason and message, activation count, output
bits and final global memory; accelerated == cold in outcome, DUE reason,
activation count and output bits.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass

import numpy as np
import pytest

from repro.common.exceptions import DeviceError
from repro.isa import CmpOp, KernelBuilder
from repro.swinjector.instrumentation import INJECTOR_CLASSES, make_descriptor
from repro.workloads.base import Workload, WorkloadMeta
from tests.hookref import HookedPERfi

_MEM_WORDS = 1 << 14
#: input words (a power of two: load indices wrap with an AND)
_DATA = 64
#: output words per launch slot: every thread of the largest grid
_OUT = 192

#: KernelBuilder methods of the integer ALU ops a block draws from
_INT_OPS = ("iadd", "isub", "imul", "and_", "or_", "xor", "shl", "shr",
            "imnmx")
_CMPS = tuple(CmpOp(c) for c in range(6))


@dataclass(frozen=True)
class _Knobs:
    """One kernel set's shape."""

    depth: int          # nesting of divergent ifs
    loop_len: int       # body instructions of a counted loop
    density: float      # share of guarded instructions
    stride: int         # load stride, in words
    shared: bool        # barriers and shared-memory traffic
    block: int          # threads per CTA (32 or 64)
    grid: int           # CTAs per launch
    launches: int       # host launches before the host loop
    host_loop: bool     # relaunch while the first output word is even


class _Gen:
    """Emits random blocks into one kernel."""

    def __init__(self, rng, name: str, knobs: _Knobs):
        self.rng, self.knobs = rng, knobs
        k = self.k = KernelBuilder(name, nregs=32,
                                   shared_words=knobs.block)
        self.tid = k.s2r_tid_x()
        cta, ntid = k.s2r_ctaid_x(), k.s2r_ntid_x()
        self.g = k.reg()
        k.imad(self.g, cta, ntid, self.tid)
        self.data, self.out, self.bias = (k.load_param(s) for s in range(3))
        self.acc = k.mov32i_new(int(rng.integers(0, 1 << 16)))
        self.facc = k.movf_new(0.5)
        self.t = k.regs(4)
        self.i, self.cnt, self.addr = k.regs(3)
        self.preds = [k.pred() for _ in range(3)]
        for p in self.preds:
            k.isetp(p, self.tid, imm=int(rng.integers(0, knobs.block)),
                    cmp=self._cmp())

    def _cmp(self) -> CmpOp:
        return _CMPS[int(self.rng.integers(0, len(_CMPS)))]

    def _pick(self, regs):
        return regs[int(self.rng.integers(0, len(regs)))]

    def _guard(self) -> dict:
        if self.rng.random() < self.knobs.density:
            return {"pred": self._pick(self.preds),
                    "pred_neg": bool(self.rng.integers(0, 2))}
        return {}

    def alu(self) -> None:
        rng = self.rng
        emit = getattr(self.k, self._pick(_INT_OPS))
        dst = self._pick([*self.t, self.acc])
        a = self._pick([*self.t, self.acc, self.g, self.tid, self.bias])
        if rng.random() < 0.4:
            operand = {"imm": int(rng.integers(0, 9))}
        else:
            operand = {"b": self._pick([*self.t, self.acc, self.g])}
        emit(dst, a, **operand, **self._guard())

    def setp(self) -> None:
        k = self.k
        a = self._pick([*self.t, self.acc, self.g, self.tid])
        k.isetp(self._pick(self.preds), a,
                self._pick([*self.t, self.bias, self.tid]),
                cmp=self._cmp(), **self._guard())

    def fp(self) -> None:
        k, t = self.k, self._pick(self.t)
        k.i2f(t, self._pick([self.acc, self.g, self.tid]), **self._guard())
        if self.rng.random() < 0.5:
            k.fadd(self.facc, self.facc, t, **self._guard())
        else:
            k.ffma(self.facc, t, t, self.facc, **self._guard())

    def load(self) -> None:
        k, a = self.k, self.addr
        k.imul(a, self.g, imm=self.knobs.stride)
        k.iadd(a, a, self.bias)
        k.and_(a, a, imm=_DATA - 1)
        k.shl(a, a, imm=2)
        k.iadd(a, a, self.data)
        k.gld(self._pick(self.t), a, **self._guard())

    def stray_load(self) -> None:
        # an address far past memory, on a guard no thread passes in the
        # fault-free run
        k, p = self.k, self._pick(self.preds)
        k.isetp(p, self.g, imm=1 << 20, cmp=CmpOp.GE)
        k.gld(self._pick(self.t), self.data, offset=4 * (_MEM_WORDS << 4),
              pred=p)

    def branch(self, depth: int) -> None:
        k, p = self.k, self._pick(self.preds)
        bit = self._pick(self.t)
        k.and_(bit, self.tid, imm=1 << int(self.rng.integers(0, 6)))
        k.isetp(p, bit, imm=0, cmp=CmpOp.NE)
        with k.if_(p, neg=bool(self.rng.integers(0, 2))):
            self.body(depth - 1, int(self.rng.integers(1, 4)))

    def loop(self) -> None:
        # a count-up loop of a trip count read from memory (1..8)
        k, i, cnt = self.k, self.i, self.cnt
        k.and_(self.addr, self.g, imm=_DATA - 1)
        k.shl(self.addr, self.addr, imm=2)
        k.iadd(self.addr, self.addr, self.data)
        k.gld(cnt, self.addr)
        k.and_(cnt, cnt, imm=7)
        k.iadd(cnt, cnt, imm=1)
        k.mov32i(i, 0)
        p = self._pick(self.preds)
        with k.loop() as lp:
            k.isetp(p, i, cnt, cmp=CmpOp.GE)
            lp.break_if(p)
            for _ in range(self.knobs.loop_len):
                self._pick([self.alu, self.alu, self.fp, self.setp])()
            k.iadd(self.acc, self.acc, i)
            k.iadd(i, i, imm=1)

    def shared(self) -> None:
        # every warp reaches the barriers: top level only
        k, t = self.k, self._pick(self.t)
        k.shl(self.addr, self.tid, imm=2)
        k.sts(self.addr, self.acc)
        k.bar()
        k.iadd(t, self.tid, imm=1)
        k.and_(t, t, imm=self.knobs.block - 1)
        k.shl(t, t, imm=2)
        k.lds(self._pick(self.t), t)
        k.bar()

    def body(self, depth: int, n: int, top: bool = False) -> None:
        for _ in range(n):
            kinds = [self.alu, self.alu, self.setp, self.fp, self.load,
                     self.loop]
            if depth > 0:
                kinds.append(lambda: self.branch(depth))
            if top and self.knobs.shared:
                kinds.append(self.shared)
            if top:
                kinds.append(self.stray_load)
            self._pick(kinds)()

    def build(self):
        k = self.k
        self.body(self.knobs.depth, int(self.rng.integers(4, 9)), top=True)
        k.shl(self.addr, self.g, imm=2)
        k.iadd(self.addr, self.addr, self.out)
        k.gst(self.addr, self.acc)
        k.gst(self.addr, self.facc, offset=4 * _OUT)
        k.exit()
        return k.build()


@dataclass(frozen=True)
class _Spec:
    seed: int
    knobs: _Knobs
    data: tuple


def _spec(seed: int) -> _Spec:
    rng = np.random.default_rng([0xF022, seed])
    knobs = _Knobs(
        depth=int(rng.integers(0, 4)),
        loop_len=int(rng.choice([1, 3, 5, 6, 9])),
        density=float(rng.choice([0.0, 0.2, 0.5])),
        stride=int(rng.choice([1, 3, 8, 17])),
        shared=bool(rng.integers(0, 2)),
        block=int(rng.choice([32, 64])),
        grid=int(rng.integers(1, 4)),
        launches=int(rng.integers(1, 3)),
        host_loop=bool(rng.integers(0, 2)))
    data = tuple(int(x) for x in rng.integers(0, 1 << 12, size=_DATA))
    return _Spec(seed, knobs, data)


class _FuzzApp(Workload):
    """The kernel set of one :class:`_Spec`: ``launches`` launches of its
    kernels in turn, each passed the first output word of the last one,
    then (with ``host_loop``) up to four relaunches of the last kernel
    while that word is even. Its output is the output buffer and, held by
    the host, the word read back after the first launch. Keeps its last
    output bits, error message and the digest of global memory where the
    run ended."""

    meta = WorkloadMeta("fuzz", "mixed", "test", "isa.builder")
    scales = {"tiny": {}}

    def __init__(self, spec: _Spec):
        self.spec = spec
        self.bits = self.error = self.memory = None
        super().__init__("tiny")

    def _init_data(self) -> None:
        pass

    def _build_programs(self):
        rng = np.random.default_rng([0xF022, self.spec.seed, 1])
        return {f"k{j}": _Gen(rng, f"k{j}", self.spec.knobs).build()
                for j in range(2)}

    def run(self, device, launcher):
        self.bits = self.error = self.memory = None
        knobs, progs = self.spec.knobs, self.programs()
        data = device.alloc_array(np.array(self.spec.data, dtype=np.uint32))
        out = device.alloc(2 * _OUT)
        bias = 0

        def launch(j):
            nonlocal bias
            launcher(progs[f"k{j % 2}"], grid=knobs.grid, block=knobs.block,
                     params=(data, out, bias))
            word = device.read(out, 1)
            bias = int(word[0]) & 0xFF
            return word
        try:
            held = launch(0)
            for j in range(1, knobs.launches):
                launch(j)
            for _ in range(4 if knobs.host_loop else 0):
                if bias & 1:
                    break
                launch(knobs.launches - 1)
        except DeviceError as exc:
            self.error = str(exc)
            raise
        finally:
            g = device.global_mem
            self.memory = hashlib.sha256(g.data[:g.extent]).hexdigest()
        self.bits = np.concatenate((device.read(out, 2 * _OUT), held))
        return self.bits


#: kernel sets run per tier-1 pass, and descriptors drawn per model each
SEEDS = range(24)
DRAWS = 2


def _fuzz(seed: int, events: Counter, reasons: Counter, stats) -> None:
    """Run kernel set *seed* under ``DRAWS`` descriptors of each model;
    count the reference's *events*, the cold outcomes in *reasons* and
    the accelerated replay's shortcuts in *stats*."""
    from repro.campaign.goldens import reference_run
    from repro.swinjector.campaign import replay_injection

    w = _FuzzApp(_spec(seed))
    golden, trace = reference_run(w, _MEM_WORDS, traced_key="")
    watchdog = 4 * golden.dynamic_instructions + 2_048
    for model in INJECTOR_CLASSES:
        for d in range(DRAWS):
            desc = make_descriptor(model, seed, d)
            ref = HookedPERfi(desc)
            hooked = replay_injection(w, desc, golden.bits, watchdog,
                                      _MEM_WORDS, tool=ref)
            want = (w.bits, w.error, w.memory)
            cold = replay_injection(w, desc, golden.bits, watchdog,
                                    _MEM_WORDS)
            where = (seed, model.value, d)
            assert cold == hooked, where
            assert (w.error, w.memory) == want[1:], where
            assert (w.bits is None) == (want[0] is None), where
            if w.bits is not None:
                assert np.array_equal(w.bits, want[0]), where
            fast = replay_injection(w, desc, golden.bits, watchdog,
                                    _MEM_WORDS, trace, stats)
            assert fast == cold, where
            assert (w.bits is None) == (want[0] is None), where
            if w.bits is not None:
                assert np.array_equal(w.bits, want[0]), where
            events.update(ref.events)
            reasons[model.value, cold.outcome, cold.due_reason] += 1


def test_compiled_sites_match_the_hook_reference(monkeypatch):
    from repro.swinjector import accel

    refused = Counter()
    holds = accel._holds

    def counted(*args) -> bool:
        ok = holds(*args)
        refused["live-in"] += not ok
        return ok
    monkeypatch.setattr(accel, "_holds", counted)
    # per simulated run: the CTA row of its first site, and the rows the
    # clean-CTA skip wrote from their golden stores
    runs = []
    init, skip = accel._CleanCtas.__init__, accel._CleanCtas._skip

    def logged_init(self, dev, trace, sites, *args):
        init(self, dev, trace, sites, *args)
        first = np.searchsorted(trace.ctas.start, sites[0], side="right")
        self.log = (int(first) - 1, set())
        runs.append(self.log)

    def logged_skip(self, row0, limit, cta, executed, warps):
        n = skip(self, row0, limit, cta, executed, warps)
        if n:
            self.log[1].add(row0 + cta)
        return n
    monkeypatch.setattr(accel._CleanCtas, "__init__", logged_init)
    monkeypatch.setattr(accel._CleanCtas, "_skip", logged_skip)
    events, reasons, stats = Counter(), Counter(), accel.AccelStats()
    for seed in SEEDS:
        _fuzz(seed, events, reasons, stats)
    # the rarer paths of the error functions were taken
    assert events["ial-override"] > 0
    assert events["ioc-dst-is-src"] > 0
    assert reasons["IVRA", "due", "invalid-register"] > 0
    assert any(r == "watchdog-timeout" for _, _, r in reasons)
    assert {o for _, o, _ in reasons} == {"masked", "sdc", "due"}
    # and the accelerated replay's shortcuts: the loop watch and recorder
    # overlays, and descriptors classified without simulating
    assert stats.hang_cycles and stats.skipped
    # every CTA before a run's first site is skipped, and some runs have
    # such CTAs (a third CTA lands on SM 0 again)
    assert all(skipped >= set(range(first)) for first, skipped in runs)
    assert any(first for first, _ in runs)
    # the clean-CTA skip, and its live-in check refusing a CTA whose
    # loads an earlier CTA's corrupted stores reached
    assert stats.cta_skips and refused["live-in"]


@pytest.mark.parametrize("seed", [0, 5])
def test_generator_is_deterministic(seed):
    a, b = _FuzzApp(_spec(seed)), _FuzzApp(_spec(seed))
    assert [p.instructions for p in a.programs().values()] == \
        [p.instructions for p in b.programs().values()]
