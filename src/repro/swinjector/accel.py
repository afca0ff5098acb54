"""Accelerated EPR injection: checkpointed differential replay.

A cold replay re-executes every injection from dynamic instruction 0.
But a permanent fault is invisible until its *activation condition*
first holds — the victim warp sits on the faulty hardware, the
instruction maps onto the faulty unit, and an affected thread is in the
execution mask — and until then the faulty run is the golden run, bit
for bit.  All three predicates are closed-form over the golden trace
(:class:`repro.campaign.goldens.GoldenTrace`), so this module supplies
the shortcuts :func:`repro.swinjector.campaign.run_one_injection` takes
when it is handed a golden trace. It

* computes every injection's activation sites without simulating
  (:func:`activation_sites`), classifying never-activating descriptors,
  and those whose every activation the static analyzer proves inert, as
  Masked with zero simulated instructions;
* skips whole pre-activation launches (restoring the golden post-launch
  device snapshot so host-side reads between launches are identical) and
  resumes the first-activation launch from the latest golden checkpoint
  at or before the first site;
* declares Masked early when the post-activation state reconverges with a
  golden checkpoint at an aligned ``(launch, cta, executed)`` boundary
  and no activation sites remain;
* fast-forwards a launch that has outrun its golden counterpart and
  provably repeats its round-boundary state straight to the slice where
  its watchdog fires (:class:`HangCycle`).

Every shortcut is equivalence-preserving — outcomes, DUE reasons and
activation counts are bit-identical to the cold replay (the
soundness arguments live in docs/PERFORMANCE.md, the proof-by-test in
tests/test_accel_equivalence.py).
"""

from __future__ import annotations

import hashlib
import pickle
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.campaign.goldens import GoldenTrace
from repro.gpusim.device import LaunchResult
from repro.gpusim.snapshot import (
    capture_checkpoint,
    checkpoint_matches,
    restore_device,
)
from repro.swinjector.injectors import BaseInjector

_CK_RESTORES = obs.REGISTRY.counter("checkpoint_restores_total")
_PREFIX_SAVED = obs.REGISTRY.counter("prefix_instructions_saved_total")
_EARLY_EXITS = obs.REGISTRY.counter("early_exits_total")
_HANG_CYCLES = obs.REGISTRY.counter("hang_cycles_total")

#: round digests :class:`HangCycle` keeps per CTA before it starts over,
#: bounding its memory (~4 MiB); a period longer than half of this many
#: rounds may be missed and is then left to the watchdog
_MAX_ROUNDS = 1 << 15


class EarlyMasked(Exception):
    """Raised by the round-boundary comparator when the faulty trajectory
    has provably reconverged with the golden run.  Deliberately *not* a
    DeviceError: it must never be classified as a DUE."""


@dataclass
class AccelStats:
    """Per-work-unit acceleration accounting (surfaced in telemetry)."""

    restores: int = 0
    saved_instructions: int = 0
    early_exits: int = 0
    #: injections classified without simulating a single instruction
    skipped: int = 0
    #: injections sharing a behaviorally identical descriptor's run
    collapsed: int = 0
    #: hangs fast-forwarded to their watchdog slice (:class:`HangCycle`)
    hang_cycles: int = 0

    def as_dict(self) -> dict:
        return {"enabled": True, "restores": self.restores,
                "saved_instructions": self.saved_instructions,
                "early_exits": self.early_exits, "skipped": self.skipped,
                "collapsed": self.collapsed,
                "hang_cycles": self.hang_cycles}

    def skip(self, trace: GoldenTrace) -> None:
        """Tally an injection classified Masked without simulating (it
        never activates, or every activation is inert)."""
        self.skipped += 1
        self.saved_instructions += trace.total_instructions
        _PREFIX_SAVED.inc(trace.total_instructions)

    def early_exit(self) -> None:
        """Tally a run that reconverged with golden (:class:`EarlyMasked`)."""
        self.early_exits += 1
        _EARLY_EXITS.inc()

    def hang_cycle(self, instructions: int) -> None:
        """Tally a hang fast-forwarded over *instructions*."""
        self.hang_cycles += 1
        self.saved_instructions += instructions
        _HANG_CYCLES.inc()
        _PREFIX_SAVED.inc(instructions)


#: descriptor fields each model's injector actually reads (beyond the
#: dispatcher's victim selection).  Two descriptors agreeing on the
#: dispatcher fields AND these are behaviorally identical: the entire
#: faulty run is a deterministic function of them, so the injection is
#: simulated once and its outcome replicated (dynamic fault collapsing —
#: the EPR analog of gate-level fault dropping).  Derived from
#: repro/swinjector/injectors.py; verified by tests/test_accel_equivalence.py.
_RELEVANT_FIELDS: dict[str, tuple[str, ...]] = {
    "IRA": ("err_oper_loc", "bit_err_mask"),
    "IVRA": ("err_oper_loc", "bit_err_mask"),
    "IOC": ("replacement_op",),
    "IVOC": (),                      # raises at the first activation
    "IIO": ("bit_err_mask",),
    "WV": ("bit_err_mask",),
    "IAT": ("bit_err_mask",),
    "IAW": ("bit_err_mask",),
    "IAC": ("bit_err_mask",),
    "IAL": ("lane", "lane_enable_mode"),
    "IMS": ("bit_err_mask",),
    "IMD": ("bit_err_mask", "err_oper_loc"),
    # IPP picks its delegate from (bit_err_mask, lane, err_oper_loc)
    "IPP": ("bit_err_mask", "lane", "err_oper_loc"),
}


def behavior_key(desc) -> tuple | None:
    """Hashable behavioral identity of a descriptor, or ``None`` when the
    model is unknown (then never collapse)."""
    fields = _RELEVANT_FIELDS.get(desc.model.value)
    if fields is None:
        return None
    return (desc.model.value, desc.sm_id, desc.subpartition,
            tuple(sorted(desc.warp_slots)), desc.thread_mask,
            *(getattr(desc, f) for f in fields))


def _target_pc_mask(injector, program) -> np.ndarray:
    """Static pcs of *program* the injector's error functions attach to."""
    mask = np.zeros(len(program), dtype=bool)
    for pc in range(len(program)):
        mask[pc] = injector.targets(program[pc])
    return mask


def activation_sites(trace: GoldenTrace, desc, injector,
                     programs: dict) -> np.ndarray:
    """Global dynamic-instruction indices where *desc* activates.

    Evaluates the exact condition of ``NVBitPERfi._victims`` over the
    golden trajectory: warp coordinates match the descriptor, the static
    instruction is targeted by the model's injector, and the thread mask
    intersects the execution mask.  Valid for the whole faulty run up to
    (and including) the first returned site, because the faulty run is
    the golden run until then.
    """
    n = trace.ev_pc.size
    if n == 0 or not trace.coords:
        return np.zeros(0, dtype=np.int64)
    coord_ok = np.fromiter(
        (desc.matches_warp(sm, sub, slot) for sm, sub, slot in trace.coords),
        dtype=bool, count=len(trace.coords))
    ok = np.zeros(n, dtype=bool)
    pc_masks: dict[str, np.ndarray] = {}
    for rec in trace.launches:
        s = rec.start_index
        e = s + rec.instructions_executed
        pc_ok = pc_masks.get(rec.program)
        if pc_ok is None:
            pc_ok = pc_masks[rec.program] = _target_pc_mask(
                injector, programs[rec.program])
        ok[s:e] = pc_ok[trace.ev_pc[s:e]]
    ok &= coord_ok[trace.ev_coord]
    ok &= (trace.ev_mask & np.uint32(desc.thread_mask & 0xFFFFFFFF)) != 0
    return np.flatnonzero(ok)


def injector_state(injector: BaseInjector) -> bytes:
    """An injector's instance state as bytes: every attribute except its
    (constant) descriptor, an IPP delegate included. Pickling is
    faithful, so equal bytes mean equal state."""
    return pickle.dumps({k: v for k, v in vars(injector).items()
                         if k != "desc"}, protocol=5)


def _round_digest(dev, warps, shared_mem, inj: bytes) -> bytes:
    """SHA-256 of the round-boundary state: global memory up to the
    allocation break, the CTA's shared memory, every warp's registers,
    predicates, alive mask, reconvergence stack and barrier flag, and the
    injector state *inj*.  A hit is only a candidate (memory past the
    break is not hashed, and digests can collide); :class:`HangCycle`
    confirms it by exact comparison."""
    h = hashlib.sha256()
    g = dev.global_mem
    h.update(g.data[:g._brk])
    h.update(shared_mem.data)
    for w in warps:
        h.update(w.regs)
        h.update(w.preds)
        h.update(w.alive)
        h.update(b"%d %d" % (w.at_barrier, len(w.stack)))
        for e in w.stack:
            h.update(b"%d %d" % (-1 if e.reconv_pc is None else e.reconv_pc,
                                 e.next_pc))
            h.update(e.mask)
    h.update(inj)
    return h.digest()


class HangCycle:
    """Round hook that proves a launch periodic and fast-forwards it to
    the slice where its watchdog fires.

    Once a launch has outrun its golden counterpart, each round boundary
    of the current CTA is digested (:func:`_round_digest`). A digest seen
    before at ``executed - P`` makes ``P`` a candidate period: the state
    is captured exactly (:func:`~repro.gpusim.snapshot.capture_checkpoint`
    plus :func:`injector_state`) and one more period is simulated. If the
    state at ``executed + P`` equals the capture, the simulator's
    determinism makes the run periodic for ever; the hook then returns
    ``k·P`` with ``k = (watchdog - executed) // P`` (``Device.launch``
    adds it to the launch counter) and credits the ``k·ΔA`` activations
    those periods would have made. Plain simulation covers the last
    partial period, so the watchdog fires in the same slice, with the same
    activation count, as in the cold replay (docs/PERFORMANCE.md, "Hang
    short-circuit"). A hang that never repeats is left to the watchdog.
    """

    def __init__(self, dev, tool, watchdog: int, stats: AccelStats):
        self.dev = dev
        self.tool = tool
        self.watchdog = watchdog
        self.stats = stats
        self.cta = None
        #: round digest -> launch-cumulative count where it was last seen
        self.seen: dict[bytes, int] = {}
        #: (checkpoint, injector state, activations, period) under test
        self.candidate = None
        self.done = False

    def __call__(self, cta, executed, warps, shared_mem):
        if self.done:
            return None
        if cta != self.cta:
            self.cta = cta
            self.seen.clear()
            self.candidate = None
        tool = self.tool
        if self.candidate is not None:
            ck, ck_inj, activations, period = self.candidate
            if executed < ck.executed + period:
                return None
            self.candidate = None
            if (executed == ck.executed + period
                    and injector_state(tool.injector) == ck_inj
                    and checkpoint_matches(self.dev, ck, warps, shared_mem)):
                self.done = True
                k = (self.watchdog - executed) // period
                if k <= 0:
                    return None
                tool.activations += k * (tool.activations - activations)
                self.stats.hang_cycle(k * period)
                return k * period
        inj = injector_state(tool.injector)
        key = _round_digest(self.dev, warps, shared_mem, inj)
        prev = self.seen.get(key)
        if len(self.seen) >= _MAX_ROUNDS:
            self.seen.clear()
        self.seen[key] = executed
        if prev is not None:
            ck = capture_checkpoint(self.dev, -1, cta, executed, -1, warps,
                                    shared_mem)
            self.candidate = (ck, inj, tool.activations, executed - prev)
        return None


def replay_launcher(dev, trace: GoldenTrace, sites: np.ndarray, tool,
                    watchdog: int, stats: AccelStats):
    """Workload launcher for a faulty run on *dev* that activates at
    *sites* (non-empty): pre-activation launches are skipped, the
    first-activation launch resumes from the latest golden checkpoint, a
    round boundary past the last site that matches a golden checkpoint
    raises :class:`EarlyMasked`, and a launch that outruns its golden
    counterpart (or has none) is watched by :class:`HangCycle`."""
    first = int(sites[0])
    last = int(sites[-1])
    ck_at = {(c.launch, c.cta, c.executed): c for c in trace.checkpoints}
    state = {"launch": 0}

    def launcher(program, grid, block, params=(), shared_words=None):
        m = state["launch"]
        state["launch"] += 1
        rec = trace.launches[m] if m < len(trace.launches) else None

        if (rec is not None
                and rec.start_index + rec.instructions_executed <= first):
            # the whole launch precedes the first activation: restore the
            # golden post-launch snapshot (host reads between launches see
            # identical memory) and report the golden statistics
            restore_device(dev, trace.post_launch[m])
            stats.saved_instructions += rec.instructions_executed
            _PREFIX_SAVED.inc(rec.instructions_executed)
            return LaunchResult(
                program=rec.program, grid=rec.grid, block=rec.block,
                num_ctas=rec.num_ctas, warps_per_cta=rec.warps_per_cta,
                instructions_executed=rec.instructions_executed)

        resume = None
        if rec is not None and rec.start_index <= first:
            ck = trace.best_checkpoint(first)
            if ck is not None and ck.launch == m:
                resume = ck.resume()
                stats.restores += 1
                stats.saved_instructions += ck.executed
                _CK_RESTORES.inc()
                _PREFIX_SAVED.inc(ck.executed)

        hang = HangCycle(dev, tool, watchdog, stats)
        if rec is None:
            hook = hang  # past the golden launch list: no golden to meet
        else:
            def hook(cta, executed, warps, shared_mem,
                     _base=rec.start_index, _m=m,
                     _golden=rec.instructions_executed):
                if executed > _golden:
                    # past every golden checkpoint of this launch
                    return hang(cta, executed, warps, shared_mem)
                idx = _base + executed
                if last >= idx:
                    return  # activation sites remain: cannot exit yet
                ck = ck_at.get((_m, cta, executed))
                if ck is not None and checkpoint_matches(dev, ck, warps,
                                                         shared_mem):
                    raise EarlyMasked

        return dev.launch(program, grid, block, params=params,
                          shared_words=shared_words, watchdog=watchdog,
                          instrumentation=tool, round_hook=hook,
                          resume=resume)

    return launcher


__all__ = [
    "AccelStats",
    "EarlyMasked",
    "HangCycle",
    "activation_sites",
    "behavior_key",
    "injector_state",
    "replay_launcher",
]
