"""Cheap deep snapshot/restore of simulated-GPU architectural state.

The campaign acceleration layer (docs/PERFORMANCE.md) replays only the
*post-activation suffix* of each faulty run: the golden run records
checkpoints at CTA scheduling-round boundaries, and an injection whose
first activation lies at dynamic instruction *A* restores the latest
checkpoint at or before *A* instead of re-executing the fault-free
prefix.  A snapshot therefore captures everything the executor can
observe downstream:

* device state — global memory (with allocator break), constant memory,
  and the per-``(sm, subpartition)`` warp-slot counters that give error
  descriptors their victim coordinates;
* per-warp state — registers, predicates, alive mask, reconvergence
  stack, barrier flag and the executed-instruction counter;
* the resumed CTA's shared memory.

Memories are stored as trimmed prefixes (trailing zero words dropped).
Each memory keeps a written extent (``_WordMemory.extent``) past which
every word is zero, so trimming scans backwards from the extent rather
than from the end of the array, and restoring zero-fills only below the
extent: a snapshot of a 4 MiB global memory holding a few KiB of live
data costs a few KiB to take, store and restore.

The one comparator, :func:`checkpoint_delta`, serves the hang
short-circuit (``accel.HangCycle``): it compares a live round boundary
with the checkpoint taken one loop period earlier. The control state
(allocation break, slot counters, shared memory, and each warp's
identity, stack, barrier flag, alive mask and predicates) must be equal,
and it reports how the registers and global words moved. Per-warp
``instructions_executed`` counters are not compared: they influence no
architectural state and no campaign outcome.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.exceptions import ConfigError
from repro.gpusim.executor import WarpState, _StackEntry


#: words per step of :func:`_trim`'s backward scan
_TRIM_CHUNK = 4096


def _trim(mem) -> np.ndarray:
    """Copy of *mem*'s words without the trailing zero words.

    Words at or past ``mem.extent`` are zero, so the last nonzero word is
    searched backwards from the extent one chunk at a time: the cost
    follows the live footprint, not the size of the memory.
    """
    data = mem.data
    end = mem.extent
    while end > 0:
        start = max(0, end - _TRIM_CHUNK)
        nz = np.flatnonzero(data[start:end])
        if nz.size:
            return data[:start + int(nz[-1]) + 1].copy()
        end = start
    return data[:0].copy()


def _restore_words(mem, trimmed: np.ndarray) -> None:
    """Set *mem*'s words to *trimmed* padded with zeros."""
    mem.data[:mem.extent] = 0
    mem.data[:trimmed.size] = trimmed
    mem.set_extent(trimmed.size)


# ---------------------------------------------------------------------
# device state
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class DeviceSnapshot:
    """Launch-independent device state (memories + slot counters)."""

    mem_words: int
    global_data: np.ndarray        # trimmed prefix, uint32
    global_brk: int
    constant_data: np.ndarray      # trimmed prefix, uint32
    slot_counters: tuple[tuple[int, int, int], ...]


def slot_counters(dev) -> tuple[tuple[int, int, int], ...]:
    """*dev*'s warp-slot counters as a snapshot holds them."""
    return tuple(sorted((sm, sub, slot)
                        for (sm, sub), slot in dev._slot_counters.items()))


def snapshot_device(dev) -> DeviceSnapshot:
    return DeviceSnapshot(
        mem_words=dev.config.global_mem_words,
        global_data=_trim(dev.global_mem),
        global_brk=dev.global_mem._brk,
        constant_data=_trim(dev.constant_mem),
        slot_counters=slot_counters(dev),
    )


def restore_device(dev, snap: DeviceSnapshot) -> None:
    if dev.config.global_mem_words != snap.mem_words:
        raise ConfigError(
            f"snapshot taken with {snap.mem_words} global words cannot "
            f"restore onto a {dev.config.global_mem_words}-word device")
    _restore_words(dev.global_mem, snap.global_data)
    dev.global_mem._brk = snap.global_brk
    _restore_words(dev.constant_mem, snap.constant_data)
    dev._slot_counters.clear()
    for sm, sub, slot in snap.slot_counters:
        dev._slot_counters[(sm, sub)] = slot


def _device_control_matches(dev, snap: DeviceSnapshot) -> bool:
    """Equal allocation break and warp-slot counters."""
    return (dev.global_mem._brk == snap.global_brk
            and slot_counters(dev) == snap.slot_counters)


# ---------------------------------------------------------------------
# warp state
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class WarpSnapshot:
    """Deep copy of one warp's mutable architectural state + identity."""

    cta: int
    warp_in_cta: int
    sm_id: int
    subpartition: int
    warp_slot: int
    alive: np.ndarray              # bool (32,)
    regs: np.ndarray               # uint32 (32, nregs)
    preds: np.ndarray              # bool (32, 8)
    at_barrier: bool
    instructions_executed: int
    stack_reconv: np.ndarray       # int64 (depth,); -1 encodes None
    stack_next: np.ndarray         # int64 (depth,)
    stack_masks: np.ndarray        # bool (depth, 32)


def snapshot_warp(warp: WarpState) -> WarpSnapshot:
    depth = len(warp.stack)
    reconv = np.full(depth, -1, dtype=np.int64)
    nxt = np.zeros(depth, dtype=np.int64)
    masks = np.zeros((depth, warp.alive.size), dtype=bool)
    for i, entry in enumerate(warp.stack):
        if entry.reconv_pc is not None:
            reconv[i] = entry.reconv_pc
        nxt[i] = entry.next_pc
        masks[i] = entry.mask
    return WarpSnapshot(
        cta=warp.cta, warp_in_cta=warp.warp_in_cta, sm_id=warp.sm_id,
        subpartition=warp.subpartition, warp_slot=warp.warp_slot,
        alive=warp.alive.copy(), regs=warp.regs.copy(),
        preds=warp.preds.copy(), at_barrier=warp.at_barrier,
        instructions_executed=warp.instructions_executed,
        stack_reconv=reconv, stack_next=nxt, stack_masks=masks,
    )


def materialize_warp(snap: WarpSnapshot, program, block3, grid3,
                     cta_coord) -> WarpState:
    """Rebuild a live :class:`WarpState` from a snapshot.

    Identity-derived vectors (tid/ctaid/ntid/nctaid) are pure functions
    of the launch geometry, so ``WarpState.__init__`` recomputes them;
    only the mutable state is overwritten from the snapshot.
    """
    warp = WarpState(program, snap.cta, snap.warp_in_cta, block3, grid3,
                     cta_coord, snap.sm_id, snap.subpartition,
                     snap.warp_slot)
    warp.alive = snap.alive.copy()
    warp.regs = snap.regs.copy()
    warp.preds = snap.preds.copy()
    warp.at_barrier = snap.at_barrier
    warp.instructions_executed = snap.instructions_executed
    warp.stack = [
        _StackEntry(
            reconv_pc=None if snap.stack_reconv[i] < 0
            else int(snap.stack_reconv[i]),
            next_pc=int(snap.stack_next[i]),
            mask=snap.stack_masks[i].copy(),
        )
        for i in range(snap.stack_next.size)
    ]
    return warp


def _warp_control_matches(warp: WarpState, snap: WarpSnapshot) -> bool:
    """Equality of a warp's state with a snapshot's, but the register
    file (and ``instructions_executed``, see the module docstring)."""
    if (warp.cta != snap.cta or warp.warp_in_cta != snap.warp_in_cta
            or warp.sm_id != snap.sm_id
            or warp.subpartition != snap.subpartition
            or warp.warp_slot != snap.warp_slot
            or warp.at_barrier != snap.at_barrier):
        return False
    if len(warp.stack) != snap.stack_next.size:
        return False
    for i, entry in enumerate(warp.stack):
        reconv = -1 if entry.reconv_pc is None else entry.reconv_pc
        if (reconv != snap.stack_reconv[i]
                or entry.next_pc != snap.stack_next[i]
                or not np.array_equal(entry.mask, snap.stack_masks[i])):
            return False
    return (np.array_equal(warp.alive, snap.alive)
            and np.array_equal(warp.preds, snap.preds))


# ---------------------------------------------------------------------
# checkpoints and launch resumption
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class LaunchResume:
    """Mid-launch resume point consumed by ``Device.launch(resume=...)``.

    ``executed`` is the launch-cumulative instruction count at the
    checkpoint, so the resumed launch's watchdog accounting (and its
    timeout classification) is bit-identical to a cold replay.
    """

    cta: int
    executed: int
    device: DeviceSnapshot
    warps: tuple[WarpSnapshot, ...]
    shared: np.ndarray             # full shared-memory words of the CTA

    # duck-typed interface used by Device._launch_grid
    def apply_device(self, dev) -> None:
        restore_device(dev, self.device)

    def make_warps(self, program, block3, grid3, cta_coord):
        return [materialize_warp(s, program, block3, grid3, cta_coord)
                for s in self.warps]


@dataclass(frozen=True)
class Checkpoint:
    """Golden-run state at one CTA scheduling-round boundary."""

    index: int                     # global dynamic-instruction index
    launch: int                    # launch ordinal within the workload
    cta: int                       # CTA being scheduled
    executed: int                  # launch-cumulative instruction count
    device: DeviceSnapshot
    warps: tuple[WarpSnapshot, ...]
    shared: np.ndarray

    def resume(self) -> LaunchResume:
        return LaunchResume(cta=self.cta, executed=self.executed,
                            device=self.device, warps=self.warps,
                            shared=self.shared)


def capture_checkpoint(dev, launch: int, cta: int, executed: int,
                       index: int, warps, shared_mem) -> Checkpoint:
    return Checkpoint(
        index=index, launch=launch, cta=cta, executed=executed,
        device=snapshot_device(dev),
        warps=tuple(snapshot_warp(w) for w in warps),
        shared=shared_mem.data.copy(),
    )


def checkpoint_delta(dev, ck: Checkpoint, warps, shared_mem,
                     max_words: int):
    """How the live state at a round boundary differs from *ck* when only
    numbers moved: ``(register deltas, memory deltas)``, or ``None``.

    The register deltas are one uint32 ``(32, nregs)`` array per warp,
    ``live - ck`` modulo 2**32. The memory deltas map global word index to
    its uint32 delta, for the (at most *max_words*) words that differ.
    Everything else (shared memory, allocation break, slot counters, warp
    identities, predicates, alive masks, stacks, barrier flags) must be
    equal, else the result is ``None``. Equal states give all-zero arrays
    and an empty dict.
    """
    if len(warps) != len(ck.warps):
        return None
    if not np.array_equal(shared_mem.data, ck.shared):
        return None
    if not _device_control_matches(dev, ck.device):
        return None
    if not all(_warp_control_matches(w, s) for w, s in zip(warps, ck.warps)):
        return None
    g = dev.global_mem.data
    old = ck.device.global_data
    t = old.size
    words = np.concatenate((np.flatnonzero(g[:t] != old),
                            t + np.flatnonzero(g[t:dev.global_mem.extent])))
    if words.size > max_words:
        return None
    before = np.zeros(words.size, dtype=np.uint32)
    inside = words < t
    before[inside] = old[words[inside]]
    mem = {int(w): int(d) for w, d in zip(words, g[words] - before)}
    return [w.regs - s.regs for w, s in zip(warps, ck.warps)], mem


__all__ = [
    "Checkpoint",
    "DeviceSnapshot",
    "LaunchResume",
    "WarpSnapshot",
    "capture_checkpoint",
    "checkpoint_delta",
    "materialize_warp",
    "restore_device",
    "slot_counters",
    "snapshot_device",
    "snapshot_warp",
]
