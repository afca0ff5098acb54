"""Content-addressed golden-run cache.

The dominant redundant cost of a software-level campaign is re-running the
fault-free reference: classifying one injection needs the golden output
bits of its ``(workload, scale, seed)``, and a 1,000-injection campaign
used to recompute them 1,000 times. This cache computes each golden run
once per process. Campaigns :meth:`~ContentCache.warm` it in the parent
before the worker pool forks, so every worker inherits the entries
copy-on-write and every work unit is a cache hit.

There is one reference run, :func:`reference_run`. An accelerated
campaign warms the checkpoint-trace cache first: its one instrumented
pass yields the golden run too, which lands in :data:`GOLDEN_CACHE` (or
is checked against the entry already there). ``--no-accel`` campaigns
run the same function untraced (:func:`golden_run`).

Entries are content-addressed: the key is the SHA-256 of the identity
tuple ``(workload, scale, seed, mem_words)`` and each entry additionally
records the SHA-256 digest of the golden output bits, so result stores can
assert they were classified against the same reference.

With :meth:`ContentCache.persist_to` the cache additionally spills entries
to a directory (campaigns use ``<campaign dir>/goldens/`` and
``<campaign dir>/checkpoints/``, :meth:`ContentCache.persist_under`):
writes are atomic (tmp + ``os.replace``), and every read re-hashes the
stored arrays against the recorded digest — a truncated or bit-flipped
entry is discarded and recomputed-and-rewritten instead of poisoning
every classification that follows. :meth:`ContentCache.check_spill` runs
the same decoder over a campaign directory's spill for ``verify`` and
``repair`` (see docs/RESILIENCE.md).
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro import obs
from repro.gpusim.config import DeviceConfig
from repro.gpusim.device import Device
from repro.obs import log
from repro.workloads import get_workload

#: default global-memory size campaigns run workloads with
DEFAULT_MEM_WORDS = 1 << 20


def golden_key(app: str, scale: str, seed: int,
               mem_words: int = DEFAULT_MEM_WORDS) -> str:
    """Content address of one golden run's identity tuple."""
    ident = f"golden|{app}|{scale}|{int(seed)}|{int(mem_words)}"
    return hashlib.sha256(ident.encode()).hexdigest()


@functools.lru_cache(maxsize=64)
def cached_workload(app: str, scale: str, seed: int):
    """Workload instances are immutable after construction (seeded data +
    cached programs), so one instance serves every injection."""
    return get_workload(app, scale=scale, seed=seed)


@dataclass(frozen=True)
class GoldenRun:
    """Fault-free reference output of one (workload, scale, seed)."""

    key: str
    bits: np.ndarray
    #: dynamic instructions of the golden execution; campaigns derive the
    #: faulty-run watchdog budget from it
    dynamic_instructions: int
    #: SHA-256 of the golden output bits (integrity / provenance)
    digest: str


def _bits_digest(bits: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(bits).tobytes()).hexdigest()


def _compute(app: str, scale: str, seed: int, mem_words: int) -> GoldenRun:
    return golden_run(cached_workload(app, scale, seed), mem_words,
                      golden_key(app, scale, seed, mem_words))


class ContentCache:
    """Process-local content-addressed cache with hit/miss accounting and
    an optional integrity-checked disk spill.

    One class serves both reference caches; an instance is parameterized
    by *kind* (its log name), *spill_dir* (its directory under a campaign
    directory), *key_fn* (identity tuple -> content address), *compute*
    (builds a missing entry, inside a span named *span*), and
    *encode*/*decode* (entry <-> the named arrays of its
    ``<key><suffix>`` spill file). *decode* receives the expected key and
    must raise when the arrays fail its digest check.
    """

    def __init__(self, kind: str, spill_dir: str, key_fn, compute, encode,
                 decode, suffix: str, span: str) -> None:
        self.kind = kind
        self.spill_dir = spill_dir
        self._key_fn = key_fn
        self._compute = compute
        self._encode = encode
        self._decode = decode
        self._suffix = suffix
        self._span = span
        self._entries: dict[str, object] = {}
        self.hits = 0
        self.misses = 0
        #: spill directory (``persist_to``); None = in-memory only
        self.disk_dir: Path | None = None
        self.disk_hits = 0
        #: disk entries rejected by the digest check and recomputed
        self.disk_rejects = 0

    def __len__(self) -> int:
        return len(self._entries)

    def persist_to(self, directory: str | Path | None) -> None:
        """Spill entries to *directory* (resume reuses them across process
        restarts); ``None`` disables persistence."""
        if directory is None:
            self.disk_dir = None
            return
        self.disk_dir = Path(directory)
        self.disk_dir.mkdir(parents=True, exist_ok=True)

    def persist_under(self, campaign_dir: str | Path) -> None:
        """Spill entries to this cache's directory under *campaign_dir*."""
        self.persist_to(Path(campaign_dir) / self.spill_dir)

    def check_spill(self, campaign_dir: str | Path
                    ) -> dict[Path, str | None] | None:
        """Decode every entry spilled under *campaign_dir* as a read
        would: path -> problem, ``None`` for an entry that decodes.
        Returns ``None`` when the campaign has no spill of this cache."""
        directory = Path(campaign_dir) / self.spill_dir
        if not directory.is_dir():
            return None
        entries: dict[Path, str | None] = {}
        for path in sorted(directory.glob(f"*{self._suffix}")):
            try:
                self._read(path, path.name[:-len(self._suffix)])
                entries[path] = None
            except Exception as exc:
                entries[path] = str(exc) or type(exc).__name__
        return entries

    def get(self, app: str, scale: str, seed: int,
            mem_words: int = DEFAULT_MEM_WORDS, computed=None):
        """Return the entry, computing (and counting a miss) if absent.

        *computed* is an entry the caller already built: on a miss it is
        stored (and spilled) instead of computing one; on a hit the
        cached entry is returned and the caller compares the two."""
        key = self._key_fn(app, scale, seed, mem_words)
        entry = self._entries.get(key)
        if entry is not None:
            self.hits += 1
            return entry
        entry = self._disk_load(key)
        if entry is not None:
            self.hits += 1
            self.disk_hits += 1
            self._entries[key] = entry
            return entry
        self.misses += 1
        entry = computed
        if entry is None:
            with obs.span(self._span, app=app, scale=scale):
                entry = self._compute(app, scale, seed, mem_words)
        self._entries[key] = entry
        self._disk_store(entry)
        return entry

    # -- disk spill ----------------------------------------------------
    def _disk_path(self, key: str) -> Path:
        return self.disk_dir / f"{key}{self._suffix}"

    def _read(self, path: Path, key: str):
        """Decode one spill file; raises when it fails the digest check."""
        with np.load(path, allow_pickle=False) as z:
            # each z[k] reads a fresh array out of the file
            arrays = {k: z[k] for k in z.files}
        return self._decode(key, arrays)

    def _disk_load(self, key: str):
        """Load + verify one spilled entry; a corrupt entry is discarded
        (the caller recomputes and rewrites it) instead of raising."""
        if self.disk_dir is None:
            return None
        path = self._disk_path(key)
        if not path.exists():
            return None
        try:
            return self._read(path, key)
        except Exception as exc:
            self.disk_rejects += 1
            log.warning(f"{self.kind} cache entry {path.name} is corrupt "
                        f"({exc}); recomputing")
            try:
                path.unlink(missing_ok=True)
            except OSError:
                pass
            return None

    def _disk_store(self, entry) -> None:
        """Atomically spill one entry (tmp + ``os.replace``); persistence
        is an optimization, so write failures degrade to a warning."""
        if self.disk_dir is None:
            return
        path = self._disk_path(entry.key)
        tmp = path.with_name(f".{path.name}.tmp.{os.getpid()}")
        try:
            with open(tmp, "wb") as fh:
                np.savez(fh, **self._encode(entry))
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except OSError as exc:
            log.warning(f"could not persist {self.kind} cache entry "
                        f"{path.name}: {exc}")
            tmp.unlink(missing_ok=True)

    def warm(self, specs) -> int:
        """Pre-compute entries for ``(app, scale, seed, mem_words)``
        tuples; returns how many were actually computed (cache misses)."""
        before = self.misses
        for app, scale, seed, mem_words in specs:
            self.get(app, scale, seed, mem_words)
        return self.misses - before

    def stats(self) -> tuple[int, int]:
        return self.hits, self.misses

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def clear(self) -> None:
        """Drop in-memory entries and counters (disk spill dir is kept
        but also reset to disabled for test isolation)."""
        self._entries.clear()
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
        self.disk_rejects = 0
        self.disk_dir = None


def _golden_encode(entry: GoldenRun) -> dict:
    meta = json.dumps({
        "key": entry.key,
        "digest": entry.digest,
        "dynamic_instructions": entry.dynamic_instructions,
    })
    return {"bits": entry.bits, "meta": np.array(meta)}


def _golden_decode(key: str, arrays: dict) -> GoldenRun:
    bits = arrays["bits"]
    meta = json.loads(str(arrays["meta"][()]))
    digest = _bits_digest(bits)
    if meta.get("key") != key or meta.get("digest") != digest:
        raise ValueError("golden entry digest mismatch")
    return GoldenRun(key=key, bits=bits,
                     dynamic_instructions=int(meta["dynamic_instructions"]),
                     digest=digest)


#: a fresh golden-run cache (``<key>.npz`` spill entries)
GoldenCache = functools.partial(
    ContentCache, "golden", "goldens", golden_key, _compute, _golden_encode,
    _golden_decode, ".npz", "golden.compute")

#: the process singleton; forked workers inherit warmed entries
GOLDEN_CACHE = GoldenCache()


# =====================================================================
# golden execution traces + checkpoints (campaign acceleration layer)
# =====================================================================
#
# The accelerated EPR path (docs/PERFORMANCE.md) needs more than the
# golden output bits: it needs the golden *trajectory* — one record per
# dynamic instruction (pc, warp coordinates, execution mask) so a
# descriptor's activation sites can be computed without simulating, plus
# restorable checkpoints so the fault-free prefix is never re-executed.
# Traces are content-addressed by the same identity tuple as golden runs
# and digest-bound to the golden bits they were captured against: the
# traced pass that builds a trace also builds its golden run.

def trace_key(app: str, scale: str, seed: int,
              mem_words: int = DEFAULT_MEM_WORDS) -> str:
    """Content address of one golden trace's identity tuple."""
    ident = f"trace|{app}|{scale}|{int(seed)}|{int(mem_words)}"
    return hashlib.sha256(ident.encode()).hexdigest()


#: checkpoint spacing (dynamic instructions) a reference pass starts with
EPOCH_MIN = 64
#: the spacing doubles up to this
EPOCH_MAX = 8192
#: more checkpoints held than this thins them and doubles the spacing
MAX_CHECKPOINTS = 32


def thin_checkpoints(checkpoints: list, every: int) -> int:
    """The checkpoint epoch rule, applied after each capture.

    A reference pass does not know its length until it ends, so its
    checkpoint spacing starts at :data:`EPOCH_MIN`. Once more than
    :data:`MAX_CHECKPOINTS` are held, every other one is dropped in place
    (the first and the newest stay) and the spacing doubles, up to
    :data:`EPOCH_MAX`. Returns the spacing for the next capture.
    """
    if len(checkpoints) <= MAX_CHECKPOINTS or every >= EPOCH_MAX:
        return every
    del checkpoints[1::2]
    return min(2 * every, EPOCH_MAX)


@dataclass(frozen=True)
class LaunchRecord:
    """Shape + cost of one golden kernel launch (for launch skipping)."""

    program: str
    grid: tuple[int, int, int]
    block: tuple[int, int, int]
    num_ctas: int
    warps_per_cta: int
    instructions_executed: int
    #: global dynamic-instruction index of this launch's first instruction
    start_index: int


@dataclass(frozen=True)
class GoldenTrace:
    """Golden trajectory of one (workload, scale, seed, mem_words).

    Event arrays are parallel, one entry per dynamic instruction in
    execution order across all launches: ``ev_pc`` the static pc,
    ``ev_coord`` an index into ``coords`` (the warp's
    ``(sm, subpartition, warp_slot)``), ``ev_mask`` the execution mask
    packed into a uint32 (bit *i* = lane *i* executed).  Together with a
    descriptor's coordinate/instruction/thread predicates these determine
    every activation site in closed form (see
    :func:`repro.swinjector.accel.activation_sites`).
    """

    key: str
    ev_pc: np.ndarray              # int32 (N,)
    ev_coord: np.ndarray           # int32 (N,)
    ev_mask: np.ndarray            # uint32 (N,)
    coords: tuple[tuple[int, int, int], ...]
    launches: tuple[LaunchRecord, ...]
    checkpoints: tuple              # of repro.gpusim.snapshot.Checkpoint
    post_launch: tuple              # of DeviceSnapshot, one per launch
    total_instructions: int
    epoch: int
    #: SHA-256 of the golden output bits this trace reproduces
    digest: str

    @functools.cached_property
    def _starts(self) -> np.ndarray:
        return np.array([rec.start_index for rec in self.launches],
                        dtype=np.int64)

    def launch_of(self, index: int) -> int:
        """Launch ordinal containing global dynamic instruction *index*."""
        return int(np.searchsorted(self._starts, index, side="right")) - 1

    def best_checkpoint(self, index: int):
        """Latest checkpoint inside *index*'s launch with
        ``ck.index <= index`` (resume point), or ``None`` — then the
        launch replays from its start."""
        launch = self.launch_of(index)
        best = None
        for ck in self.checkpoints:
            if ck.launch == launch and ck.index <= index:
                if best is None or ck.index > best.index:
                    best = ck
        return best


def reference_run(w, mem_words: int, key: str = "",
                  traced_key: str | None = None):
    """The fault-free reference run of workload *w* on a fresh
    *mem_words* device: ``(GoldenRun, GoldenTrace | None)``.

    With *traced_key* (the trace's key) the one pass is instrumented: it
    records every dynamic instruction, takes checkpoints at round
    boundaries spaced by :func:`thin_checkpoints`'s rule, and snapshots
    the device after each launch. Without it (``--no-accel`` campaigns)
    the pass runs plain and the trace is ``None``.
    """
    from repro.gpusim.snapshot import capture_checkpoint, snapshot_device

    traced = traced_key is not None
    dev = Device(DeviceConfig(global_mem_words=mem_words))

    ev_pc: list[int] = []
    ev_coord: list[int] = []
    masks: list[np.ndarray] = []
    coord_index: dict[tuple[int, int, int], int] = {}
    launches: list[LaunchRecord] = []
    checkpoints: list = []
    post_launch: list = []
    state = {"launch": 0, "base": 0, "last_ck": 0, "every": EPOCH_MIN}

    def trace_fn(ev):
        ci = coord_index.setdefault(
            (ev.sm_id, ev.subpartition, ev.warp_slot), len(coord_index))
        ev_pc.append(ev.pc)
        ev_coord.append(ci)
        masks.append(ev.exec_mask)

    def round_hook(cta, executed, warps, shared_mem):
        if executed == 0:
            return
        idx = state["base"] + executed
        if idx - state["last_ck"] < state["every"]:
            return
        state["last_ck"] = idx
        checkpoints.append(capture_checkpoint(
            dev, state["launch"], cta, executed, idx, warps, shared_mem))
        state["every"] = thin_checkpoints(checkpoints, state["every"])

    hooks = {"trace_fn": trace_fn, "round_hook": round_hook} if traced else {}

    def launcher(program, grid, block, params=(), shared_words=None):
        res = dev.launch(program, grid, block, params=params,
                         shared_words=shared_words, **hooks)
        if traced:
            launches.append(LaunchRecord(
                program=res.program, grid=res.grid, block=res.block,
                num_ctas=res.num_ctas, warps_per_cta=res.warps_per_cta,
                instructions_executed=res.instructions_executed,
                start_index=state["base"]))
            post_launch.append(snapshot_device(dev))
        state["base"] += res.instructions_executed
        state["launch"] += 1
        return res

    bits = w.run(dev, launcher)
    golden = GoldenRun(key=key, bits=bits,
                       dynamic_instructions=state["base"],
                       digest=_bits_digest(bits))
    if not traced:
        return golden, None

    if masks:
        packed = np.packbits(np.asarray(masks, dtype=bool), axis=1,
                             bitorder="little")
        ev_mask = np.ascontiguousarray(packed).view(np.uint32).ravel()
    else:
        ev_mask = np.zeros(0, dtype=np.uint32)
    coords = tuple(sorted(coord_index, key=coord_index.get))
    return golden, GoldenTrace(
        key=traced_key,
        ev_pc=np.asarray(ev_pc, dtype=np.int32),
        ev_coord=np.asarray(ev_coord, dtype=np.int32),
        ev_mask=ev_mask,
        coords=coords,
        launches=tuple(launches),
        checkpoints=tuple(checkpoints),
        post_launch=tuple(post_launch),
        total_instructions=state["base"],
        epoch=state["every"],
        digest=golden.digest,
    )


def golden_run(w, mem_words: int, key: str = "") -> GoldenRun:
    """Fault-free run of workload *w*: the untraced reference run."""
    return reference_run(w, mem_words, key)[0]


def _trace_compute(app: str, scale: str, seed: int,
                   mem_words: int) -> GoldenTrace:
    """One traced pass builds both references: its :class:`GoldenRun`
    goes into :data:`GOLDEN_CACHE` (a golden miss) unless an entry for
    the key exists already, in memory or spilled, which it must equal."""
    w = cached_workload(app, scale, seed)
    golden, trace = reference_run(w, mem_words,
                                  golden_key(app, scale, seed, mem_words),
                                  trace_key(app, scale, seed, mem_words))
    held = GOLDEN_CACHE.get(app, scale, seed, mem_words, computed=golden)
    if (held.digest != golden.digest
            or held.dynamic_instructions != golden.dynamic_instructions):
        raise RuntimeError(
            f"golden trace of {w.meta.name}/{w.scale} diverged from the "
            f"cached golden run (nondeterministic workload?)")
    return trace


# -- trace (de)serialization for the .npz spill -----------------------

def _snap_meta(snap) -> dict:
    return {"mem_words": snap.mem_words, "global_brk": snap.global_brk,
            "slot_counters": [list(t) for t in snap.slot_counters]}


def _snap_from(meta: dict, global_data, constant_data):
    from repro.gpusim.snapshot import DeviceSnapshot

    return DeviceSnapshot(
        mem_words=int(meta["mem_words"]),
        global_data=np.asarray(global_data, dtype=np.uint32),
        global_brk=int(meta["global_brk"]),
        constant_data=np.asarray(constant_data, dtype=np.uint32),
        slot_counters=tuple(tuple(int(x) for x in t)
                            for t in meta["slot_counters"]))


def _trace_to_arrays(trace: GoldenTrace) -> tuple[dict, dict]:
    """Flatten a trace into (named arrays, JSON-able meta)."""
    arrays = {"ev_pc": trace.ev_pc, "ev_coord": trace.ev_coord,
              "ev_mask": trace.ev_mask,
              "coords": np.asarray(trace.coords or
                                   np.zeros((0, 3)), dtype=np.int32)}
    meta = {
        "key": trace.key, "digest": trace.digest,
        "total_instructions": trace.total_instructions,
        "epoch": trace.epoch,
        "launches": [{
            "program": r.program, "grid": list(r.grid),
            "block": list(r.block), "num_ctas": r.num_ctas,
            "warps_per_cta": r.warps_per_cta,
            "instructions_executed": r.instructions_executed,
            "start_index": r.start_index} for r in trace.launches],
        "post_launch": [_snap_meta(s) for s in trace.post_launch],
        "checkpoints": [],
    }
    for i, snap in enumerate(trace.post_launch):
        arrays[f"pl{i}_g"] = snap.global_data
        arrays[f"pl{i}_c"] = snap.constant_data
    for j, ck in enumerate(trace.checkpoints):
        meta["checkpoints"].append({
            "index": ck.index, "launch": ck.launch, "cta": ck.cta,
            "executed": ck.executed, "device": _snap_meta(ck.device),
            "warps": [{
                "cta": w.cta, "warp_in_cta": w.warp_in_cta,
                "sm_id": w.sm_id, "subpartition": w.subpartition,
                "warp_slot": w.warp_slot, "at_barrier": bool(w.at_barrier),
                "instructions_executed": w.instructions_executed}
                for w in ck.warps],
        })
        arrays[f"ck{j}_g"] = ck.device.global_data
        arrays[f"ck{j}_c"] = ck.device.constant_data
        arrays[f"ck{j}_sh"] = ck.shared
        for k, w in enumerate(ck.warps):
            arrays[f"ck{j}_w{k}_alive"] = w.alive
            arrays[f"ck{j}_w{k}_regs"] = w.regs
            arrays[f"ck{j}_w{k}_preds"] = w.preds
            arrays[f"ck{j}_w{k}_reconv"] = w.stack_reconv
            arrays[f"ck{j}_w{k}_next"] = w.stack_next
            arrays[f"ck{j}_w{k}_masks"] = w.stack_masks
    return arrays, meta


def _trace_from_arrays(arrays: dict, meta: dict) -> GoldenTrace:
    from repro.gpusim.snapshot import Checkpoint, WarpSnapshot

    launches = tuple(LaunchRecord(
        program=r["program"], grid=tuple(r["grid"]), block=tuple(r["block"]),
        num_ctas=int(r["num_ctas"]), warps_per_cta=int(r["warps_per_cta"]),
        instructions_executed=int(r["instructions_executed"]),
        start_index=int(r["start_index"])) for r in meta["launches"])
    post_launch = tuple(
        _snap_from(m, arrays[f"pl{i}_g"], arrays[f"pl{i}_c"])
        for i, m in enumerate(meta["post_launch"]))
    checkpoints = []
    for j, cm in enumerate(meta["checkpoints"]):
        warps = tuple(WarpSnapshot(
            cta=int(wm["cta"]), warp_in_cta=int(wm["warp_in_cta"]),
            sm_id=int(wm["sm_id"]), subpartition=int(wm["subpartition"]),
            warp_slot=int(wm["warp_slot"]),
            alive=np.asarray(arrays[f"ck{j}_w{k}_alive"], dtype=bool),
            regs=np.asarray(arrays[f"ck{j}_w{k}_regs"], dtype=np.uint32),
            preds=np.asarray(arrays[f"ck{j}_w{k}_preds"], dtype=bool),
            at_barrier=bool(wm["at_barrier"]),
            instructions_executed=int(wm["instructions_executed"]),
            stack_reconv=np.asarray(arrays[f"ck{j}_w{k}_reconv"],
                                    dtype=np.int64),
            stack_next=np.asarray(arrays[f"ck{j}_w{k}_next"],
                                  dtype=np.int64),
            stack_masks=np.asarray(arrays[f"ck{j}_w{k}_masks"], dtype=bool),
        ) for k, wm in enumerate(cm["warps"]))
        checkpoints.append(Checkpoint(
            index=int(cm["index"]), launch=int(cm["launch"]),
            cta=int(cm["cta"]), executed=int(cm["executed"]),
            device=_snap_from(cm["device"], arrays[f"ck{j}_g"],
                              arrays[f"ck{j}_c"]),
            warps=warps,
            shared=np.asarray(arrays[f"ck{j}_sh"], dtype=np.uint64
                              if arrays[f"ck{j}_sh"].dtype == np.uint64
                              else np.uint32)))
    return GoldenTrace(
        key=meta["key"],
        ev_pc=np.asarray(arrays["ev_pc"], dtype=np.int32),
        ev_coord=np.asarray(arrays["ev_coord"], dtype=np.int32),
        ev_mask=np.asarray(arrays["ev_mask"], dtype=np.uint32),
        coords=tuple(tuple(int(x) for x in row) for row in arrays["coords"]),
        launches=launches, checkpoints=tuple(checkpoints),
        post_launch=post_launch,
        total_instructions=int(meta["total_instructions"]),
        epoch=int(meta["epoch"]), digest=meta["digest"])


def _trace_digest(arrays: dict, meta: dict) -> str:
    """Integrity digest over every array + the meta (digest field
    excluded), in deterministic key order."""
    h = hashlib.sha256()
    meta_wire = {k: v for k, v in meta.items() if k != "trace_digest"}
    h.update(json.dumps(meta_wire, sort_keys=True).encode())
    for k in sorted(arrays):
        h.update(k.encode())
        h.update(np.ascontiguousarray(arrays[k]).tobytes())
    return h.hexdigest()


def _trace_encode(entry: GoldenTrace) -> dict:
    arrays, meta = _trace_to_arrays(entry)
    meta["trace_digest"] = _trace_digest(arrays, meta)
    return {"meta": np.array(json.dumps(meta)), **arrays}


def _trace_decode(key: str, arrays: dict) -> GoldenTrace:
    meta = json.loads(str(arrays.pop("meta")[()]))
    expect = meta.get("trace_digest")
    if meta.get("key") != key or expect != _trace_digest(arrays, meta):
        raise ValueError("trace entry digest mismatch")
    return _trace_from_arrays(arrays, meta)


#: a fresh golden-trace cache (``<key>.trace.npz`` spill entries)
CheckpointCache = functools.partial(
    ContentCache, "checkpoint", "checkpoints", trace_key, _trace_compute,
    _trace_encode, _trace_decode, ".trace.npz", "golden.trace")

#: the process singleton; forked workers inherit warmed traces
CHECKPOINT_CACHE = CheckpointCache()

#: both reference caches; a campaign directory holds a spill of each
REFERENCE_CACHES = (GOLDEN_CACHE, CHECKPOINT_CACHE)
