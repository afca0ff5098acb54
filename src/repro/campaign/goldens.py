"""Content-addressed golden-run cache.

The dominant redundant cost of a software-level campaign is re-running the
fault-free reference: classifying one injection needs the golden output
bits of its ``(workload, scale, seed)``, and a 1,000-injection campaign
used to recompute them 1,000 times. This cache computes each golden run
once per process. Campaigns :meth:`~ContentCache.warm` it in the parent
before the worker pool forks, so every worker inherits the entries
copy-on-write and every work unit is a cache hit.

There is one reference run, :func:`reference_run`. An accelerated
campaign warms the golden-trace cache first: its one instrumented
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

import dataclasses
import functools
import hashlib
import json
import os
import weakref
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro import obs
from repro.gpusim.config import DeviceConfig
from repro.gpusim.device import Device, cta_shared_words
from repro.gpusim.executor import (
    LOAD_OPS,
    STORE_OPS,
    WARP_SIZE,
    TableCache,
    Tracer,
)
from repro.gpusim.snapshot import slot_counters
from repro.isa.instruction import RZ
from repro.isa.opcodes import MemSpace
from repro.obs import log
from repro.workloads import default_launcher, get_workload

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
# golden execution traces (campaign acceleration layer)
# =====================================================================
#
# The accelerated EPR path (docs/PERFORMANCE.md) needs more than the
# golden output bits: it needs the golden *trajectory* — one record per
# dynamic instruction (pc, warp coordinates, execution mask) so a
# descriptor's activation sites can be computed without simulating, plus
# what each CTA read and wrote, so a CTA that provably repeats golden is
# never re-executed. Traces are content-addressed by the same identity
# tuple as golden runs and digest-bound to the golden bits they were
# captured against: the traced pass that builds a trace also builds its
# golden run.

def trace_key(app: str, scale: str, seed: int,
              mem_words: int = DEFAULT_MEM_WORDS) -> str:
    """Content address of one golden trace's identity tuple."""
    ident = f"trace|{app}|{scale}|{int(seed)}|{int(mem_words)}"
    return hashlib.sha256(ident.encode()).hexdigest()


@dataclass(frozen=True)
class LaunchRecord:
    """Shape, cost and starting slots of one golden kernel launch."""

    program: str
    grid: tuple[int, int, int]
    block: tuple[int, int, int]
    num_ctas: int
    warps_per_cta: int
    instructions_executed: int
    #: global dynamic-instruction index of this launch's first instruction
    start_index: int
    #: shared-memory words each CTA ran with
    shared_words: int
    #: the device's warp-slot counters at launch start
    #: (:func:`repro.gpusim.snapshot.slot_counters`)
    slot_counters: tuple[tuple[int, int, int], ...]


@dataclass(frozen=True)
class CtaRecords:
    """What each golden CTA read and wrote, as flat CSR arrays.

    Row ``r`` is one CTA of one launch (:meth:`GoldenTrace.cta_row`). It
    ran ``count[r]`` dynamic instructions from global index ``start[r]``.
    Its rows of the three word lists are ``ptr[r]:ptr[r + 1]``, each
    sorted by word: ``gld_*`` and ``ldc_*`` are its live-ins, the global
    and constant words whose first access by the CTA is a load, with the
    value loaded; ``gst_*`` are the global words it stored, with their
    values at CTA end.
    """

    start: np.ndarray              # int64 (C,)
    count: np.ndarray              # int64 (C,)
    gld_ptr: np.ndarray            # int64 (C + 1,)
    gld_word: np.ndarray           # int64
    gld_val: np.ndarray            # uint32
    ldc_ptr: np.ndarray
    ldc_word: np.ndarray
    ldc_val: np.ndarray
    gst_ptr: np.ndarray
    gst_word: np.ndarray
    gst_val: np.ndarray


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
    ctas: CtaRecords
    total_instructions: int
    #: SHA-256 of the golden output bits this trace reproduces
    digest: str

    @functools.cached_property
    def _cta_rows(self) -> list[int]:
        rows = [0]
        for rec in self.launches:
            rows.append(rows[-1] + rec.num_ctas)
        return rows

    def cta_row(self, launch: int, cta: int) -> int:
        """Row of CTA *cta* of launch *launch* in :attr:`ctas`."""
        return self._cta_rows[launch] + cta


#: the exec mask of a step all 32 lanes execute
_ALL_LANES = np.ones(WARP_SIZE, dtype=bool)

#: the accesses a :class:`_MemoryLog` records
_GLD, _LDC, _GST = 0, 1, 2

#: the logged exec mask of a step all 32 lanes execute
_ALL_LANE_BYTES = _ALL_LANES.tobytes()


class _MemoryLog:
    """Step-table tool of the traced reference run: what each CTA read
    from global and constant memory and wrote to global memory.

    Its table wraps the global and constant loads and the global stores
    (:func:`_logged_kind`). Each one executed appends its pc's tag (kind
    and immediate offset) to :attr:`tags`, and 32 lanes each of its base
    register, exec mask and values (loaded, or stored) to three byte
    buffers: no object is kept per step, and the NumPy work reads the
    buffers in place, once, at the end of the run (:meth:`records`). The
    round hook marks where each CTA starts (:meth:`cta`).
    """

    def __init__(self):
        #: per logged step: ``offset << 2 | kind``
        self.tags = array("q")
        #: per logged step, 32 lanes each: uint32 base register, bool
        #: exec mask, uint32 values
        self.bases, self.masks, self.vals = bytearray(), bytearray(), \
            bytearray()
        #: the four appends of a logged step
        self._append = (self.tags.append, self.bases.extend,
                        self.masks.extend, self.vals.extend)
        self._tables = TableCache()
        #: global dynamic index of every CTA's first instruction
        self._starts: list[int] = []
        #: per CTA: its first logged step
        self._firsts: list[int] = []

    def table(self, warp, decoded) -> list:
        return self._tables.table(decoded, None, lambda: self._build(decoded))

    def _build(self, decoded) -> list:
        steps = list(decoded.steps)
        for pc, kind in _logged_pcs(decoded):
            step, guard, neg, instr = steps[pc]
            steps[pc] = (self._wrap(step, instr, kind), guard, neg, instr)
        return steps

    def _wrap(self, step, instr, kind: int):
        base = instr.srcs[0]
        tag = (instr.imm & 0xFFFFFFFF) << 2 | kind
        tags, bases, masks, vals = self._append
        if kind == _GST:
            data = instr.srcs[1]

            def stored(w, m, active, top, env):
                cols = w.cols
                tags(tag)
                bases(cols[base].tobytes())
                masks(_ALL_LANE_BYTES if m is None else m)
                vals(cols[data].tobytes())
                return step(w, m, active, top, env)
            return stored

        def loaded(w, m, active, top, env):
            at = w.cols[base].tobytes()
            res = step(w, m, active, top, env)
            tags(tag)
            bases(at)
            masks(_ALL_LANE_BYTES if m is None else m)
            vals(res)
            return res
        return loaded

    def cta(self, index: int) -> None:
        """The next CTA starts at global index *index*."""
        self._starts.append(index)
        self._firsts.append(len(self.tags))

    def _rows(self, n: int) -> list[tuple]:
        """Per word list, the rows of the *n* CTAs: per-CTA lengths, words
        and values.

        Each logged lane is one access, in execution order (steps in
        order, lanes ascending, as a store resolves them). Grouped by
        (CTA, memory space, word), a group's first access is a live-in
        when it is a load, and its last store is the word's value at CTA
        end."""
        tag = np.frombuffer(self.tags, dtype=np.int64)
        if not tag.size:
            none = np.zeros(0, dtype=np.int64)
            return [(np.zeros(n, dtype=np.int64), none, none)] * 3
        # per step: its kind and CTA row; per logged lane: its step, word
        # and value
        kind = tag & 3
        row = np.repeat(np.arange(n), np.diff(self._firsts, append=tag.size))
        at = np.flatnonzero(np.frombuffer(self.masks, dtype=bool))
        ev = at >> 5
        addr = (np.frombuffer(self.bases, dtype=np.uint32)[at]
                + (tag >> 2).astype(np.uint32)[ev])
        word = (addr >> 2).astype(np.int64)
        val = np.frombuffer(self.vals, dtype=np.uint32)[at]
        # a stable sort groups the accesses by (CTA, space, word), each
        # group in execution order: its first access heads it, and its
        # last store ends it in a sort of the stores alone. The keys come
        # nearly sorted (by CTA, and by word within a warp), which the
        # stable sort (timsort) is fastest on.
        key = ((row * 2 + (kind == _LDC)) << 32)[ev] | word
        order = np.argsort(key, kind="stable")
        first = order[_run_ends(key[order])]
        stores = np.flatnonzero(kind[ev] == _GST)
        order = np.argsort(key[stores], kind="stable")
        last = stores[order[_run_ends(key[stores][order], last=True)]]
        loads = kind[ev[first]]
        picks = (first[loads == _GLD], first[loads == _LDC], last)
        return [(np.bincount(row[ev[idx]], minlength=n), word[idx], val[idx])
                for idx in picks]

    def records(self, end: int) -> CtaRecords:
        """The rows of every CTA; *end* is the global index past the last
        one's last instruction (CTAs run back to back, so each one ends
        where the next one starts)."""
        starts = np.array(self._starts, dtype=np.int64)
        cols = {"start": starts, "count": np.diff(starts, append=end)}
        for k, (lengths, words, vals) in zip(
                ("gld", "ldc", "gst"), self._rows(len(starts))):
            cols[f"{k}_ptr"] = np.concatenate(
                ([0], np.cumsum(lengths, dtype=np.int64)))
            cols[f"{k}_word"] = words.astype(np.int64, copy=False)
            cols[f"{k}_val"] = vals.astype(np.uint32, copy=False)
        return CtaRecords(**cols)


#: decode table -> its ``(pc, kind)`` pairs a :class:`_MemoryLog` wraps
_LOGGED_PCS = weakref.WeakKeyDictionary()


def _logged_pcs(decoded) -> list[tuple[int, int]]:
    """The pcs of *decoded* a :class:`_MemoryLog` wraps, with their kind:
    the global and constant accesses whose registers are in range (one
    out of range raises when it runs, so it logs nothing)."""
    pcs = _LOGGED_PCS.get(decoded)
    if pcs is None:
        pcs = _LOGGED_PCS[decoded] = [
            (pc, kind) for pc, (_, _, _, instr) in enumerate(decoded.steps)
            if (kind := _logged_kind(instr)) is not None
            and all(r == RZ or 0 <= r < decoded.nregs for r in instr.srcs)]
    return pcs


def _logged_kind(instr) -> int | None:
    """What a :class:`_MemoryLog` logs *instr* as, or ``None``. As in the
    executor, the op says load or store and ``aux`` the space: an ``LDS``
    with ``aux`` GLOBAL reads global memory. (A store to constant memory
    raises, so a golden CTA runs none.)"""
    if instr.aux == MemSpace.GLOBAL:
        if instr.op in LOAD_OPS:
            return _GLD
        if instr.op in STORE_OPS:
            return _GST
    elif instr.aux == MemSpace.CONSTANT and instr.op in LOAD_OPS:
        return _LDC
    return None


def _run_ends(k: np.ndarray, last: bool = False) -> np.ndarray:
    """Flags of the first (or *last*) entry of each run of equal values
    of the sorted array *k*."""
    edge, inner = k[:1] == k[:1], k[1:] != k[:-1]
    return np.concatenate((inner, edge) if last else (edge, inner))


def reference_run(w, mem_words: int, key: str = "",
                  traced_key: str | None = None):
    """The fault-free reference run of workload *w* on a fresh
    *mem_words* device: ``(GoldenRun, GoldenTrace | None)``.

    With *traced_key* (the trace's key) the one pass is instrumented: it
    records every dynamic instruction, each launch's shape and starting
    warp slots, and what each CTA read and wrote (:class:`CtaRecords`).
    Without it (``--no-accel`` campaigns) the pass runs plain and the
    trace is ``None``.
    """
    traced = traced_key is not None
    dev = Device(DeviceConfig(global_mem_words=mem_words))

    ev_pc: list[int] = []
    ev_coord: list[int] = []
    masks: list[np.ndarray] = []
    coord_index: dict[tuple[int, int, int], int] = {}
    launches: list[LaunchRecord] = []
    memlog = _MemoryLog()
    state = {"base": 0, "cta": -1}

    def record(warp, pc, instr, m):
        ev_pc.append(pc)
        ev_coord.append(coord_index.setdefault(
            (warp.sm_id, warp.subpartition, warp.warp_slot),
            len(coord_index)))
        # the loop never writes an exec mask: no copy is needed
        masks.append(_ALL_LANES if m is None else m)

    def round_hook(cta, executed, warps, shared_mem):
        if cta != state["cta"]:
            state["cta"] = cta
            memlog.cta(state["base"] + executed)

    hooks = ({"instrumentation": Tracer(record, memlog),
              "round_hook": round_hook} if traced else {})
    launch = default_launcher(dev, **hooks)

    def launcher(program, grid, block, params=(), shared_words=None):
        state["cta"] = -1
        slots = slot_counters(dev)
        res = launch(program, grid, block, params, shared_words)
        if traced:
            launches.append(LaunchRecord(
                program=res.program, grid=res.grid, block=res.block,
                num_ctas=res.num_ctas, warps_per_cta=res.warps_per_cta,
                instructions_executed=res.instructions_executed,
                start_index=state["base"],
                shared_words=cta_shared_words(program, shared_words),
                slot_counters=slots))
        state["base"] += res.instructions_executed
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
        ctas=memlog.records(state["base"]),
        total_instructions=state["base"],
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

#: the golden-trace spill layout; an entry in another one is read as a
#: miss and recomputed
_TRACE_LAYOUT = 4

#: the :class:`CtaRecords` arrays, spilled end to end as the int64 array
#: ``cta`` with their lengths in the meta
_CTA_FIELDS = tuple(f.name for f in dataclasses.fields(CtaRecords))


def _trace_to_arrays(trace: GoldenTrace) -> tuple[dict, dict]:
    """Flatten a trace into (named arrays, JSON-able meta)."""
    arrays = {"ev_pc": trace.ev_pc, "ev_coord": trace.ev_coord,
              "ev_mask": trace.ev_mask,
              "coords": np.asarray(trace.coords or
                                   np.zeros((0, 3)), dtype=np.int32)}
    meta = {
        "layout": _TRACE_LAYOUT,
        "key": trace.key, "digest": trace.digest,
        "total_instructions": trace.total_instructions,
        "launches": [{
            "program": r.program, "grid": list(r.grid),
            "block": list(r.block), "num_ctas": r.num_ctas,
            "warps_per_cta": r.warps_per_cta,
            "instructions_executed": r.instructions_executed,
            "start_index": r.start_index,
            "shared_words": r.shared_words,
            "slot_counters": [list(t) for t in r.slot_counters]}
            for r in trace.launches],
    }
    parts = [getattr(trace.ctas, f) for f in _CTA_FIELDS]
    arrays["cta"] = np.concatenate(parts).astype(np.int64, copy=False)
    meta["cta"] = [len(p) for p in parts]
    return arrays, meta


def _trace_from_arrays(arrays: dict, meta: dict) -> GoldenTrace:
    launches = tuple(LaunchRecord(
        program=r["program"], grid=tuple(r["grid"]), block=tuple(r["block"]),
        num_ctas=int(r["num_ctas"]), warps_per_cta=int(r["warps_per_cta"]),
        instructions_executed=int(r["instructions_executed"]),
        start_index=int(r["start_index"]),
        shared_words=int(r["shared_words"]),
        slot_counters=tuple(tuple(int(x) for x in t)
                            for t in r["slot_counters"]))
        for r in meta["launches"])
    return GoldenTrace(
        key=meta["key"],
        ev_pc=np.asarray(arrays["ev_pc"], dtype=np.int32),
        ev_coord=np.asarray(arrays["ev_coord"], dtype=np.int32),
        ev_mask=np.asarray(arrays["ev_mask"], dtype=np.uint32),
        coords=tuple(tuple(int(x) for x in row) for row in arrays["coords"]),
        launches=launches,
        ctas=CtaRecords(**{
            f: a.astype(np.uint32 if f.endswith("_val") else np.int64)
            for f, a in zip(_CTA_FIELDS, np.split(
                arrays["cta"], np.cumsum(meta["cta"])[:-1]))}),
        total_instructions=int(meta["total_instructions"]),
        digest=meta["digest"])


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
    if meta.get("layout") != _TRACE_LAYOUT:
        raise ValueError("trace entry in another spill layout")
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
