"""Gate-level stuck-at campaign orchestration.

Fault batches execute as work units on the unified campaign engine
(:mod:`repro.campaign`): the netlist stimuli and golden traces are shared
with forked workers through the engine context (copy-on-write, never
pickled per unit) and batches retry on transient failure.
:func:`run_gate_campaign` runs one unit over caller-supplied stimuli in
memory; a stored, resumable campaign is a :class:`GateCampaignSpec`
config run by :func:`repro.campaign.run_campaign`.

Every batch runs through one replay loop (:func:`_replay_batch`): the
accelerated setting drops provably no-op ``(fault, stimulus)`` pairs and
dedups stimuli; ``accel=False`` keeps every lane and every stimulus, the
cold-replay reference.
"""

from __future__ import annotations

import functools
import weakref
from collections import Counter
from dataclasses import dataclass, field, fields

import numpy as np

from repro import obs
from repro.campaign import engine
from repro.campaign.engine import (
    EngineConfig,
    UnitResult,
    WorkUnit,
    default_processes,
    get_context,
    register_runner,
)
from repro.campaign.plans import CampaignPlan
from repro.common.rng import DEFAULT_SEED
from repro.common.exceptions import ConfigError
from repro.errormodels.classify import StimulusContext
from repro.errormodels.models import ErrorModel
from repro.gatelevel.faults import (
    StuckAtFault,
    full_fault_list,
    sample_faults,
    structural_fault_list,
)
from repro.gatelevel.sim import (
    ALL_ONES,
    FaultBatch,
    LogicSim,
    bus_values,
    lane_bits,
)
from repro.gatelevel.units import build_unit
from repro.gatelevel.units.base import Stimulus, UnitModel

@dataclass(frozen=True)
class CampaignConfig:
    """Gate-level campaign parameters.

    ``max_faults=None`` runs the exhaustive stuck-at list (paper scale);
    the default samples it so the whole three-unit campaign runs in
    minutes on one machine. Rates are ratio estimators, so sampling
    preserves them within the usual statistical margin.

    ``processes`` defaults to ``min(available cores, 8)`` (override with
    the ``REPRO_PROCESSES`` environment variable).
    """

    unit: str
    max_faults: int | None = 1024
    max_stimuli: int | None = 48
    words: int = 8              # batch cap: 64*words faults per work unit
    seed: int = DEFAULT_SEED
    processes: int = field(default_factory=default_processes)
    fail_fast: bool = True
    #: fault-list reduction applied before sampling: "none" keeps the raw
    #: stuck-at universe; "structural" collapses equivalent faults
    #: (BUF/NOT chains + controlling values) and drops untestable ones
    #: outside every output cone (see repro.gatelevel.faults)
    collapse: str = "none"
    #: dynamic fault dropping + stimuli dedup (bit-identical records; the
    #: ``--no-accel`` CLI flag keeps every lane and stimulus instead)
    accel: bool = True


@dataclass
class FaultRecord:
    """Aggregated outcome of one fault across all stimuli."""

    fault: StuckAtFault
    activated: bool = False
    propagated: bool = False
    hang: bool = False
    #: model -> number of stimuli in which this fault produced it
    models: Counter = field(default_factory=Counter)

    @property
    def category(self) -> str:
        if self.hang:
            return "hang"
        if self.propagated:
            return "sw_error"
        if self.activated:
            return "masked"
        return "uncontrollable"


def record_to_json(r: FaultRecord) -> dict:
    return {"net": r.fault.net, "sa": r.fault.stuck_at,
            "activated": r.activated, "propagated": r.propagated,
            "hang": r.hang,
            "models": {m.value: c for m, c in r.models.items()}}


def record_from_json(d: dict) -> FaultRecord:
    return FaultRecord(
        fault=StuckAtFault(d["net"], d["sa"]),
        activated=d["activated"], propagated=d["propagated"], hang=d["hang"],
        models=Counter({ErrorModel(k): v for k, v in d["models"].items()}),
    )


@dataclass
class GateCampaignResult:
    """Campaign outcome for one unit."""

    unit: str
    num_stimuli: int
    records: list[FaultRecord]

    @property
    def total_faults(self) -> int:
        return len(self.records)

    def category_counts(self) -> dict[str, int]:
        c = Counter(r.category for r in self.records)
        for k in ("uncontrollable", "masked", "hang", "sw_error"):
            c.setdefault(k, 0)
        return dict(c)

    def category_rates(self) -> dict[str, float]:
        """Table 5 row: percentage of faults per category."""
        n = max(self.total_faults, 1)
        return {k: 100.0 * v / n for k, v in self.category_counts().items()}

    def faults_per_error(self) -> dict[ErrorModel, int]:
        """Table 6: number of faults that produce each error model."""
        out: Counter = Counter()
        for r in self.records:
            if r.category != "sw_error":
                continue
            for m in r.models:
                out[m] += 1
        return dict(out)

    def fapr(self) -> dict[ErrorModel, float]:
        """Fig 9: % of the unit's faults mapped to each error model."""
        n = max(self.total_faults, 1)
        return {m: 100.0 * c / n for m, c in self.faults_per_error().items()}

    def times_produced(self) -> dict[ErrorModel, int]:
        """Table 6: dynamic (per-stimulus) error production counts."""
        out: Counter = Counter()
        for r in self.records:
            if r.category != "sw_error":
                continue
            out.update(r.models)
        return dict(out)

    def multi_model_fault_fraction(self) -> float:
        """Fraction of sw-error faults producing more than one model
        (the paper observes the same fault can manifest differently)."""
        sw = [r for r in self.records if r.category == "sw_error"]
        if not sw:
            return 0.0
        return sum(1 for r in sw if len(r.models) > 1) / len(sw)


# ---------------------------------------------------------------------
# golden reference
# ---------------------------------------------------------------------

def _output_rows(netlist) -> tuple[np.ndarray, list[tuple[str, int, int]]]:
    """Every output net in one bit-plane (netlist output order), and each
    output's ``(name, first row, end row)`` in it."""
    rows, spans, lo = [], [], 0
    for name, nets in netlist.outputs.items():
        rows.append(nets)
        spans.append((name, lo, lo + len(nets)))
        lo += len(nets)
    return np.concatenate(rows), spans


@dataclass
class GoldenRun:
    """Fault-free reference of one campaign's stimuli.

    ``per_stimulus[j]`` is stimulus *j*'s golden record: per-cycle output
    values (``cycles``), per-net toggle info (``ever1``/``ever0``) and the
    liveness outputs it asserts (``live``). ``ever1``/``ever0`` are their
    union over the campaign. ``planes[c]`` is cycle *c*'s output bit-plane
    as simulated, (output bits, words) with lane *j* carrying stimulus *j*
    (rows in :func:`_output_rows` order).
    """

    per_stimulus: list[dict]
    ever1: np.ndarray
    ever0: np.ndarray
    planes: np.ndarray

    def golden_bits(self, j) -> np.ndarray:
        """(cycles, output bits): all-ones where stimulus *j*'s golden
        output bit is 1, else 0 — the words a faulty plane is compared
        with.  An index array *j* adds a last axis, one column per index."""
        j = np.asarray(j)
        bit = (self.planes[:, :, j // 64] >> (j % 64).astype(np.uint64)) \
            & np.uint64(1)
        return bit * ALL_ONES


def _golden_run(unit: UnitModel, stimuli: list[Stimulus]) -> GoldenRun:
    """Golden outputs + per-net toggle info per stimulus."""
    with obs.span("gate.golden", stimuli=len(stimuli)):
        return _golden_run_inner(unit, stimuli)


def _golden_run_inner(unit: UnitModel, stimuli: list[Stimulus]) -> GoldenRun:
    """One pattern-parallel pass: lane *j* carries stimulus *j*.

    Exact: without a fault every gate and DFF is a bitwise op on each
    lane separately, so lanes never interact and lane *j* computes what a
    one-stimulus simulation of stimulus *j* computes. Padding lanes past
    the last stimulus are never read.
    """
    nl = unit.netlist
    n = len(stimuli)
    txs = [unit.transaction(stim) for stim in stimuli]
    lengths = sorted({len(tx) for tx in txs})
    if len(lengths) > 1:
        raise ConfigError(f"{unit.name}: transactions of {lengths} cycles; "
                          "one golden pass needs one length")
    n_cycles = lengths[0] if lengths else 0
    sim = LogicSim(nl, num_words=max(1, (n + 63) // 64))
    out_nets, spans = _output_rows(nl)
    any1 = np.zeros_like(sim.vals)
    any0 = np.zeros_like(sim.vals)
    planes = np.zeros((n_cycles, len(out_nets), sim.num_words),
                      dtype=np.uint64)
    for c in range(n_cycles):
        sim.cycle({name: sim.pack_patterns([tx[c][name] for tx in txs],
                                           len(nets))
                   for name, nets in nl.inputs.items() if name in txs[0][c]},
                  sample=False)
        any1 |= sim.vals
        any0 |= ~sim.vals
        planes[c] = sim.vals[out_nets]
    values = [{name: bus_values(lane_bits(planes[c, lo:hi], n)).tolist()
               for name, lo, hi in spans} for c in range(n_cycles)]
    union1 = np.zeros(nl.num_nets, dtype=bool)
    union0 = np.zeros(nl.num_nets, dtype=bool)
    per_stimulus = []
    for j in range(n):
        word, bit = j // 64, np.uint64(j % 64)
        ever1 = ((any1[:, word] >> bit) & np.uint64(1)).astype(bool)
        ever0 = ((any0[:, word] >> bit) & np.uint64(1)).astype(bool)
        union1 |= ever1
        union0 |= ever0
        cycles = [{name: v[j] for name, v in vals.items()} for vals in values]
        per_stimulus.append({
            "cycles": cycles,
            "ever1": ever1,
            "ever0": ever0,
            "live": {name: any(cyc[name] for cyc in cycles)
                     for name in unit.liveness_outputs},
        })
    return GoldenRun(per_stimulus, union1, union0, planes)


# ---------------------------------------------------------------------
# faulty batches
# ---------------------------------------------------------------------

#: bit *i* of a lane's model mask stands for ``_MODELS[i]``
_MODELS = tuple(ErrorModel)
_MODEL_BIT = {m: 1 << i for i, m in enumerate(_MODELS)}
_MODEL_SHIFTS = np.arange(len(_MODELS))

#: byte budget of one replay pass's state: the simulator's net values and
#: DFF state plus the per-word classification temporaries (_pass_words)
PASS_BYTES = 1152 << 10

_BIT_SHIFTS = np.arange(64, dtype=np.uint64)
#: ``_LANE_BIT[i]``: lane *i*'s bit in its 64-lane word
_LANE_BIT = np.uint64(1) << _BIT_SHIFTS


def _pass_words(netlist) -> int:
    """Widest replay pass, in 64-lane words, whose state fits
    :data:`PASS_BYTES`.

    Per word a pass holds 8 bytes per net and per DFF (``LogicSim.vals``
    and ``state``), four output planes (the cycle's sampled outputs, the
    replay's copy, the per-lane golden plane and the diff), one byte per
    lane and bit of the widest output (its unpacked diff) and one model
    mask per lane.
    """
    widths = [len(nets) for nets in netlist.outputs.values()]
    per_word = (8 * (netlist.num_nets + netlist.num_dffs)
                + 4 * 8 * sum(widths) + 64 * max(widths) + 64 * 8)
    return max(1, PASS_BYTES // per_word)


def _segments(lane_group: np.ndarray):
    """Cut a pass's lanes (whole words, grouped by stimulus) into runs of
    one stimulus within one word: each run's stimulus, its lane mask, and
    the index of every word's first run."""
    start = np.ones(lane_group.size, dtype=bool)
    start[1:] = lane_group[1:] != lane_group[:-1]
    start[::64] = True
    first = np.flatnonzero(start)
    masks = np.bitwise_or.reduceat(
        np.tile(_LANE_BIT, lane_group.size // 64), first)
    return lane_group[first], masks, np.flatnonzero(first % 64 == 0)


def _spread(words: np.ndarray, cols: np.ndarray, masks: np.ndarray,
            word_first: np.ndarray) -> np.ndarray:
    """(rows, stimuli) all-ones/zero words -> the (rows, words) plane whose
    lane *j* holds the value of lane *j*'s stimulus; run *i* of
    :func:`_segments` reads column ``cols[i]``."""
    return np.bitwise_or.reduceat(words[:, cols] & masks, word_first, axis=1)


def _run_batch(unit: UnitModel, batch_faults: list[StuckAtFault],
               stimuli: list[Stimulus], golden: GoldenRun,
               accel: bool = True,
               stats: dict | None = None) -> list[FaultRecord]:
    n = len(batch_faults)
    nets = np.fromiter((f.net for f in batch_faults), dtype=np.int64, count=n)
    sa = np.fromiter((f.stuck_at for f in batch_faults), dtype=np.int64,
                     count=n)
    # activation from golden toggle info, vectorized over the batch: a
    # stuck-at-v fault activates iff its net ever carries ~v in some
    # golden stimulus
    activated = np.where(sa == 0, golden.ever1[nets], golden.ever0[nets])

    with obs.span("gate.replay", faults=n, stimuli=len(stimuli)):
        propagated, hang, counts = _replay_batch(
            unit, batch_faults, nets, sa, stimuli, golden, accel, stats)
    return [FaultRecord(
        f, activated=bool(activated[i]), propagated=bool(propagated[i]),
        hang=bool(hang[i]),
        models=Counter({_MODELS[b]: int(counts[i, b])
                        for b in np.flatnonzero(counts[i])}))
        for i, f in enumerate(batch_faults)]


def _replay_batch(unit, batch_faults, nets, sa, stimuli, golden,
                  accel=True, stats=None):
    """Faulty replay + classification of one batch (the inject/classify
    phase of a gate unit; activation came from the golden toggle info).
    Returns per fault whether it propagated, whether it hung, and how many
    stimuli produced each model (a ``(faults, len(_MODELS))`` count matrix).

    The replay simulates ``(fault, stimulus)`` pairs.  With *accel*,
    dynamic fault dropping + stimuli dedup pick them: per distinct
    stimulus, only the faults whose golden toggle info says they can
    activate make a pair.  A dropped pair is exactly a no-op: the forced
    value equals the net's golden value on every cycle, so that lane would
    replay the golden trajectory — no output diff, no hang, no model.
    Duplicate stimuli (frozen dataclass equality) make pairs once and
    their model counts are applied with multiplicity.  Tallies go to
    *stats*.  Without *accel* (the ``--no-accel`` reference) every fault
    pairs with every stimulus with multiplicity 1 and *stats* is left
    untouched: the dense cold replay is the degenerate setting of the same
    loop.  Both settings yield bit-identical records
    (tests/test_accel_equivalence.py; ``make oracle-check``).

    Pair-packed passes: the pairs of all stimuli, stimulus by stimulus,
    fill the lanes of one ``LogicSim`` as densely as they come, as many
    words per pass as :func:`_pass_words` allows.  Lane *j* gets its fault
    through :class:`FaultBatch` and its stimulus's inputs and golden
    outputs spread from per-stimulus all-ones/zero words over its runs of
    lanes (:func:`_segments`); lanes past the last pair repeat the last
    stimulus fault-free and are never read.  Lanes never interact (gates
    are bitwise, DFFs copy bits, fault forcing is masked per lane), so
    each lane computes its one-lane simulation.

    Per lane, the loop runs only NumPy: each cycle's outputs are XORed
    with the per-lane golden plane in one op, and only cycles, outputs and
    words where some lane differs are unpacked.  Each stimulus is decoded
    once (:class:`StimulusContext`) and each distinct ``(stimulus,
    semantic, golden, flip)`` is classified once; its model mask is ORed
    into every lane that observed it.
    """
    n = len(batch_faults)
    nl = unit.netlist
    out_nets, spans = _output_rows(nl)
    starts = np.array([lo for _, lo, _ in spans], dtype=np.intp)
    sems = [unit.output_semantics[name] for name, _, _ in spans]
    live_rows = np.concatenate(
        [np.arange(lo, hi) for name, lo, hi in spans
         if name in unit.liveness_outputs] or [np.zeros(0, dtype=np.intp)])
    propagated = np.zeros(n, dtype=bool)
    hang = np.zeros(n, dtype=bool)
    counts = np.zeros((n, len(_MODELS)), dtype=np.int64)
    if accel:
        if stats is None:
            stats = {}
        stats.setdefault("enabled", True)
        for key in ("pairs_dropped", "stimuli_deduped", "lanes_refilled",
                    "replays"):
            stats.setdefault(key, 0)

    # stimuli dedup with multiplicity counts
    reps: list[tuple[int, int]] = []           # (stimulus index, multiplicity)
    seen: dict[Stimulus, int] = {}
    for si, stim in enumerate(stimuli):
        at = seen.get(stim) if accel else None
        if at is None:
            seen[stim] = len(reps)
            reps.append((si, 1))
        else:
            reps[at] = (reps[at][0], reps[at][1] + 1)
            stats["stimuli_deduped"] += 1

    # the pairs, stimulus by stimulus: pairs bounds[g]:bounds[g + 1] pair
    # the faults pair_fault[...] with stimulus group_si[g]
    group_si, group_mult, actives = [], [], []
    for si, mult in reps:
        gi = golden.per_stimulus[si]
        if accel:
            active = np.flatnonzero(
                np.where(sa == 0, gi["ever1"][nets], gi["ever0"][nets]))
            stats["pairs_dropped"] += (n - int(active.size)) * mult
            if active.size:
                # dense repack: faults after a dropped one move down
                stats["lanes_refilled"] += int(np.count_nonzero(
                    active != np.arange(active.size)))
                stats["replays"] += 1
        else:
            active = np.arange(n)
        if active.size:
            group_si.append(si)
            group_mult.append(mult)
            actives.append(active.astype(np.int32))
    if not actives:
        return propagated, hang, counts
    bounds = np.cumsum([0] + [a.size for a in actives])
    pair_fault = np.concatenate(actives)
    del actives
    n_pairs = int(bounds[-1])

    # passes of equal width, each at most _pass_words wide
    total = (n_pairs + 63) // 64
    n_passes = -(-total // _pass_words(nl))
    w = -(-total // n_passes)
    sim = LogicSim(nl, num_words=w)
    ctxs = [StimulusContext.of(stimuli[si]) for si in group_si]
    for start in range(0, n_pairs, 64 * w):
        end = min(start + 64 * w, n_pairs)
        # the groups this pass holds and their lanes lo:hi; the last
        # group's run continues over the padding lanes past *end*
        g0 = int(np.count_nonzero(bounds <= start)) - 1
        g1 = int(np.count_nonzero(bounds < end))
        in_pass = range(g0, g1)
        lo = np.maximum(bounds[g0:g1], start) - start
        hi = np.minimum(bounds[g0 + 1:g1 + 1], end) - start
        lane_group = np.repeat(np.arange(g0, g1), np.diff(lo, append=64 * w))
        seg_group, seg_mask, word_first = _segments(lane_group)
        runs = (seg_group - g0, seg_mask, word_first)
        txs = [unit.transaction(stimuli[group_si[g]]) for g in in_pass]

        sim.reset()
        sim.set_faults(FaultBatch(
            [batch_faults[i] for i in pair_fault[start:end].tolist()],
            num_words=w))
        gold = golden.golden_bits(group_si[g0:g1])
        diff_words = np.zeros(w, dtype=np.uint64)
        live_words = np.zeros(w, dtype=np.uint64)
        lane_models = np.zeros(64 * w, dtype=np.int64)
        memo: dict[tuple[int, str, int, int], int] = {}
        for cyc in range(len(txs[0])):
            inputs = {}
            for name, in_nets in nl.inputs.items():
                vals = np.array([tx[cyc][name] for tx in txs],
                                dtype=np.uint64)
                bits = (vals >> _BIT_SHIFTS[:len(in_nets), None]) \
                    & np.uint64(1)
                inputs[name] = _spread(bits * ALL_ONES, *runs)
            sim.cycle(inputs, sample=False)
            out = sim.vals[out_nets]
            live_words |= np.bitwise_or.reduce(out[live_rows], axis=0)
            diff = out ^ _spread(gold[cyc], *runs)
            dwords = np.bitwise_or.reduce(diff, axis=0)
            if not dwords.any():
                continue
            diff_words |= dwords
            row_hit = np.logical_or.reduceat(diff.any(axis=1), starts)
            for k in np.flatnonzero(row_hit):
                name, lo_row, hi_row = spans[k]
                sub = diff[lo_row:hi_row]
                words = np.flatnonzero(np.bitwise_or.reduce(sub, axis=0))
                bits = lane_bits(sub[:, words], 64 * words.size)
                cols = np.flatnonzero(bits.any(axis=0))
                lanes = words[cols // 64] * 64 + cols % 64
                keys = list(zip(lane_group[lanes].tolist(),
                                bus_values(bits[:, cols]).tolist()))
                mask_of: dict[tuple[int, int], int] = {}
                for g, d in set(keys):
                    si = group_si[g]
                    gval = golden.per_stimulus[si]["cycles"][cyc][name]
                    key = (g, sems[k], gval, d)
                    mask = memo.get(key)
                    if mask is None:
                        mask = memo[key] = sum(
                            _MODEL_BIT[mm] for mm in
                            ctxs[g].classify(sems[k], gval, gval ^ d))
                    mask_of[g, d] = mask
                lane_models[lanes] |= np.array([mask_of[key] for key in keys],
                                               dtype=np.int64)
        # fold the pass's lanes into the batch, group by group (a group's
        # faults are distinct, so plain fancy-index updates are exact)
        diff_bits = lane_bits(diff_words[None, :], 64 * w)[0]
        live_bits = lane_bits(live_words[None, :], 64 * w)[0]
        for g, la, lb in zip(in_pass, lo.tolist(), hi.tolist()):
            act = pair_fault[start + la:start + lb]
            propagated[act[diff_bits[la:lb] != 0]] = True
            # hang: golden asserted liveness but this lane never did;
            # dropped pairs replay the golden trajectory, so they assert
            # iff golden did
            if any(golden.per_stimulus[group_si[g]]["live"].values()):
                hang[act[live_bits[la:lb] == 0]] = True
            counts[act] += (((lane_models[la:lb, None] >> _MODEL_SHIFTS) & 1)
                            * group_mult[g])
    return propagated, hang, counts


# ---------------------------------------------------------------------
# campaign-engine integration (kind: "gate")
# ---------------------------------------------------------------------

@functools.lru_cache(maxsize=8)
def _cached_unit(name: str) -> UnitModel:
    """One netlist build per worker process."""
    return build_unit(name)


@register_runner("gate")
def _run_gate_unit(payload: dict) -> dict:
    """Engine runner: one fault batch against all stimuli.

    The heavy shared inputs (stimuli, golden traces) come from the engine
    context installed before the pool forked, not from the payload.
    """
    ctx = get_context()
    unit = _cached_unit(ctx["unit"])
    faults = [StuckAtFault(net, sa) for net, sa in payload["faults"]]
    accel = bool(ctx.get("accel", True))
    stats: dict = {"enabled": True} if accel else {"enabled": False}
    with obs.span("gate.unit", unit=ctx["unit"], batch=payload["batch"],
                  faults=len(faults)):
        records = _run_batch(unit, faults, ctx["stimuli"], ctx["golden"],
                             accel=accel, stats=stats)
    return {
        "items": len(records),
        "batch": payload["batch"],
        "stimuli": len(ctx["stimuli"]),
        "records": [record_to_json(r) for r in records],
        "accel": stats,
    }


def _build_gate_plan(config: CampaignConfig, stimuli: list[Stimulus]
                     ) -> tuple[tuple[WorkUnit, ...], dict]:
    """Fault batches + shared context for one unit's campaign."""
    unit = build_unit(config.unit)
    faults = full_fault_list(unit.netlist)
    if config.collapse == "structural":
        faults = structural_fault_list(unit.netlist, faults)
    faults = sample_faults(faults, config.max_faults, seed=config.seed)
    if config.max_stimuli and len(stimuli) > config.max_stimuli:
        idx = np.linspace(0, len(stimuli) - 1, config.max_stimuli).astype(int)
        stimuli = [stimuli[i] for i in idx]
    golden = _golden_run(unit, stimuli)

    cap = 64 * config.words
    units = tuple(
        WorkUnit(unit_id=f"gate/{config.unit}/{b:05d}", kind="gate",
                 payload={"batch": b,
                          "faults": [(f.net, f.stuck_at)
                                     for f in faults[start:start + cap]]})
        for b, start in enumerate(range(0, len(faults), cap)))
    context = {"unit": config.unit, "stimuli": stimuli, "golden": golden,
               "accel": config.accel}
    return units, context


def _aggregate_gate(unit_name: str,
                    results: dict[str, UnitResult]) -> GateCampaignResult:
    """Records in unit-id order; ``num_stimuli`` is the count every unit
    replayed against (0 when no unit completed)."""
    records: list[FaultRecord] = []
    num_stimuli = 0
    for uid in sorted(r for r, res in results.items() if res.ok):
        value = results[uid].value or {}
        num_stimuli = max(num_stimuli, value.get("stimuli", 0))
        records.extend(record_from_json(d) for d in value.get("records", ()))
    return GateCampaignResult(unit=unit_name, num_stimuli=num_stimuli,
                              records=records)


# ---------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------

#: per cached workload instance: stimulus cap -> the workload's profile.
#: A process profiles each workload once; a fresh workload cache (as in
#: a fresh process) profiles again
_PROFILES = weakref.WeakKeyDictionary()


def profile_stimuli(scale: str, per_workload: int):
    """The profiling workloads at *scale* (the first six of
    :data:`~repro.profiling.profiler.PROFILING_NAMES` at ``"tiny"``), each
    profiled to at most *per_workload* stimuli: the stimuli every gate
    campaign replays, as a :class:`~repro.profiling.ProfileResult`. Each
    workload is profiled once per
    :func:`~repro.campaign.goldens.cached_workload` instance."""
    from repro.campaign.goldens import cached_workload
    from repro.profiling import ProfileResult, profile_workloads
    from repro.profiling.profiler import PROFILING_NAMES

    names = PROFILING_NAMES[:6] if scale == "tiny" else PROFILING_NAMES
    parts = []
    for name in names:
        w = cached_workload(name, scale, DEFAULT_SEED)
        memo = _PROFILES.setdefault(w, {})
        if per_workload not in memo:
            memo[per_workload] = profile_workloads(
                [w], max_stimuli_per_workload=per_workload)
        parts.append(memo[per_workload])
    return ProfileResult.merged(parts)


def run_gate_campaign(config: CampaignConfig,
                      stimuli: list[Stimulus]) -> GateCampaignResult:
    """Run the gate-level campaign for one unit over *stimuli*, in memory.

    A campaign that must survive interruption is a :class:`GateCampaignSpec`
    config run by :func:`repro.campaign.run_campaign` with a store (or
    ``python -m repro.campaign run --kind gate``): its manifest rebuilds
    the profiled stimuli, so ``resume`` needs nothing else.
    """
    units, context = _build_gate_plan(config, stimuli)
    results = engine.execute(units, EngineConfig(
        processes=config.processes, fail_fast=config.fail_fast),
        context=context)
    return _aggregate_gate(config.unit, results)


#: the :class:`CampaignConfig` fields a gate manifest config carries
_CONFIG_FIELDS = frozenset(f.name for f in fields(CampaignConfig)) - {
    "processes", "fail_fast"}


class GateCampaignSpec:
    """Campaign-kind adapter for ``python -m repro.campaign`` (kind: gate).

    ``build`` re-profiles the workload stimuli deterministically from the
    config, so a manifest alone is enough to resume.
    """

    kind = "gate"

    def default_config(self, **overrides) -> dict:
        """:class:`CampaignConfig`'s defaults as a manifest config, with
        the profiling knobs ``build`` draws the stimuli from
        (``processes`` and ``fail_fast`` are execution knobs, not part of
        the config; ``processes`` is pinned only so it is not read).
        An override of ``None`` keeps the default; ``max_faults=0`` asks
        for the exhaustive fault list (``None`` in the config)."""
        d = CampaignConfig(unit="decoder", processes=1)
        cfg = {"unit": d.unit, "max_faults": d.max_faults,
               "max_stimuli": d.max_stimuli, "words": d.words,
               "seed": d.seed, "scale": "tiny", "stimuli_per_workload": 16,
               "collapse": d.collapse, "accel": d.accel}
        cfg.update({k: v for k, v in overrides.items() if v is not None})
        if cfg["max_faults"] == 0:
            cfg["max_faults"] = None
        return cfg

    def build(self, config: dict) -> CampaignPlan:
        prof = profile_stimuli(config["scale"],
                               config["stimuli_per_workload"])
        # a manifest written before collapse/accel existed takes the
        # dataclass defaults
        cc = CampaignConfig(processes=1, **{
            k: v for k, v in config.items() if k in _CONFIG_FIELDS})
        units, context = _build_gate_plan(cc, prof.stimuli)
        return CampaignPlan(kind="gate", config=dict(config), units=units,
                            context=context)

    @staticmethod
    def spill_to(config: dict, directory) -> None:
        """Gate campaigns keep no reference runs on disk: ``build``
        recomputes the golden simulation from the config."""

    def aggregate(self, config: dict,
                  results: dict[str, UnitResult]) -> GateCampaignResult:
        return _aggregate_gate(config["unit"], results)

    def summarize(self, result: GateCampaignResult) -> dict:
        faults, times = result.faults_per_error(), result.times_produced()
        return {
            "unit": result.unit,
            "faults": result.total_faults,
            "category_rates_%": {k: round(v, 2)
                                 for k, v in result.category_rates().items()},
            "multi_model_fault_fraction": round(
                result.multi_model_fault_fraction(), 3),
            "fapr_per_model": {
                m.value: {"fapr_%": round(v, 2), "faults": faults[m],
                          "times_produced": times[m]}
                for m, v in sorted(result.fapr().items(),
                                   key=lambda kv: -kv[1])},
        }


CAMPAIGN_SPEC = GateCampaignSpec()
