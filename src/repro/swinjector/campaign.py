"""EPR campaigns: Masked / SDC / DUE per (application, error model).

Reproduces the paper's §5.2 evaluation: N error injections per
application per model, each with a fresh random descriptor targeting one
sub-partition of SM0, classified against a golden run. Campaign scale is
configurable; the paper used 1,000 injections per (app, model).

Execution runs on the unified campaign engine (:mod:`repro.campaign`):
the injection plan is partitioned into deterministic work units keyed by
``(app, model, index range)``, golden runs come from the shared
content-addressed cache, and — when a :class:`repro.campaign.CampaignStore`
is supplied — completed units are persisted so the campaign can be
resumed after interruption.

Every injection runs through one replay function,
:func:`replay_injection` (:func:`run_one_injection` draws the campaign's
seeded descriptor for it): handed a golden trace it takes the
checkpointed differential replay shortcuts of
:mod:`repro.swinjector.accel`; without one it is the cold replay that
``--no-accel`` selects.
"""

from __future__ import annotations

import weakref
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from repro import obs
from repro.campaign.engine import (
    EngineConfig,
    UnitResult,
    WorkUnit,
    default_processes,
    register_runner,
)
from repro.campaign.goldens import (
    CHECKPOINT_CACHE,
    DEFAULT_MEM_WORDS,
    GOLDEN_CACHE,
    GoldenTrace,
    cached_workload,
)
from repro.campaign.plans import CampaignPlan, chunked, run_campaign
from repro.common.exceptions import DeviceError
from repro.common.rng import DEFAULT_SEED
from repro.errormodels.models import ErrorModel, SW_INJECTABLE
from repro.gpusim.config import DeviceConfig
from repro.gpusim.device import Device
from repro.swinjector import accel
from repro.swinjector.instrumentation import NVBitPERfi, make_descriptor
from repro.workloads.base import default_launcher
from repro.workloads.registry import EVALUATION_APPS

OUTCOMES = ("masked", "sdc", "due")

#: injections grouped into one work unit (the scheduling quantum; results
#: are independent of it because every injection is seeded by its index)
DEFAULT_CHUNK = 5


@dataclass(frozen=True)
class SwCampaignConfig:
    """Software-level campaign parameters (scaled-down defaults).

    ``processes`` defaults to ``min(available cores, 8)`` and can be
    overridden with the ``REPRO_PROCESSES`` environment variable. With
    ``fail_fast`` (the default) a worker crash surfaces its traceback in
    the parent instead of being swallowed by the pool; campaigns running
    against a result store may prefer ``fail_fast=False`` so crashes are
    recorded and retried on resume.
    """

    apps: tuple[str, ...] = tuple(EVALUATION_APPS)
    models: tuple[ErrorModel, ...] = tuple(SW_INJECTABLE)
    injections_per_model: int = 20
    scale: str = "tiny"
    seed: int = DEFAULT_SEED
    processes: int = field(default_factory=default_processes)
    mem_words: int = DEFAULT_MEM_WORDS
    fail_fast: bool = True
    #: checkpointed differential replay (:mod:`repro.swinjector.accel`):
    #: skip the fault-free prefix of every injection, classify
    #: never-activating and inert descriptors without simulating, and
    #: skip the CTAs that provably repeat golden — bit-identical
    #: outcomes, less work (docs/PERFORMANCE.md); ``--no-accel`` replays
    #: every injection cold
    accel: bool = True


@dataclass
class InjectionOutcome:
    app: str
    model: ErrorModel
    outcome: str
    due_reason: str | None = None
    activations: int = 0


@dataclass
class EprResult:
    """Aggregated Error Propagation Rates."""

    config: SwCampaignConfig
    outcomes: list[InjectionOutcome] = field(default_factory=list)

    def counts(self, app: str, model: ErrorModel) -> dict[str, int]:
        c = Counter(o.outcome for o in self.outcomes
                    if o.app == app and o.model == model)
        return {k: c.get(k, 0) for k in OUTCOMES}

    def epr(self, app: str, model: ErrorModel) -> dict[str, float]:
        """Fig 10 cell: percentage Masked / SDC / DUE."""
        c = self.counts(app, model)
        n = max(sum(c.values()), 1)
        return {k: 100.0 * v / n for k, v in c.items()}

    def average_epr(self, model: ErrorModel) -> dict[str, float]:
        """Fig 11 bar: EPR averaged over the applications."""
        rates = [self.epr(app, model) for app in self.config.apps
                 if sum(self.counts(app, model).values())]
        if not rates:
            return {k: 0.0 for k in OUTCOMES}
        return {k: float(np.mean([r[k] for r in rates])) for k in OUTCOMES}

    def overall_epr(self) -> float:
        """Share of injections that were *not* masked (paper: avg 84.2%)."""
        n = len(self.outcomes)
        if not n:
            return 0.0
        return 100.0 * sum(o.outcome != "masked" for o in self.outcomes) / n


#: one StaticPruner per cached workload instance: building one costs a
#: CFG + liveness solve per kernel, amortized over every injection on
#: that instance (a fresh workload cache, as in a fresh process, pays it
#: again)
_ANALYZERS = weakref.WeakKeyDictionary()


def _analyzer_of(w):
    """Shared :class:`~repro.staticanalysis.StaticPruner` for workload *w*.

    Imported lazily: ``repro.swinjector`` loads this module from its
    package ``__init__``, and the pruner imports the injectors back from
    this package.
    """
    pruner = _ANALYZERS.get(w)
    if pruner is None:
        from repro.staticanalysis.prune import StaticPruner

        pruner = _ANALYZERS[w] = StaticPruner(w.programs().values())
    return pruner


def _golden_bits(app: str, scale: str, seed: int, mem_words: int):
    """Golden output bits + dynamic instruction count (via the shared
    content-addressed cache — computed once per process)."""
    g = GOLDEN_CACHE.get(app, scale, seed, mem_words)
    return g.bits, g.dynamic_instructions


def run_one_injection(app: str, model: ErrorModel, index: int,
                      config: SwCampaignConfig, golden: np.ndarray,
                      watchdog: int, trace: GoldenTrace | None = None,
                      stats: accel.AccelStats | None = None,
                      sites: np.ndarray | None = None,
                      tool: NVBitPERfi | None = None) -> InjectionOutcome:
    """One NVBitPERfi run of injection *index* of *model* on *app*: the
    campaign's seeded descriptor, replayed by :func:`replay_injection`
    (*tool*, when given, is a fresh tool for that descriptor, planned by
    the caller)."""
    desc = (make_descriptor(model, config.seed, index) if tool is None
            else tool.descriptor)
    return replay_injection(
        cached_workload(app, config.scale, config.seed), desc, golden,
        watchdog, config.mem_words, trace, stats, sites, index=index,
        tool=tool)


def replay_injection(w, desc, golden: np.ndarray, watchdog: int,
                     mem_words: int, trace: GoldenTrace | None = None,
                     stats: accel.AccelStats | None = None,
                     sites: np.ndarray | None = None,
                     index: int = -1,
                     tool: NVBitPERfi | None = None) -> InjectionOutcome:
    """One NVBitPERfi run of descriptor *desc* on workload *w*: fresh
    device, instrumented launches, classify against the golden output
    bits *golden*.

    Without *trace* this is the cold replay: every launch runs from
    dynamic instruction 0 under the tool's compiled step tables. With a
    golden trace (:class:`~repro.campaign.goldens.GoldenTrace`) the same
    run takes the shortcuts of :mod:`repro.swinjector.accel`, tallied in
    *stats* (required with *trace*): a descriptor that never activates,
    or whose every activation the static analyzer proves inert, is Masked
    without simulating, pre-activation launches are skipped, the
    first-activation launch resumes from a golden checkpoint, a CTA with
    no activation site whose live-in words hold their golden values is
    written from its golden stores instead of simulated (which also ends
    a run that reconverges with golden past its last site), a loop that
    provably repeats its state, or moves it by a constant delta per
    period, is fast-forwarded over the periods proved to repeat, and a
    launch past the golden launch list that repeats an earlier launch's
    state is served from the run's launch memo. *sites* (the descriptor's
    activation sites in *trace*) and *tool* (a fresh :class:`NVBitPERfi`
    of *desc*) may be precomputed.
    """
    app, model = w.meta.name, desc.model
    if tool is None:
        tool = NVBitPERfi(desc)
    # one span covers faulty run + classification; the outcome becomes a
    # span attribute, so the trace shows what each injection resolved to
    inject = obs.span("epr.inject", app=app, model=model.value, index=index)
    if trace is not None:
        if sites is None:
            progs = {p.name: p for p in w.programs().values()}
            sites = accel.activation_sites(trace, desc, tool.injector, progs)
        if sites.size == 0:
            # never activates: the faulty run IS the golden run
            stats.skip(trace)
            with inject:
                inject.set(outcome="masked", accel="never-activates")
            return InjectionOutcome(app, model, "masked")
        if _analyzer_of(w).statically_masked(desc):
            # every activation is inert (rule R2: the corruption lands in
            # state no later instruction reads), so the faulty run follows
            # the golden trajectory and activates at exactly its sites
            stats.skip(trace)
            with inject:
                inject.set(outcome="masked", accel="inert")
            return InjectionOutcome(app, model, "masked",
                                    activations=int(sites.size))

    dev = Device(DeviceConfig(global_mem_words=mem_words))
    #: shortcuts the accelerated replay took, in order: "cycle"/"affine"
    #: per loop fast-forward, "launch-memo" per launch served from the
    #: run's launch memo; the last one is the span's ``accel`` attribute
    shortcuts: list[str] = []
    if trace is None:
        launcher = default_launcher(dev, watchdog=watchdog,
                                    instrumentation=tool)
    else:
        launcher = accel.replay_launcher(dev, trace, sites, tool, watchdog,
                                         stats, shortcuts)

    try:
        with inject:
            inject.set(outcome="due")  # stands unless the run completes
            try:
                bits = w.run(dev, launcher)
            finally:
                if shortcuts:
                    inject.set(accel=shortcuts[-1])
            outcome = "masked" if np.array_equal(bits, golden) else "sdc"
            inject.set(outcome=outcome)
    except DeviceError as exc:
        return InjectionOutcome(app, model, "due", due_reason=exc.reason,
                                activations=tool.activations)
    return InjectionOutcome(app, model, outcome, activations=tool.activations)


# ---------------------------------------------------------------------
# campaign-engine integration (kind: "epr")
# ---------------------------------------------------------------------

def _run_unit(app: str, model: ErrorModel, indices, cfg, golden: np.ndarray,
              watchdog: int, trace) -> tuple[list, dict]:
    """Unit body: outcomes in index order plus the unit's accel dict.

    Without *trace* every injection replays cold, in index order. With a
    golden trace the injections are planned first: behaviorally identical
    descriptors share one run, and the runs are bucketed by resume
    checkpoint (injections sharing an epoch restore the same snapshot
    back-to-back). Outcomes are re-emitted in index order either way, so
    the unit's result is byte-identical across the two settings."""
    stats = None
    if trace is not None:
        stats = accel.AccelStats()
        w = cached_workload(app, cfg.scale, cfg.seed)
        progs = {p.name: p for p in w.programs().values()}
    by_index: dict[int, InjectionOutcome] = {}
    planned = []
    groups: dict[tuple, list[int]] = {}
    for i in indices:
        if trace is None:
            planned.append(((-1, -1), i, None, None, [i]))
            continue
        desc = make_descriptor(model, cfg.seed, i)
        key = accel.behavior_key(desc)
        if key is not None:
            members = groups.get(key)
            if members is not None:
                # behaviorally identical to an already-planned descriptor:
                # the run is deterministic in the key, so share its outcome
                members.append(i)
                stats.collapsed += 1
                continue
            groups[key] = members = [i]
        else:
            members = [i]
        tool = NVBitPERfi(desc)
        sites = accel.activation_sites(trace, desc, tool.injector, progs)
        if sites.size:
            ck = trace.best_checkpoint(int(sites[0]))
            epoch = (trace.launch_of(int(sites[0])),
                     ck.index if ck is not None else -1)
        else:
            epoch = (-1, -1)
        planned.append((epoch, i, sites, tool, members))
    # run in (epoch, index) order, dropping each tool (and the step
    # tables it compiled) once its run is over
    planned.sort(key=lambda t: (t[0], t[1]), reverse=True)
    while planned:
        _, i, sites, tool, members = planned.pop()
        out = run_one_injection(app, model, i, cfg, golden, watchdog,
                                trace, stats, sites, tool)
        for j in members:
            by_index[j] = out if j == i else replace(out)
    accel_stats = stats.as_dict() if stats is not None else {"enabled": False}
    return [by_index[i] for i in indices], accel_stats


@register_runner("epr")
def _run_epr_unit(payload: dict) -> dict:
    """Engine runner: one chunk of injections for one (app, model).

    With ``accel`` (the default) the unit loop is handed the golden trace
    and injections run through checkpointed differential replay
    (:mod:`repro.swinjector.accel`); without it the same loop replays them
    cold. Unit ids, index assignment and outcomes are identical either
    way, so accelerated and plain campaigns (and resumes mixing them) stay
    comparable unit-for-unit. Payload keys this runner does not know
    (older versions wrote more) are ignored.
    """
    app = payload["app"]
    model = ErrorModel(payload["model"])
    scale, seed = payload["scale"], payload["seed"]
    mem_words = payload["mem_words"]
    use_accel = bool(payload.get("accel", True))
    trace = None
    if use_accel:
        # the trace first: a traced pass also builds the golden run
        with obs.span("epr.trace", app=app):
            trace = CHECKPOINT_CACHE.get(app, scale, seed, mem_words)
    with obs.span("epr.golden", app=app):
        golden = GOLDEN_CACHE.get(app, scale, seed, mem_words)
    watchdog = 10 * golden.dynamic_instructions + 10_000
    cfg = SwCampaignConfig(apps=(app,), models=(model,), scale=scale,
                           seed=seed, mem_words=mem_words)
    with obs.span("epr.unit", app=app, model=model.value,
                  injections=len(payload["indices"])):
        outcomes, accel_stats = _run_unit(
            app, model, payload["indices"], cfg, golden.bits, watchdog,
            trace)
    return {
        "items": len(outcomes),
        "golden_digest": golden.digest,
        "accel": accel_stats,
        "outcomes": [
            {"outcome": o.outcome, "due_reason": o.due_reason,
             "activations": o.activations}
            for o in outcomes
        ],
    }


class EprCampaignSpec:
    """Campaign-kind adapter for ``python -m repro.campaign`` (kind: epr)."""

    kind = "epr"

    def default_config(self, **overrides) -> dict:
        """:class:`SwCampaignConfig`'s defaults as a manifest config
        (``processes`` is pinned only so the pool size is not read; it
        is not part of the config)."""
        cfg = self.config_of(SwCampaignConfig(processes=1))
        cfg.update({k: v for k, v in overrides.items() if v is not None})
        return cfg

    @staticmethod
    def config_of(config: SwCampaignConfig, chunk: int = DEFAULT_CHUNK) -> dict:
        """Manifest config dict for a dataclass config. Execution knobs
        (processes, fail_fast) are deliberately excluded: resuming with a
        different worker count must be allowed and yields identical
        results."""
        return {
            "apps": list(config.apps),
            "models": [m.value for m in config.models],
            "injections_per_model": config.injections_per_model,
            "scale": config.scale,
            "seed": config.seed,
            "mem_words": config.mem_words,
            "chunk": chunk,
            "accel": config.accel,
        }

    @staticmethod
    def spill_to(config: dict, directory) -> None:
        """Spill the reference runs *config* uses under the campaign
        *directory*: golden runs always, checkpoint traces when the
        campaign is accelerated. A resume in a fresh process then reuses
        them instead of recomputing every reference."""
        GOLDEN_CACHE.persist_under(directory)
        if config.get("accel", True):
            CHECKPOINT_CACHE.persist_under(directory)

    @staticmethod
    def _iter_unit_specs(config: dict):
        for app in config["apps"]:
            for model in config["models"]:
                for indices in chunked(range(config["injections_per_model"]),
                                       config.get("chunk", DEFAULT_CHUNK)):
                    uid = (f"epr/{app}/{model}/"
                           f"{indices[0]:05d}+{len(indices)}")
                    yield uid, app, model, list(indices)

    def build(self, config: dict) -> CampaignPlan:
        specs = [(app, config["scale"], config["seed"], config["mem_words"])
                 for app in config["apps"]]
        h0, m0 = GOLDEN_CACHE.stats()
        if config.get("accel", True):
            # warm traces in the parent so forked workers inherit the
            # checkpoints copy-on-write instead of re-tracing per process;
            # each traced pass also builds (or checks) its golden run
            CHECKPOINT_CACHE.warm(specs)
        GOLDEN_CACHE.warm(specs)
        h1, m1 = GOLDEN_CACHE.stats()
        units = tuple(
            WorkUnit(unit_id=uid, kind="epr",
                     payload={"app": app, "model": model, "indices": indices,
                              "scale": config["scale"],
                              "seed": config["seed"],
                              "mem_words": config["mem_words"],
                              "accel": config.get("accel", True)})
            for uid, app, model, indices in self._iter_unit_specs(config)
        )
        return CampaignPlan(kind="epr", config=dict(config), units=units,
                            warm_stats=(h1 - h0, m1 - m0))

    def aggregate(self, config: dict,
                  results: dict[str, UnitResult]) -> EprResult:
        """Deterministic aggregation: unit-id order, not completion order."""
        cfg = SwCampaignConfig(
            apps=tuple(config["apps"]),
            models=tuple(ErrorModel(m) for m in config["models"]),
            injections_per_model=config["injections_per_model"],
            scale=config["scale"], seed=config["seed"],
            mem_words=config["mem_words"],
            accel=config.get("accel", True),
        )
        result = EprResult(config=cfg)
        for uid, app, model, _ in self._iter_unit_specs(config):
            r = results.get(uid)
            if r is None or not r.ok or not r.value:
                continue
            for o in r.value["outcomes"]:
                result.outcomes.append(InjectionOutcome(
                    app=app, model=ErrorModel(model), outcome=o["outcome"],
                    due_reason=o["due_reason"],
                    activations=o["activations"]))
        return result

    def summarize(self, result: EprResult) -> dict:
        return {
            "injections": len(result.outcomes),
            "overall_epr_%": round(result.overall_epr(), 2),
            "outcome_counts": dict(Counter(o.outcome
                                           for o in result.outcomes)),
            "epr_per_model_%": {
                m.value: {k: round(v, 2)
                          for k, v in result.average_epr(m).items()}
                for m in result.config.models},
        }


CAMPAIGN_SPEC = EprCampaignSpec()


def run_epr_campaign(config: SwCampaignConfig | None = None, *,
                     store=None,
                     max_units: int | None = None,
                     chunk: int = DEFAULT_CHUNK) -> EprResult:
    """Run the full software-level campaign of Figures 10/11.

    With *store* (a :class:`repro.campaign.CampaignStore`) the campaign is
    resumable: completed work units are skipped and their recorded results
    merged into the aggregate, and a store written for a different config
    raises :class:`~repro.common.exceptions.ConfigError`. *max_units*
    bounds how many pending units this call executes (simulated
    interruption / incremental runs).
    """
    config = config or SwCampaignConfig()
    return run_campaign(
        CAMPAIGN_SPEC, CAMPAIGN_SPEC.config_of(config, chunk=chunk),
        EngineConfig(processes=config.processes, fail_fast=config.fail_fast,
                     max_units=max_units),
        store=store)
