"""Campaign plans, the kind registry and the one campaign entry point.

A *plan* is the fully-materialized, deterministic description of one
campaign: its config dict (what goes into the manifest), its work units
(what the engine executes) and optionally a process-wide context of large
shared inputs (what forked workers inherit copy-on-write).

Campaign kinds are contributed by the injection layers; each kind names
a spec object (``module:attribute``) with five methods::

    default_config(**overrides) -> dict      # JSON-able, manifest-ready
    spill_to(config, directory) -> None      # reference caches to disk
    build(config: dict) -> CampaignPlan      # deterministic from config
    aggregate(config, results) -> result     # dict[unit_id, UnitResult] -> obj
    summarize(result) -> dict                # printable summary

``build`` must be a pure function of the config so that ``resume`` can
rebuild the identical plan from the manifest alone.

:func:`run_campaign` is the one way a spec and a config become a result:
the library entry points (``run_epr_campaign``, ``run_microbench_avf``,
``run_tmxm_campaign``) and every CLI command that executes a campaign
call it, and it is the only code that writes or checks a campaign
directory's manifest.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Callable, Sequence

from repro import obs
from repro.campaign import engine
from repro.campaign.engine import EngineConfig, UnitResult, WorkUnit
from repro.campaign.goldens import CHECKPOINT_CACHE, GOLDEN_CACHE
from repro.common.exceptions import ConfigError

#: campaign kind -> ``module:attribute`` of its spec (lazy import keeps
#: repro.campaign free of dependencies on the injection layers)
KINDS = {
    "epr": "repro.swinjector.campaign:CAMPAIGN_SPEC",
    "gate": "repro.faultinjection.campaign:CAMPAIGN_SPEC",
    "rtl-avf": "repro.rtl.campaign:AVF_SPEC",
    "rtl-tmxm": "repro.rtl.campaign:TMXM_SPEC",
}


@dataclass(frozen=True)
class CampaignPlan:
    kind: str
    config: dict
    units: tuple[WorkUnit, ...]
    #: large shared inputs installed via engine.set_context before forking
    context: dict | None = None
    #: golden-cache (hits, misses) charged to plan construction / warm-up
    warm_stats: tuple[int, int] = (0, 0)


def chunked(seq: Sequence, size: int) -> list[list]:
    """Split *seq* into contiguous chunks of at most *size* elements."""
    if size < 1:
        raise ConfigError(f"chunk size must be >= 1, got {size}")
    items = list(seq)
    return [items[i:i + size] for i in range(0, len(items), size)]


def get_spec(kind: str):
    """Resolve a campaign kind to its spec object (lazy import)."""
    try:
        module_name, _, attr = KINDS[kind].partition(":")
    except KeyError:
        raise ConfigError(
            f"unknown campaign kind {kind!r}; known: {sorted(KINDS)}")
    return getattr(importlib.import_module(module_name), attr)


def ensure_kind_loaded(kind: str) -> None:
    """Import the module providing *kind* so its runner registers."""
    if kind in KINDS:
        importlib.import_module(KINDS[kind].partition(":")[0])


def run_campaign(spec, config: dict, options: EngineConfig | None = None, *,
                 store=None,
                 on_result: Callable[[UnitResult], None] | None = None):
    """Run *spec*'s campaign for *config* and return its aggregate.

    Without *store* the plan runs in memory. With a
    :class:`~repro.campaign.store.CampaignStore` the reference runs spill
    under its directory while the plan builds and runs (each reference
    cache gets its previous spill directory back afterwards), a new
    directory gets a manifest (with the plan's golden-cache warm-up) and
    an existing one must carry the same fingerprint, or
    :class:`ConfigError` is raised instead of mixing results; units
    already stored are skipped and merged into the aggregate. *options*
    are the executor knobs (``max_units`` stops early: the directory
    stays resumable) and *on_result* sees every unit committed by this
    call.
    """
    caches = (GOLDEN_CACHE, CHECKPOINT_CACHE)
    spilled = [cache.disk_dir for cache in caches]
    try:
        if store is not None:
            spec.spill_to(config, store.directory)
        plan = spec.build(config)
        if store is not None:
            if store.manifest_path.exists():
                store.check_fingerprint(plan.kind, plan.config)
            else:
                hits, misses = plan.warm_stats
                store.write_manifest(
                    plan.kind, plan.config, len(plan.units),
                    extra={"golden_warm": {"hits": hits, "misses": misses}})
        # a module attribute, so a profiler that wraps engine.execute
        # sees it
        results = engine.execute(plan.units, options, context=plan.context,
                                 store=store, on_result=on_result)
    finally:
        for cache, disk_dir in zip(caches, spilled):
            cache.disk_dir = disk_dir
    if store is not None:
        obs.flush(store.directory)
        results = {**store.load_results(), **results}
    return spec.aggregate(plan.config, results)
