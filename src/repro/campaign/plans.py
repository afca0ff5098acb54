"""Campaign plans and the kind registry.

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
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Sequence

from repro.common.exceptions import ConfigError
from repro.campaign.engine import WorkUnit

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
