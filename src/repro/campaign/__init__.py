"""Unified fault-injection campaign engine.

Every campaign in this repository — the software-level EPR campaigns
(:mod:`repro.swinjector.campaign`), the gate-level stuck-at campaigns
(:mod:`repro.faultinjection.campaign`), the FAPR sweeps driven by
:mod:`repro.experiments.gate_experiments` and the RTL AVF and t-MxM
studies (:mod:`repro.rtl.campaign`) — is an embarrassingly parallel
bag of independent *work units*. This package provides the one engine
they all run on:

* :class:`~repro.campaign.engine.WorkUnit` — an injection plan is
  partitioned into units seeded by their stable identity, so results are
  bit-identical regardless of worker count or scheduling
  (:mod:`repro.campaign.engine`);
* a process-pool executor with per-unit timeouts, bounded retries with
  exponential backoff, ``fail_fast`` exception propagation, and graceful
  degradation to serial execution (:func:`repro.campaign.engine.execute`);
* a content-addressed golden-run cache so the fault-free reference of
  each ``(workload, scale, seed)`` is computed once per campaign instead
  of once per injection (:mod:`repro.campaign.goldens`);
* an append-only JSONL result store with a manifest that makes any
  campaign resumable after interruption (:mod:`repro.campaign.store`);
  its unit results are the campaign's one ledger, and
  :func:`~repro.campaign.store.fold_results` is the one place that sums
  them into units, items, retries, failures, cache hits and accel totals;
* one entry point, :func:`~repro.campaign.plans.run_campaign`: spec + config
  (+ optional store) -> plan -> engine -> aggregate. It is the only code
  that writes or checks a manifest, so every stored campaign — from the
  library or the CLI — is resumable by ``python -m repro.campaign resume``.

``python -m repro.campaign`` exposes ``run`` / ``resume`` / ``status`` /
``verify`` / ``repair`` / ``smoke`` / ``chaos-smoke`` on top of the
registered campaign kinds (``epr``, ``gate``, ``rtl-avf``, ``rtl-tmxm``):
the one CLI of all three levels. See ``docs/CAMPAIGNS.md``
for the architecture and on-disk format, and ``docs/RESILIENCE.md`` for
the crash-safety / corruption-detection / chaos-testing layer
(:mod:`repro.resilience`).
"""

from repro.campaign.engine import (
    CampaignUnitError,
    EngineConfig,
    UnitResult,
    WorkUnit,
    default_processes,
    execute,
    register_runner,
)
from repro.campaign.goldens import GOLDEN_CACHE, GoldenCache, GoldenRun, golden_key
from repro.campaign.plans import CampaignPlan, chunked, get_spec, run_campaign
from repro.campaign.store import CampaignStore, config_fingerprint, fold_results

__all__ = [
    "CampaignPlan",
    "CampaignStore",
    "CampaignUnitError",
    "EngineConfig",
    "GOLDEN_CACHE",
    "GoldenCache",
    "GoldenRun",
    "UnitResult",
    "WorkUnit",
    "chunked",
    "config_fingerprint",
    "default_processes",
    "execute",
    "fold_results",
    "get_spec",
    "golden_key",
    "register_runner",
    "run_campaign",
]
