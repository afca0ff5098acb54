"""The three fixed campaigns the benchmark times, and their outcome check.

Every pass runs a workload's campaigns serially (``processes=1``) through
the public entry points ``python -m repro.campaign run`` uses, each into a
fresh :class:`~repro.campaign.store.CampaignStore` directory:

* EPR workloads: ``EprCampaignSpec.build`` (golden runs + checkpoint
  traces; timed as set-up), then ``run_epr_campaign`` (timed as items);
* ``gate-units``: ``GateCampaignSpec.build`` for ``wsc``, ``fetch`` and
  ``decoder`` (stimuli profiling, netlist, fault list, golden simulation;
  set-up), then ``engine.execute`` over each plan (items).

The injection and fault sets are fixed at campaign seed ``0x5C23``. The
benchmark's ``--seed`` permutes the order in which error models (EPR) or
gate units run, never which items run: across campaign seeds the hang
count of ``epr-hang`` alone moves a pass between 8 and 24 s, which no
bound could absorb. EPR apps keep their order, because the app that sets
up last decides the process's peak memory (a 4 MiB device more or less).
Every pass is checked item by item against ``oracle.json``, the
``accel=False`` campaign's outcomes at the same campaign seed.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro import obs
from repro.campaign import engine
from repro.campaign.goldens import (
    CHECKPOINT_CACHE,
    GOLDEN_CACHE,
    cached_workload,
)
from repro.campaign.store import CampaignStore
from repro.errormodels.models import SW_INJECTABLE
from repro.faultinjection import campaign as gate_campaign
from repro.faultinjection.campaign import GateCampaignSpec, record_from_json
from repro.swinjector.campaign import (
    EprCampaignSpec,
    SwCampaignConfig,
    run_epr_campaign,
)

#: the campaign seed every workload runs at (the CLI's default seed)
CAMPAIGN_SEED = 0x5C23

ORACLE_PATH = Path(__file__).with_name("oracle.json")


@dataclass
class PassResult:
    """One pass of a workload: timings plus what the campaigns returned."""

    setup_s: float
    run_s: float
    #: item key -> outcome label, for every item a unit delivered
    outcomes: dict[str, str]
    #: every unit result the stores hold (accel dicts for the ledger)
    units: list = field(default_factory=list)
    #: campaign store directories (obs ``metrics.json`` lives there)
    dirs: list[Path] = field(default_factory=list)


def reset_caches() -> None:
    """Drop every per-process cache a fresh campaign process starts
    without, so each pass pays the set-up a fresh campaign pays."""
    GOLDEN_CACHE.clear()
    CHECKPOINT_CACHE.clear()
    cached_workload.cache_clear()
    # the gate runner's per-process netlist cache
    unit_cache = getattr(gate_campaign, "_cached_unit", None)
    if hasattr(unit_cache, "cache_clear"):
        unit_cache.cache_clear()
    gc.collect()


def _shuffled(seed: int, items) -> tuple:
    order = list(items)
    random.Random(seed).shuffle(order)
    return tuple(order)


def _epr_label(o: dict) -> str:
    if o["outcome"] == "due":
        return f"due:{o['due_reason']}"
    return o["outcome"]


def _gate_label(d: dict) -> str:
    r = record_from_json(d)
    return f"{r.category}:{'+'.join(sorted(m.value for m in r.models))}"


class EprWorkload:
    """``apps`` x all 11 SW-injectable models x ``injections`` each."""

    def __init__(self, name: str, apps: tuple[str, ...], injections: int):
        self.name = name
        self.apps = apps
        self.injections = injections

    def order(self, seed: int) -> str:
        return ",".join(m.value for m in _shuffled(seed, SW_INJECTABLE))

    def warmup(self) -> "EprWorkload":
        """The last app, one injection per model: every code path of a
        pass at a fraction of its cost."""
        return EprWorkload(f"{self.name}/warm-up", self.apps[-1:], 1)

    def run_pass(self, workdir: Path, seed: int,
                 accel: bool = True) -> PassResult:
        cfg = SwCampaignConfig(
            apps=self.apps,
            models=_shuffled(seed, SW_INJECTABLE),
            injections_per_model=self.injections, seed=CAMPAIGN_SEED,
            processes=1, fail_fast=False, accel=accel)
        spec = EprCampaignSpec()
        store = CampaignStore(workdir)
        t0 = time.perf_counter()
        # what run_epr_campaign does before its build, then the build:
        # the cold golden runs and checkpoint traces
        GOLDEN_CACHE.persist_to(store.directory / "goldens")
        if accel:
            CHECKPOINT_CACHE.persist_to(store.directory / "checkpoints")
        plan = spec.build(spec.config_of(cfg))
        t1 = time.perf_counter()
        run_epr_campaign(cfg, store=store)
        t2 = time.perf_counter()
        results = store.load_results()
        outcomes = {}
        for unit in plan.units:
            r = results.get(unit.unit_id)
            if r is None or not r.ok:
                continue
            p = unit.payload
            for i, o in zip(p["indices"], r.value["outcomes"]):
                outcomes[f"{p['app']}/{p['model']}/{i}"] = _epr_label(o)
        return PassResult(t1 - t0, t2 - t1, outcomes,
                          list(results.values()), [store.directory])


class GateWorkload:
    """CLI gate campaigns (``max_faults`` sampled stuck-at faults, 48
    tiny-scale profiled stimuli) for each of ``units``."""

    def __init__(self, name: str, units: tuple[str, ...], max_faults: int):
        self.name = name
        self.units = units
        self.max_faults = max_faults

    def order(self, seed: int) -> str:
        return ",".join(_shuffled(seed, self.units))

    def warmup(self) -> "GateWorkload":
        """The last unit's campaign alone."""
        return GateWorkload(f"{self.name}/warm-up", self.units[-1:],
                            self.max_faults)

    def run_pass(self, workdir: Path, seed: int,
                 accel: bool = True) -> PassResult:
        spec = GateCampaignSpec()
        t0 = time.perf_counter()
        plans = [(u, spec.build(spec.default_config(
            unit=u, seed=CAMPAIGN_SEED, max_faults=self.max_faults,
            accel=accel)))
            for u in _shuffled(seed, self.units)]
        t1 = time.perf_counter()
        stores = []
        for u, plan in plans:
            store = CampaignStore(workdir / u)
            store.write_manifest(plan.kind, plan.config, len(plan.units))
            engine.execute(plan.units,
                           engine.EngineConfig(processes=1, fail_fast=False),
                           context=plan.context, store=store)
            obs.flush(store.directory)
            stores.append((u, store))
        t2 = time.perf_counter()
        outcomes, units = {}, []
        for u, store in stores:
            results = store.load_results()
            units.extend(results.values())
            for r in results.values():
                if not r.ok:
                    continue
                for d in r.value["records"]:
                    outcomes[f"{u}/{d['net']}/{d['sa']}"] = _gate_label(d)
        return PassResult(t1 - t0, t2 - t1, outcomes, units,
                          [s.directory for _, s in stores])


WORKLOADS = {
    "epr-hang": EprWorkload("epr-hang", ("lenet", "mxm"), 2),
    "epr-short": EprWorkload(
        "epr-short", ("gemm", "hotspot", "gaussian", "lud", "nw", "cfd",
                      "mergesort", "bfs", "quicksort"), 3),
    "gate-units": GateWorkload("gate-units", ("wsc", "fetch", "decoder"),
                               512),
}


def digest(outcomes: dict[str, str]) -> str:
    """SHA-256 over the sorted ``(item, outcome)`` pairs."""
    blob = json.dumps(sorted(outcomes.items()), separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def load_oracle(name: str) -> dict[str, str]:
    """The stored ``accel=False`` outcomes of workload *name*; raises if
    the file's digest does not match its outcomes."""
    entry = json.loads(ORACLE_PATH.read_text())["workloads"][name]
    if digest(entry["outcomes"]) != entry["digest"]:
        raise ValueError(f"{ORACLE_PATH.name}: {name} digest mismatch")
    return entry["outcomes"]


def count_failed(outcomes: dict[str, str], oracle: dict[str, str]) -> int:
    """Items missing (failed or quarantined unit) or differing from the
    oracle, plus items the oracle does not know."""
    wrong = sum(outcomes.get(k) != v for k, v in oracle.items())
    return wrong + len(outcomes.keys() - oracle.keys())
