"""The RTL studies on the campaign engine: one runner, two plans.

A unit (kind ``rtl``) is the sampled sites of one module, each with its
stuck-at polarity, on one *target*: a micro-benchmark input or a t-MxM
tile pair. ``build`` draws sites and polarities from one stream per
(bench, module) for ``rtl-avf`` and per module for ``rtl-tmxm``, in
range/tile → value → site order, so results do not depend on worker
count, scheduling or resume. The golden run gets a fixed instruction
budget, every faulty run ``20 × golden + 500``: a fault that makes the
kernel run 20x longer is a hang (DUE).
"""

from __future__ import annotations

import inspect
import json

import numpy as np

from repro.campaign.engine import EngineConfig, UnitResult, WorkUnit, register_runner
from repro.campaign.plans import CampaignPlan, run_campaign
from repro.common.rng import DEFAULT_SEED, make_rng
from repro.rtl.avf import AvfRow, MicrobenchAvfCampaign, modules_for_bench
from repro.rtl.injector import RtlInjection, RtlTally, run_rtl_injection, run_target
from repro.rtl.sites import module_sites
from repro.rtl.tmxm_campaign import TMXM_MODULES, TmxmCampaignResult, TmxmCell
from repro.syndrome.patterns import classify_pattern
from repro.workloads.microbench import MICROBENCH_NAMES, MicroBenchmark, build_microbench
from repro.workloads.tmxm import TILE, TILE_TYPES, TMxM

#: golden-run instruction budget per target type
_GOLDEN_BUDGET = {MicroBenchmark: 200_000, TMxM: 100_000}


def reference_run(target) -> tuple[np.ndarray, int]:
    """Golden output bits of *target* and the watchdog of its faulty runs."""
    golden, executed = run_target(target, _GOLDEN_BUDGET[type(target)])
    return golden, 20 * executed + 500


def _target(payload: dict):
    if "bench" in payload:
        return build_microbench(payload["bench"], payload["input_range"],
                                seed=payload["seed"],
                                value_index=payload["value_index"])
    return TMxM.create(payload["tile_type"], payload["seed"],
                       payload["value_index"])


@register_runner("rtl")
def _run_rtl_unit(payload: dict) -> dict:
    """Engine runner: one module's sampled sites on one target."""
    target = _target(payload)
    golden, watchdog = reference_run(target)
    sites = module_sites(payload["module"])
    outcomes = []
    for index, stuck in zip(payload["sites"], payload["stuck"]):
        out = run_rtl_injection(target, RtlInjection(sites[index], stuck),
                                golden, watchdog)
        rec = {"outcome": out.outcome}
        if out.outcome == "due":
            rec["due_reason"] = out.due_reason
        elif out.outcome == "sdc":
            rec["corrupted"] = out.corrupted.tolist()
            rec["rel_errors"] = out.rel_errors.tolist()
        outcomes.append(rec)
    return {"items": len(outcomes), "outcomes": outcomes}


def _sample_sites(module: str, cap: int | None,
                  rng: np.random.Generator) -> list[int]:
    """Indices into ``module_sites(module)``: all, or *cap* drawn by *rng*."""
    n = len(module_sites(module))
    if cap and n > cap:
        return sorted(int(i) for i in rng.choice(n, size=cap, replace=False))
    return list(range(n))


def _payload(rng: np.random.Generator, seed: int, module: str,
             sites: list[int], **target) -> dict:
    """Unit payload; draws one stuck-at polarity per site from *rng*."""
    return {**target, "seed": seed, "module": module, "sites": sites,
            "stuck": [int(rng.integers(0, 2)) for _ in sites]}


def _uid(*parts) -> str:
    return "/".join(map(str, parts))


def _records(results: dict[str, UnitResult], uid: str) -> list[dict]:
    r = results.get(uid)
    return r.value["outcomes"] if r is not None and r.ok and r.value else []


def _avf(t: RtlTally) -> dict:
    return {"sdc_single": round(t.avf_sdc_single, 2),
            "sdc_multi": round(t.avf_sdc_multi, 2),
            "due": round(t.avf_due, 2)}


class _RtlSpec:
    """Campaign-kind adapter shared by both RTL studies. A study's config
    keys are exactly the parameters of its ``run_*`` function."""

    kind: str

    def __init__(self, run):
        self._run = run

    def default_config(self, **overrides) -> dict:
        """The ``run_*`` defaults; overrides of keys the study does not
        have (``scale``, ``apps``, ...) are ignored."""
        cfg = {k: p.default
               for k, p in inspect.signature(self._run).parameters.items()}
        cfg.update({k: v for k, v in overrides.items()
                    if k in cfg and v is not None})
        return self.normalize(cfg)

    @staticmethod
    def normalize(config: dict) -> dict:
        """*config* as the manifest stores it (tuples become lists)."""
        return json.loads(json.dumps(config))

    @staticmethod
    def spill_to(config: dict, directory) -> None:
        """Nothing to spill: each unit runs its own (short) golden pass."""

    def build(self, config: dict) -> CampaignPlan:
        units = tuple(WorkUnit(unit_id=uid, kind="rtl", payload=payload)
                      for uid, payload in self._units(config))
        return CampaignPlan(kind=self.kind, config=dict(config), units=units)

    def run(self, config: dict):
        """:func:`run_campaign` in memory on the default pool, failing
        fast."""
        return run_campaign(self, self.normalize(config),
                            EngineConfig(fail_fast=True))


class AvfCampaignSpec(_RtlSpec):
    kind = "rtl-avf"

    @staticmethod
    def _pairs(config: dict):
        for bench in config["benches"] or MICROBENCH_NAMES:
            for module in modules_for_bench(bench):
                if config["modules"] is None or module in config["modules"]:
                    yield bench, module

    def _units(self, config: dict):
        seed = config["seed"]
        for bench, module in self._pairs(config):
            rng = make_rng(seed, "rtl-avf", bench, module)
            sites = _sample_sites(module, config["max_sites_per_module"], rng)
            for rng_name in config["input_ranges"]:
                for vi in range(config["values_per_range"]):
                    yield (_uid(self.kind, bench, module, rng_name, vi),
                           _payload(rng, seed, module, sites, bench=bench,
                                    input_range=rng_name, value_index=vi))

    def aggregate(self, config: dict,
                  results: dict[str, UnitResult]) -> MicrobenchAvfCampaign:
        rows: list[AvfRow] = []
        syndromes: dict[tuple[str, str, str], np.ndarray] = {}
        for bench, module in self._pairs(config):
            for rng_name in config["input_ranges"]:
                row = AvfRow(module, bench, rng_name)
                pool = []
                for vi in range(config["values_per_range"]):
                    uid = _uid(self.kind, bench, module, rng_name, vi)
                    for rec in _records(results, uid):
                        n = len(rec.get("corrupted", ()))
                        row.tally(rec["outcome"], n)
                        if rec["outcome"] == "sdc":
                            row.corrupted_thread_counts.append(n)
                            pool.append(np.array(rec["rel_errors"]))
                rows.append(row)
                if pool:
                    syndromes[(bench, module, rng_name)] = np.concatenate(pool)
        return MicrobenchAvfCampaign(rows=rows, syndromes=syndromes)

    def summarize(self, result: MicrobenchAvfCampaign) -> dict:
        pairs = dict.fromkeys((r.bench, r.module) for r in result.rows)
        return {
            "injections": sum(r.n_injections for r in result.rows),
            "avf_%": {f"{b}/{m}": _avf(result.row(m, b)) for b, m in pairs},
        }


class TmxmCampaignSpec(_RtlSpec):
    kind = "rtl-tmxm"

    def _units(self, config: dict):
        seed = config["seed"]
        for module in config["modules"]:
            rng = make_rng(seed, "tmxm-campaign", module)
            sites = _sample_sites(module, config["max_sites_per_module"], rng)
            for tile_type in config["tile_types"]:
                for vi in range(config["values_per_type"]):
                    yield (_uid(self.kind, module, tile_type, vi),
                           _payload(rng, seed, module, sites,
                                    tile_type=tile_type, value_index=vi))

    def aggregate(self, config: dict,
                  results: dict[str, UnitResult]) -> TmxmCampaignResult:
        cells: dict[tuple[str, str], TmxmCell] = {}
        for module in config["modules"]:
            for tile_type in config["tile_types"]:
                cell = cells[(module, tile_type)] = TmxmCell(module, tile_type)
                for vi in range(config["values_per_type"]):
                    uid = _uid(self.kind, module, tile_type, vi)
                    for rec in _records(results, uid):
                        corrupted = rec.get("corrupted", ())
                        cell.tally(rec["outcome"], len(corrupted))
                        if len(corrupted) > 1:
                            pat = classify_pattern(np.array(corrupted),
                                                   (TILE, TILE))
                            cell.patterns.append(pat)
                            cell.syndromes.append(
                                (pat, np.array(rec["rel_errors"])))
        return TmxmCampaignResult(cells=cells)

    def summarize(self, result: TmxmCampaignResult) -> dict:
        modules = dict.fromkeys(m for m, _ in result.cells)
        return {
            "injections": sum(c.n_injections for c in result.cells.values()),
            "avf_%": {f"{m}/{t}": _avf(c)
                      for (m, t), c in result.cells.items()},
            "patterns_%": {m: {p.value: round(v, 2) for p, v in
                               result.pattern_distribution(m).items()}
                           for m in modules},
        }


def run_microbench_avf(
    benches: list[str] | None = None,
    modules: list[str] | None = None,
    input_ranges: tuple[str, ...] = ("S", "M", "L"),
    values_per_range: int = 2,
    max_sites_per_module: int | None = 120,
    seed: int = DEFAULT_SEED,
) -> MicrobenchAvfCampaign:
    """Run the Fig 3 campaign (scaled by default; pass ``None`` caps for
    paper scale)."""
    return AVF_SPEC.run({
        "benches": benches, "modules": modules, "input_ranges": input_ranges,
        "values_per_range": values_per_range,
        "max_sites_per_module": max_sites_per_module, "seed": seed})


def run_tmxm_campaign(
    modules: tuple[str, ...] = TMXM_MODULES,
    tile_types: tuple[str, ...] = TILE_TYPES,
    values_per_type: int = 2,
    max_sites_per_module: int | None = 150,
    seed: int = DEFAULT_SEED,
) -> TmxmCampaignResult:
    """Run the Figs 6-8 t-MxM campaign."""
    return TMXM_SPEC.run({
        "modules": modules, "tile_types": tile_types,
        "values_per_type": values_per_type,
        "max_sites_per_module": max_sites_per_module, "seed": seed})


AVF_SPEC = AvfCampaignSpec(run_microbench_avf)
TMXM_SPEC = TmxmCampaignSpec(run_tmxm_campaign)
