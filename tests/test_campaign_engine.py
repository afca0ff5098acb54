"""Tests for the unified campaign engine (repro.campaign).

Covers the three engine guarantees the campaigns rely on:

* determinism — the same seed yields identical aggregated EPR for any
  worker count;
* resumability — an interrupted campaign, resumed, equals an
  uninterrupted one;
* golden-run caching — the fault-free reference is computed once per
  campaign, not once per injection.
"""

from __future__ import annotations

import os

import pytest

from repro.campaign import (
    CampaignStore,
    CampaignUnitError,
    EngineConfig,
    UnitResult,
    WorkUnit,
    chunked,
    config_fingerprint,
    default_processes,
    execute,
    fold_results,
    run_campaign,
)
from repro.campaign.engine import get_context, register_runner
from repro.campaign.goldens import GOLDEN_CACHE, golden_key
from repro.campaign.plans import get_spec
from repro.common.exceptions import ConfigError
from repro.errormodels.models import ErrorModel
from repro.swinjector import SwCampaignConfig, run_epr_campaign


# ---------------------------------------------------------------------
# synthetic campaign kinds for engine-level tests
# ---------------------------------------------------------------------

@register_runner("test-echo")
def _echo(payload: dict) -> dict:
    return {"items": 1, "value": payload["x"] * 2}


@register_runner("test-crash")
def _crash(payload: dict) -> dict:
    raise ValueError(f"synthetic crash in unit {payload['x']}")


@register_runner("test-flaky")
def _flaky(payload: dict) -> dict:
    """Fails until its marker file exists (i.e. succeeds on retry)."""
    marker = payload["marker"]
    if os.path.exists(marker):
        return {"items": 1, "attempted": True}
    with open(marker, "w") as fh:
        fh.write("attempted")
    raise RuntimeError("transient failure, try again")


def _units(kind: str, n: int, **extra) -> list[WorkUnit]:
    return [WorkUnit(unit_id=f"{kind}/{i:03d}", kind=kind,
                     payload={"x": i, **extra})
            for i in range(n)]


class TestEngineCore:
    def test_serial_execution_collects_all(self):
        results = execute(_units("test-echo", 5), EngineConfig(processes=1))
        assert len(results) == 5
        assert all(r.ok for r in results.values())
        assert results["test-echo/003"].value["value"] == 6

    def test_pooled_execution_matches_serial(self):
        a = execute(_units("test-echo", 6), EngineConfig(processes=1))
        b = execute(_units("test-echo", 6), EngineConfig(processes=2))
        assert {k: r.value["value"] for k, r in a.items()} == \
            {k: r.value["value"] for k, r in b.items()}

    def test_completed_units_are_skipped(self):
        done = {"test-echo/000", "test-echo/001"}
        results = execute(_units("test-echo", 4), EngineConfig(processes=1),
                          completed=done)
        assert set(results) == {"test-echo/002", "test-echo/003"}

    def test_max_units_bounds_the_run(self):
        results = execute(_units("test-echo", 5),
                          EngineConfig(processes=1, max_units=2))
        assert len(results) == 2

    def test_crash_is_recorded_after_retries(self):
        results = execute(_units("test-crash", 1),
                          EngineConfig(processes=1, retries=2, backoff=0.0))
        r = results["test-crash/000"]
        assert not r.ok
        assert r.retries == 2
        assert "ValueError" in r.error and "synthetic crash" in r.error
        ledger = fold_results(results)
        assert ledger["failed_units"] == 1
        assert ledger["retries"] == 2

    def test_fail_fast_propagates_worker_traceback(self):
        with pytest.raises(CampaignUnitError) as exc:
            execute(_units("test-crash", 2),
                    EngineConfig(processes=1, fail_fast=True))
        assert "synthetic crash" in str(exc.value)
        assert exc.value.remote_traceback

    def test_transient_failure_succeeds_on_retry(self, tmp_path):
        units = [WorkUnit(unit_id="flaky/0", kind="test-flaky",
                          payload={"marker": str(tmp_path / "marker")})]
        results = execute(units, EngineConfig(processes=1, retries=2,
                                              backoff=0.0))
        r = results["flaky/0"]
        assert r.ok
        assert r.retries >= 1

    def test_chunked(self):
        assert chunked(range(5), 2) == [[0, 1], [2, 3], [4]]
        with pytest.raises(ConfigError):
            chunked(range(5), 0)

    def test_default_processes_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROCESSES", "3")
        assert default_processes() == 3
        monkeypatch.setenv("REPRO_PROCESSES", "junk")
        with pytest.raises(ConfigError):
            default_processes()
        monkeypatch.delenv("REPRO_PROCESSES")
        assert 1 <= default_processes() <= 8


class TestStore:
    def test_append_and_reload(self, tmp_path):
        store = CampaignStore(tmp_path / "c")
        store.write_manifest("test-echo", {"n": 2}, total_units=2)
        store.append_result(UnitResult(
            "u/0", "test-echo", ok=True, elapsed=0.5,
            value={"items": 3, "accel": {"enabled": True, "restores": 2}}))
        store.append_result(UnitResult("u/1", "test-echo", ok=False,
                                       error="boom", elapsed=0.1))
        results = store.load_results()
        assert results["u/0"].items == 3
        assert store.completed_ids() == {"u/0"}  # failures re-run on resume
        status = store.status()
        assert status["completed_units"] == 1
        assert status["failed_units"] == 1
        assert status["accel"] == {"restores": 2}  # bools are not summed
        assert not status["complete"]

    def test_to_json_pins_the_deep_copy(self):
        # to_json builds the stored dict shallowly; it must equal what
        # dataclasses.asdict (a deep copy) gave, obs left out, for the
        # shapes results.jsonl holds: EPR, gate and failed units
        import dataclasses
        import json

        from repro.campaign.engine import set_context
        from repro.faultinjection.campaign import (
            GateCampaignSpec,
            _run_gate_unit,
        )
        from repro.swinjector.campaign import _run_epr_unit

        epr = _run_epr_unit({
            "app": "vectoradd", "model": "WV", "scale": "tiny", "seed": 1,
            "mem_words": 1 << 20, "indices": [0, 1], "accel": True})
        spec = GateCampaignSpec()
        plan = spec.build(spec.default_config(unit="decoder", max_faults=64,
                                              max_stimuli=4))
        set_context(plan.context)
        try:
            gate = _run_gate_unit(plan.units[0].payload)
        finally:
            set_context(None)
        spans = {"spans": [{"name": "engine.unit"}], "metrics": {"n": 1}}
        results = [
            UnitResult("epr/vectoradd/WV/00000+2", "epr", ok=True, value=epr,
                       elapsed=0.25, cache_hits=1, obs=spans),
            UnitResult(plan.units[0].unit_id, "gate", ok=True, value=gate,
                       retries=1, cache_misses=2, obs=spans),
            UnitResult("gate/decoder/00001", "gate", ok=False,
                       error="Traceback ...\nValueError: boom", retries=2,
                       elapsed=0.5),
        ]
        assert gate["records"] and epr["outcomes"]
        for r in results:
            want = dataclasses.asdict(r)
            want.pop("obs")
            got = r.to_json()
            assert got == want
            assert json.dumps(got) == json.dumps(want)
            assert "obs" not in got

    def test_fingerprint_guard(self, tmp_path):
        store = CampaignStore(tmp_path / "c")
        store.write_manifest("epr", {"seed": 1}, total_units=1)
        store.check_fingerprint("epr", {"seed": 1})
        with pytest.raises(ConfigError):
            store.check_fingerprint("epr", {"seed": 2})
        assert config_fingerprint("epr", {"seed": 1}) != \
            config_fingerprint("epr", {"seed": 2})

    def test_status_requires_manifest(self, tmp_path):
        with pytest.raises(ConfigError):
            CampaignStore(tmp_path / "empty").status()


class TestGoldenCache:
    def test_content_addressed_and_hit_counted(self):
        GOLDEN_CACHE.clear()
        a = GOLDEN_CACHE.get("vectoradd", "tiny", 1)
        b = GOLDEN_CACHE.get("vectoradd", "tiny", 1)
        assert a is b
        assert a.key == golden_key("vectoradd", "tiny", 1)
        assert len(a.digest) == 64
        assert GOLDEN_CACHE.stats() == (1, 1)
        c = GOLDEN_CACHE.get("vectoradd", "tiny", 2)  # different seed
        assert c.key != a.key
        assert GOLDEN_CACHE.misses == 2

    def test_campaign_hit_rate_above_90pct(self):
        GOLDEN_CACHE.clear()
        cfg = SwCampaignConfig(apps=("vectoradd",),
                               models=(ErrorModel.WV, ErrorModel.IIO),
                               injections_per_model=10, scale="tiny",
                               processes=1)
        spec = get_spec("epr")
        plan = spec.build(spec.config_of(cfg, chunk=1))
        results = execute(plan.units, EngineConfig(processes=1))
        # the plan's warm-up miss counts against the rate
        assert fold_results(results, plan.warm_stats)["cache_hit_rate"] > 0.9
        # one golden compute per (app, scale, seed), never per injection
        assert GOLDEN_CACHE.misses == 1


class TestEprDeterminism:
    def test_worker_count_does_not_change_epr(self):
        base = dict(apps=("vectoradd",), injections_per_model=6,
                    scale="tiny", models=(ErrorModel.WV, ErrorModel.IRA))
        serial = run_epr_campaign(SwCampaignConfig(**base, processes=1))
        pooled = run_epr_campaign(SwCampaignConfig(**base, processes=3))
        for m in base["models"]:
            assert serial.counts("vectoradd", m) == \
                pooled.counts("vectoradd", m)
        assert serial.overall_epr() == pooled.overall_epr()

    def test_chunking_does_not_change_epr(self):
        cfg = SwCampaignConfig(apps=("vectoradd",),
                               models=(ErrorModel.IAT,),
                               injections_per_model=6, scale="tiny",
                               processes=1)
        a = run_epr_campaign(cfg, chunk=1)
        b = run_epr_campaign(cfg, chunk=6)
        assert a.counts("vectoradd", ErrorModel.IAT) == \
            b.counts("vectoradd", ErrorModel.IAT)


class TestEprResume:
    CFG = dict(apps=("vectoradd",), injections_per_model=6, scale="tiny",
               models=(ErrorModel.WV, ErrorModel.IMS))

    def test_interrupt_then_resume_matches_fresh(self, tmp_path):
        cfg = SwCampaignConfig(**self.CFG, processes=1)
        store = CampaignStore(tmp_path / "campaign")

        partial = run_epr_campaign(cfg, store=store, max_units=2, chunk=2)
        assert len(partial.outcomes) == 4  # 2 units x 2 injections
        assert len(store.completed_ids()) == 2
        assert store.load_manifest()["total_units"] == 6

        resumed = run_epr_campaign(cfg, store=store, chunk=2)
        fresh = run_epr_campaign(cfg, chunk=2)
        assert len(resumed.outcomes) == len(fresh.outcomes) == 12
        for m in cfg.models:
            assert resumed.counts("vectoradd", m) == \
                fresh.counts("vectoradd", m)
        assert resumed.overall_epr() == fresh.overall_epr()

    def test_store_with_retired_prune_keys_resumes(self, tmp_path):
        # older versions wrote a static_prune config key and per-unit and
        # per-outcome pruned keys; resume and aggregate ignore them
        from repro.campaign.__main__ import main

        spec = get_spec("epr")
        config = spec.default_config(apps=["vectoradd"], models=["WV"],
                                     injections_per_model=4, chunk=2,
                                     static_prune=True)
        plan = spec.build(config)
        store = CampaignStore(tmp_path / "old")
        store.write_manifest("epr", plan.config, len(plan.units))
        first = plan.units[0]
        r = execute([first], EngineConfig(processes=1))[first.unit_id]
        r.value["pruned"] = 0
        for o in r.value["outcomes"]:
            o["pruned"] = False
        store.append_result(r)

        assert main(["resume", "--dir", str(store.directory),
                     "--serial"]) == 0
        resumed = spec.aggregate(plan.config, store.load_results())
        fresh = run_epr_campaign(SwCampaignConfig(
            apps=("vectoradd",), models=(ErrorModel.WV,),
            injections_per_model=4, processes=1), chunk=2)
        assert [(o.outcome, o.activations) for o in resumed.outcomes] == \
            [(o.outcome, o.activations) for o in fresh.outcomes]

    def test_resume_skips_completed_units(self, tmp_path):
        cfg = SwCampaignConfig(**self.CFG, processes=1)
        store = CampaignStore(tmp_path / "campaign")
        run_epr_campaign(cfg, store=store, chunk=2)
        before = store.results_path.read_text()
        spec = get_spec("epr")
        plan = spec.build(spec.config_of(cfg, chunk=2))
        executed = execute(plan.units, EngineConfig(processes=1), store=store)
        assert fold_results(executed)["units"] == 0  # nothing re-executed
        run_epr_campaign(cfg, store=store, chunk=2)
        assert store.results_path.read_text() == before

    def test_ledger_independent_of_workers_and_resume(self, tmp_path):
        spec = get_spec("epr")
        plan = spec.build(spec.default_config(
            apps=["vectoradd"], models=["WV", "IAT"],
            injections_per_model=4, chunk=2, scale="tiny"))
        serial = fold_results(execute(plan.units, EngineConfig(processes=1)))
        pooled = fold_results(execute(plan.units, EngineConfig(processes=2)))
        store = CampaignStore(tmp_path / "campaign")
        store.write_manifest(plan.kind, plan.config, len(plan.units))
        execute(plan.units, EngineConfig(processes=1, max_units=1),
                store=store)
        assert store.status()["units"] == 1
        execute(plan.units, EngineConfig(processes=1), store=store)
        resumed = store.status()
        for key in ("units", "items", "failed_units", "accel"):
            assert serial[key] == pooled[key] == resumed[key], key
        assert serial["units"] == len(plan.units)
        assert serial["accel"]["saved_instructions"] > 0

    def test_truncated_results_requeue_units(self, tmp_path):
        cfg = SwCampaignConfig(**self.CFG, processes=1)
        store = CampaignStore(tmp_path / "campaign")
        run_epr_campaign(cfg, store=store, chunk=2)
        fresh = run_epr_campaign(cfg, chunk=2)
        lines = store.results_path.read_text().splitlines()
        store.results_path.write_text("\n".join(lines[:-2]) + "\n")
        resumed = run_epr_campaign(cfg, store=store, chunk=2)
        for m in cfg.models:
            assert resumed.counts("vectoradd", m) == \
                fresh.counts("vectoradd", m)


class TestGateOnEngine:
    def test_store_resume_matches_plain_run(self, tmp_path):
        spec = get_spec("gate")
        config = spec.default_config(
            unit="decoder", max_faults=256, max_stimuli=8, words=1,
            stimuli_per_workload=4)  # several small batches
        plain = run_campaign(spec, config, EngineConfig(processes=1))

        store = CampaignStore(tmp_path / "gate")
        partial = run_campaign(spec, config,
                               EngineConfig(processes=1, max_units=2),
                               store=store)
        assert partial.total_faults < plain.total_faults
        resumed = run_campaign(spec, config, EngineConfig(processes=1),
                               store=store)
        assert resumed.category_counts() == plain.category_counts()
        assert resumed.faults_per_error() == plain.faults_per_error()

    def test_spec_aggregate_reports_replayed_stimuli(self):
        # max_stimuli above the profiled count: the aggregate must report
        # the stimuli the units replayed, not the cap
        from repro.faultinjection.campaign import GateCampaignSpec

        spec = GateCampaignSpec()
        plan = spec.build(spec.default_config(
            unit="decoder", max_faults=64, max_stimuli=200,
            stimuli_per_workload=4))
        n = len(plan.context["stimuli"])
        assert n < 200
        results = execute(plan.units, EngineConfig(processes=1),
                          context=plan.context)
        # the context is installed for the call only: no golden run
        # outlives its campaign
        assert "golden" not in get_context()
        agg = spec.aggregate(plan.config, results)
        assert agg.num_stimuli == n
        assert agg.total_faults == 64

    def test_default_config_pins_the_manifest(self):
        # the defaults come from CampaignConfig; stored gate configs (key
        # order too: manifests are written unsorted) and fingerprints
        # must not move
        import json

        from repro.campaign.store import config_fingerprint
        from repro.faultinjection.campaign import GateCampaignSpec

        base = {"unit": "decoder", "max_faults": 1024, "max_stimuli": 48,
                "words": 8, "seed": 23587, "scale": "tiny",
                "stimuli_per_workload": 16, "collapse": "none",
                "accel": True}
        for overrides, fingerprint in [
            ({}, "5e30dc81cab23cd28748f84a50a93fdd"),
            (dict(unit="wsc", max_faults=512, collapse="structural",
                  accel=False), "0be06c2ffc778d2b25f477b25178c1e1"),
            (dict(unit="fetch", words=2, seed=7, scale="small",
                  stimuli_per_workload=4), "0429435a126068bd20c9cb3af386914d"),
        ]:
            config = GateCampaignSpec().default_config(max_stimuli=None,
                                                       **overrides)
            assert json.dumps(config) == json.dumps({**base, **overrides})
            assert config_fingerprint("gate", config)[:32] == fingerprint


def _same_result(kind: str, a, b) -> None:
    """*a* and *b*, aggregates of one campaign kind, are equal."""
    if kind == "rtl-avf":
        assert a.rows == b.rows
        assert [(k, v.tobytes()) for k, v in a.syndromes.items()] == \
            [(k, v.tobytes()) for k, v in b.syndromes.items()]
    elif kind == "epr":
        assert a.outcomes == b.outcomes
    else:
        assert a == b


#: one small config per store-backed kind (several units each)
_STORED_CONFIGS = {
    "epr": dict(apps=["vectoradd"], models=["WV", "IAT"],
                injections_per_model=4, chunk=2),
    "gate": dict(unit="decoder", max_faults=192, max_stimuli=8, words=1,
                 stimuli_per_workload=4),
    "rtl-avf": dict(benches=["FADD"], input_ranges=["M"],
                    max_sites_per_module=8),
}


class TestRunCampaign:
    """``run_campaign`` is the one path from a spec to a stored result."""

    def test_store_of_another_seed_is_refused(self, tmp_path):
        base = dict(apps=("vectoradd",), models=(ErrorModel.WV,),
                    injections_per_model=2, scale="tiny", processes=1)
        store = CampaignStore(tmp_path / "epr")
        run_epr_campaign(SwCampaignConfig(**base, seed=1), store=store)
        before = store.results_path.read_text()
        with pytest.raises(ConfigError):
            run_epr_campaign(SwCampaignConfig(**base, seed=2), store=store)
        assert store.results_path.read_text() == before

    def test_spill_is_scoped_to_its_campaign(self, tmp_path):
        """A stored run spills its references into its own directory
        only: a later in-memory campaign spills nothing there."""
        from repro.campaign.goldens import CHECKPOINT_CACHE, trace_key

        # empty caches: the gemm run below must compute (and could
        # spill) its references
        GOLDEN_CACHE.clear()
        CHECKPOINT_CACHE.clear()
        base = dict(models=(ErrorModel.WV,), injections_per_model=2,
                    scale="tiny", processes=1)
        a = CampaignStore(tmp_path / "a")
        cfg = SwCampaignConfig(apps=("vectoradd",), **base)
        run_epr_campaign(cfg, store=a)
        run_epr_campaign(SwCampaignConfig(apps=("gemm",), **base))
        ident = ("vectoradd", cfg.scale, cfg.seed, cfg.mem_words)
        assert [p.name for p in (a.directory / "goldens").iterdir()] == \
            [f"{golden_key(*ident)}.npz"]
        assert [p.name for p in (a.directory / "checkpoints").iterdir()] == \
            [f"{trace_key(*ident)}.trace.npz"]
        assert GOLDEN_CACHE.disk_dir is None
        assert CHECKPOINT_CACHE.disk_dir is None

    def test_spill_gives_back_the_callers_directory(self, tmp_path):
        from repro.campaign.goldens import CHECKPOINT_CACHE

        own = tmp_path / "own"
        GOLDEN_CACHE.persist_to(own)
        try:
            run_epr_campaign(
                SwCampaignConfig(apps=("vectoradd",), models=(ErrorModel.WV,),
                                 injections_per_model=2, scale="tiny",
                                 processes=1),
                store=CampaignStore(tmp_path / "a"))
            assert GOLDEN_CACHE.disk_dir == own
            assert CHECKPOINT_CACHE.disk_dir is None
        finally:
            GOLDEN_CACHE.persist_to(None)

    @pytest.mark.parametrize("kind", sorted(_STORED_CONFIGS))
    def test_stored_run_resumes_from_the_cli(self, kind, tmp_path):
        from repro.campaign.__main__ import main

        spec = get_spec(kind)
        config = spec.default_config(**_STORED_CONFIGS[kind])
        store = CampaignStore(tmp_path / kind)
        run_campaign(spec, config, EngineConfig(processes=1, max_units=1),
                     store=store)
        total = store.load_manifest()["total_units"]
        assert len(store.completed_ids()) == 1 < total
        assert main(["resume", "--dir", str(store.directory),
                     "--serial"]) == 0
        assert len(store.completed_ids()) == total
        resumed = spec.aggregate(config, store.load_results())
        fresh = run_campaign(spec, config, EngineConfig(processes=1))
        _same_result(kind, resumed, fresh)


class TestCli:
    def test_run_resume_status_roundtrip(self, tmp_path, capsys):
        from repro.campaign.__main__ import main

        d = str(tmp_path / "cli")
        rc = main(["run", "--scale", "tiny", "--apps", "vectoradd",
                   "--models", "WV", "--injections", "4", "--chunk", "2",
                   "--interrupt-after", "1", "--serial", "--dir", d])
        assert rc == 0
        rc = main(["resume", "--dir", d, "--serial"])
        assert rc == 0
        rc = main(["status", "--dir", d])
        assert rc == 0
        out = capsys.readouterr().out
        assert '"complete": true' in out
        assert '"injections": 4' in out

    def test_resume_reuses_spilled_checkpoint_traces(self, tmp_path):
        from repro.campaign.__main__ import main
        from repro.campaign.goldens import CHECKPOINT_CACHE

        d = str(tmp_path / "cli")
        # each CLI call runs in a fresh process: caches start empty
        GOLDEN_CACHE.clear()
        CHECKPOINT_CACHE.clear()
        assert main(["run", "--scale", "tiny", "--apps", "vectoradd",
                     "--models", "WV", "--injections", "4", "--chunk", "2",
                     "--interrupt-after", "1", "--serial", "--dir", d]) == 0
        GOLDEN_CACHE.clear()
        CHECKPOINT_CACHE.clear()
        assert main(["resume", "--dir", d, "--serial"]) == 0
        assert GOLDEN_CACHE.misses == 0
        assert CHECKPOINT_CACHE.misses == 0
        assert CHECKPOINT_CACHE.disk_hits == 1

    def test_status_into_closed_pipe_prints_no_traceback(self, tmp_path):
        # ``status --dir <complete campaign> | head -1``: the reader
        # closes the pipe after one line, before the summary is written
        import subprocess
        import sys
        from pathlib import Path

        from repro.campaign.__main__ import main

        d = str(tmp_path / "gate")
        assert main(["run", "--kind", "gate", "--unit", "decoder",
                     "--max-faults", "64", "--max-stimuli", "2", "--serial",
                     "--dir", d]) == 0
        env = dict(os.environ,
                   PYTHONPATH=str(Path(__file__).parent.parent / "src"))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.campaign", "status", "--dir", d],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True)
        try:
            assert proc.stdout.readline().strip() == "{"
            proc.stdout.close()
            err = proc.stderr.read()
            rc = proc.wait(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert "Traceback" not in err, err
        assert "BrokenPipeError" not in err, err
        assert rc == 1

    def test_status_on_non_campaign_dir_errors(self, tmp_path):
        from repro.campaign.__main__ import main

        assert main(["status", "--dir", str(tmp_path / "nope")]) == 2

    def test_unknown_kind_rejected(self):
        from repro.campaign.plans import get_spec

        with pytest.raises(ConfigError):
            get_spec("nonsense")
