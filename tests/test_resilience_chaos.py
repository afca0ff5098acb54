"""Crash-equivalence tests: kill a live campaign, resume, compare.

These are the proof obligations of the resilience layer, run against
real subprocesses:

* a campaign SIGKILLed mid-run (no cleanup whatsoever) resumes to a
  result identical — record-for-record, modulo scheduling noise — to an
  uninterrupted run, for BOTH the software-level EPR driver and the
  gate-level FAPR driver;
* SIGINT on the campaign CLI exits with code 130, leaves a verifiably
  intact store, and ``resume`` completes it to the uninterrupted result;
* the engine converges on a pool whose workers are being chaos-killed.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.campaign import (
    CampaignStore,
    EngineConfig,
    WorkUnit,
    execute,
    get_spec,
    run_campaign,
)
from repro.campaign.engine import register_runner
from repro.errormodels.models import ErrorModel
from repro.resilience import chaos
from repro.resilience.verify import normalize_record, verify_campaign
from repro.resilience.watchdog import CampaignInterrupted
from repro.swinjector import SwCampaignConfig, run_epr_campaign

REPO_ROOT = Path(__file__).resolve().parents[1]

#: fields whose values legitimately differ between a killed-and-resumed
#: run and an uninterrupted one (scheduling, not science)
_NOISE = ("elapsed", "retries", "obs", "_sum")


@pytest.fixture(autouse=True)
def _chaos_off():
    chaos.deactivate()
    yield
    chaos.deactivate()


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env.pop("REPRO_CHAOS", None)
    return env


def _spawn(code_or_argv, *args) -> subprocess.Popen:
    if isinstance(code_or_argv, str):
        argv = [sys.executable, "-c", code_or_argv, *args]
    else:
        argv = [sys.executable, *code_or_argv, *args]
    return subprocess.Popen(argv, cwd=REPO_ROOT, env=_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)


def _wait_for_results(directory: Path, n_lines: int, proc: subprocess.Popen,
                      timeout: float = 120.0) -> int:
    """Poll until results.jsonl has *n_lines* (or the process exits)."""
    results = directory / "results.jsonl"
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if results.exists():
            lines = len(results.read_text().splitlines())
            if lines >= n_lines:
                return lines
        if proc.poll() is not None:
            return (len(results.read_text().splitlines())
                    if results.exists() else 0)
        time.sleep(0.05)
    raise AssertionError(f"no progress in {directory} after {timeout}s")


def _normalized(store: CampaignStore) -> dict[str, dict]:
    return {uid: normalize_record(r.to_json(), drop=_NOISE)
            for uid, r in store.load_results().items()}


_EPR_SCRIPT = """
import sys
from repro.campaign import CampaignStore
from repro.errormodels.models import ErrorModel
from repro.swinjector import SwCampaignConfig, run_epr_campaign

cfg = SwCampaignConfig(apps=("vectoradd",),
                       models=(ErrorModel.WV, ErrorModel.IMS),
                       injections_per_model=12, scale="tiny",
                       processes=2, fail_fast=False)
run_epr_campaign(cfg, store=CampaignStore(sys.argv[1]), chunk=1)
"""

#: the gate campaign both the killed run and its references execute
_GATE_CONFIG = dict(unit="decoder", max_faults=512, max_stimuli=8, words=1,
                    stimuli_per_workload=4)

_GATE_SCRIPT = f"""
import sys
from repro.campaign import CampaignStore, EngineConfig, get_spec, run_campaign

spec = get_spec("gate")
run_campaign(spec, spec.default_config(**{_GATE_CONFIG!r}),
             EngineConfig(processes=2), store=CampaignStore(sys.argv[1]))
"""


class TestKillMinusNineAndResume:
    def _kill_mid_run(self, script: str, directory: Path,
                      after_lines: int = 2) -> None:
        proc = _spawn(script, str(directory))
        try:
            _wait_for_results(directory, after_lines, proc)
            if proc.poll() is None:
                proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

    def test_epr_campaign_survives_sigkill(self, tmp_path):
        killed_dir = tmp_path / "killed"
        self._kill_mid_run(_EPR_SCRIPT, killed_dir)
        store = CampaignStore(killed_dir)
        done_before = len(store.completed_ids())
        assert store.manifest_path.exists()

        cfg = SwCampaignConfig(apps=("vectoradd",),
                               models=(ErrorModel.WV, ErrorModel.IMS),
                               injections_per_model=12, scale="tiny",
                               processes=1, fail_fast=False)
        resumed = run_epr_campaign(cfg, store=store, chunk=1)
        assert len(store.completed_ids()) == 24
        assert len(store.completed_ids()) >= done_before

        fresh_store = CampaignStore(tmp_path / "fresh")
        fresh = run_epr_campaign(cfg, store=fresh_store, chunk=1)

        # aggregate equivalence ...
        for model in cfg.models:
            assert resumed.counts("vectoradd", model) == \
                fresh.counts("vectoradd", model)
        assert resumed.overall_epr() == fresh.overall_epr()
        # ... and record-level equivalence, modulo scheduling noise
        assert _normalized(store) == _normalized(fresh_store)

    def test_gate_campaign_survives_sigkill(self, tmp_path):
        killed_dir = tmp_path / "killed"
        self._kill_mid_run(_GATE_SCRIPT, killed_dir)
        store = CampaignStore(killed_dir)
        assert store.manifest_path.exists()

        spec = get_spec("gate")
        config = spec.default_config(**_GATE_CONFIG)
        serial = EngineConfig(processes=1)
        resumed = run_campaign(spec, config, serial, store=store)

        fresh_store = CampaignStore(tmp_path / "fresh")
        fresh = run_campaign(spec, config, serial, store=fresh_store)

        assert resumed.category_counts() == fresh.category_counts()
        assert resumed.faults_per_error() == fresh.faults_per_error()
        assert _normalized(store) == _normalized(fresh_store)


class TestSigintCli:
    def test_sigint_checkpoints_and_resumes(self, tmp_path):
        d = tmp_path / "cli"
        # 40 serial one-injection units: wide window between the first
        # committed result and campaign completion for the SIGINT to land
        # --no-accel: the interrupt window assumes cold per-injection
        # replays; the accelerated path finishes tiny units too fast for
        # the SIGINT to reliably land mid-campaign
        proc = _spawn(["-m", "repro.campaign"],
                      "run", "--scale", "tiny", "--apps", "vectoradd",
                      "--models", "WV,IMS", "--injections", "20",
                      "--chunk", "1", "--serial", "--no-accel",
                      "--dir", str(d))
        try:
            _wait_for_results(d, 1, proc)
            if proc.poll() is None:
                proc.send_signal(signal.SIGINT)
            out, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()

        store = CampaignStore(d)
        done_before = len(store.completed_ids())
        # rc 130 == the guard caught the signal mid-run and checkpointed.
        # On a loaded machine the signal can instead land after the last
        # unit committed (guard already uninstalled) — then the store
        # must be COMPLETE; any other death is a guard failure.
        interrupted = proc.returncode == 130
        if interrupted:
            assert "interrupted" in err and "resume" in err, (out, err)
            assert 0 < done_before < 40
        else:
            assert done_before == 40, (proc.returncode, out, err)
        # cooperative stop: the store is whole, not merely repairable
        report = verify_campaign(d)
        assert report.ok, report.render()

        from repro.campaign.__main__ import main

        assert main(["resume", "--dir", str(d), "--serial"]) == 0
        assert store.status()["complete"]
        assert len(store.completed_ids()) == 40

        cfg = SwCampaignConfig(apps=("vectoradd",),
                               models=(ErrorModel.WV, ErrorModel.IMS),
                               injections_per_model=20, scale="tiny",
                               processes=1, fail_fast=False, accel=False)
        fresh_store = CampaignStore(tmp_path / "fresh")
        run_epr_campaign(cfg, store=fresh_store, chunk=1)
        assert _normalized(store) == _normalized(fresh_store)


# ---------------------------------------------------------------------
# in-process signals: when a SIGINT interrupts the engine
# ---------------------------------------------------------------------

@register_runner("test-self-sigint")
def _self_sigint(payload: dict) -> dict:
    """Raises if asked to; SIGINTs its own (serial) process if asked to."""
    if payload.get("crash"):
        raise RuntimeError("synthetic failure, retried")
    if payload.get("sigint"):
        os.kill(os.getpid(), signal.SIGINT)
    return {"items": 1}


def _sigint_units(sigint_at: int, crash_at: int = -1) -> list[WorkUnit]:
    return [WorkUnit(unit_id=f"test-self-sigint/{i}", kind="test-self-sigint",
                     payload={"sigint": i == sigint_at,
                              "crash": i == crash_at})
            for i in range(4)]


class TestLateSigint:
    def test_sigint_in_the_last_unit_is_not_an_interrupt(self, tmp_path):
        store = CampaignStore(tmp_path / "campaign")
        store.write_manifest("test-self-sigint", {}, total_units=4)
        results = execute(_sigint_units(3), EngineConfig(processes=1),
                          store=store)
        assert len(results) == 4
        assert store.status()["complete"]

    def test_sigint_with_a_retry_pending_interrupts(self):
        with pytest.raises(CampaignInterrupted) as exc:
            execute(_sigint_units(3, crash_at=0),
                    EngineConfig(processes=1, backoff=0.0))
        assert exc.value.committed == 3
        assert "test-self-sigint/0" not in exc.value.results


# ---------------------------------------------------------------------
# in-process chaos: pool convergence under worker kills
# ---------------------------------------------------------------------

@register_runner("test-chaos-echo")
def _chaos_echo(payload: dict) -> dict:
    return {"items": 1, "value": payload["x"]}


def _kill_rolls(seed: float, uids: list[str], p: float):
    state = chaos.ChaosState({"kill": p}, seed=seed)
    return {(uid, attempt): chaos._roll(state, "kill", uid, attempt)
            for uid in uids for attempt in (0, 1)}


class TestPoolChaosConvergence:
    def test_killed_workers_retry_and_converge(self, tmp_path):
        uids = [f"test-chaos-echo/{i:03d}" for i in range(6)]
        # deterministically pick a seed where exactly one unit dies on
        # attempt 0 and every attempt-1 roll is clean (bounds test time
        # to a single unit-timeout wait)
        seed = next(
            s for s in range(500)
            if sum(_kill_rolls(s, uids, 0.25)[(u, 0)] for u in uids) == 1
            and not any(_kill_rolls(s, uids, 0.25)[(u, 1)] for u in uids))
        units = [WorkUnit(unit_id=uid, kind="test-chaos-echo",
                          payload={"x": i})
                 for i, uid in enumerate(uids)]
        store = CampaignStore(tmp_path / "campaign")
        store.write_manifest("test-chaos-echo", {}, total_units=len(units))

        chaos.configure({"kill": 0.25}, seed=seed)
        try:
            results = execute(units, EngineConfig(
                processes=2, timeout=5.0, retries=2, backoff=0.0,
                handle_signals=False), store=store)
        finally:
            chaos.deactivate()

        assert len(results) == 6
        assert all(r.ok for r in results.values())
        killed = [r for r in results.values() if r.retries > 0]
        assert killed, "the chaos kill never fired"
        assert store.status()["complete"]

    def test_torn_appends_rewind_only_the_torn_units(self, tmp_path):
        units = [WorkUnit(unit_id=f"test-chaos-echo/{i:03d}",
                          kind="test-chaos-echo", payload={"x": i})
                 for i in range(8)]
        store = CampaignStore(tmp_path / "campaign")
        store.write_manifest("test-chaos-echo", {}, total_units=len(units))

        chaos.configure({"torn": 0.4}, seed=9)
        try:
            execute(units, EngineConfig(processes=1, handle_signals=False),
                    store=store)
            fired = chaos.ACTIVE.fired["torn"]
        finally:
            chaos.deactivate()
        assert fired, "no torn write fired; seed is vacuous"

        # every torn record is dropped, every intact one kept
        completed = store.completed_ids()
        assert len(completed) == 8 - fired
        assert len(store.last_scan.issues) == fired

        # clean resume re-runs exactly the torn units
        resumed = execute(units, EngineConfig(processes=1,
                                              handle_signals=False),
                          store=store)
        assert len(resumed) == fired
        assert len(store.completed_ids()) == 8
        assert json.loads(
            store.results_path.read_text().splitlines()[-1])["ok"]
