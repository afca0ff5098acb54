"""Tests for the campaign resilience layer (repro.resilience).

Covers the four pillars in-process (subprocess crash/interrupt tests
live in ``test_resilience_chaos.py``):

* integrity — sealed records, tolerant scanning, atomic writes, ENOSPC
  backoff, and the store-level torn-line / bit-flip tolerance that
  rewinds the resume frontier;
* liveness — heartbeat board, watchdog escalation, SignalGuard;
* degradation — poison-unit quarantine and the complete-with-holes
  status / exit code;
* proof — deterministic chaos decisions and verify/repair restoring a
  damaged campaign directory without losing verified-good records.
"""

from __future__ import annotations

import errno
import json
import multiprocessing
import os
import signal
import time

import pytest

from repro.campaign import CampaignStore, EngineConfig, UnitResult, WorkUnit, execute
from repro.campaign.engine import register_runner
from repro.campaign.goldens import GoldenCache
from repro.common.exceptions import ConfigError
from repro.resilience import chaos, integrity
from repro.resilience.verify import (
    normalize_record,
    repair_campaign,
    verify_campaign,
)
from repro.resilience.watchdog import (
    CampaignInterrupted,
    Heartbeats,
    SignalGuard,
    Watchdog,
)


@pytest.fixture(autouse=True)
def _chaos_off():
    """Never leak an active chaos state into other tests."""
    chaos.deactivate()
    yield
    chaos.deactivate()


@register_runner("test-resilient-echo")
def _echo(payload: dict) -> dict:
    return {"items": 1, "value": payload["x"] * 2}


@register_runner("test-always-crash")
def _always_crash(payload: dict) -> dict:
    raise ValueError(f"permanent failure in unit {payload['x']}")


@register_runner("test-signal-probe")
def _signal_probe(payload: dict) -> dict:
    """Report this process's SIGTERM/SIGINT dispositions (the pool
    initializer must have reset the parent's inherited handlers)."""
    return {"items": 1,
            "sigterm_default":
                signal.getsignal(signal.SIGTERM) == signal.SIG_DFL,
            "sigint_ignored":
                signal.getsignal(signal.SIGINT) == signal.SIG_IGN}


def _ignore_sigterm_and_sleep() -> None:
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    time.sleep(60.0)


def _units(kind: str, n: int) -> list[WorkUnit]:
    return [WorkUnit(unit_id=f"{kind}/{i:03d}", kind=kind,
                     payload={"x": i})
            for i in range(n)]


def _populated_store(tmp_path, n: int = 4) -> CampaignStore:
    store = CampaignStore(tmp_path / "campaign")
    store.write_manifest("test-resilient-echo", {"n": n}, total_units=n)
    execute(_units("test-resilient-echo", n), EngineConfig(processes=1),
            store=store)
    return store


# ---------------------------------------------------------------------
# integrity primitives
# ---------------------------------------------------------------------

class TestSealedRecords:
    def test_seal_unseal_roundtrip(self):
        body = {"unit_id": "u/1", "ok": True, "value": {"items": 3}}
        sealed = integrity.seal(body)
        assert integrity.CHECKSUM_FIELD in sealed
        out, status = integrity.unseal(sealed)
        assert status == "ok"
        assert out == body

    def test_any_flipped_bit_is_detected(self):
        sealed = integrity.seal({"a": 1, "b": "xyz"})
        line = json.dumps(sealed)
        for pos in range(len(line)):
            flipped = line[:pos] + chr(ord(line[pos]) ^ 0x4) + line[pos + 1:]
            try:
                parsed = json.loads(flipped)
            except ValueError:
                continue  # unparseable: caught by the scanner instead
            if not isinstance(parsed, dict) or parsed == sealed:
                continue
            _, status = integrity.unseal(parsed)
            if integrity.CHECKSUM_FIELD not in parsed:
                # known limit: a flip inside the checksum *key* demotes the
                # record to legacy (accepted for pre-resilience stores)
                assert status == "legacy"
            else:
                assert status == "corrupt", f"flip at {pos} went undetected"

    def test_legacy_records_accepted(self):
        body, status = integrity.unseal({"unit_id": "old", "ok": True})
        assert status == "legacy"
        assert body == {"unit_id": "old", "ok": True}

    def test_checksum_independent_of_key_order(self):
        a = integrity.record_checksum({"x": 1, "y": 2})
        b = integrity.record_checksum({"y": 2, "x": 1})
        assert a == b


class TestScanJsonl:
    def _write(self, tmp_path, text: str):
        p = tmp_path / "store.jsonl"
        p.write_text(text)
        return p

    def test_clean_file(self, tmp_path):
        lines = [json.dumps(integrity.seal({"unit_id": f"u/{i}"}))
                 for i in range(3)]
        report = integrity.scan_jsonl(
            self._write(tmp_path, "".join(ln + "\n" for ln in lines)))
        assert report.ok
        assert len(report.records) == 3
        assert report.good_lines == lines

    def test_torn_final_line(self, tmp_path):
        good = json.dumps(integrity.seal({"unit_id": "u/0"}))
        torn = json.dumps(integrity.seal({"unit_id": "u/1"}))[:17]
        report = integrity.scan_jsonl(
            self._write(tmp_path, good + "\n" + torn))
        assert [i.kind for i in report.issues] == ["torn"]
        assert [r["unit_id"] for r in report.records] == ["u/0"]

    def test_garbage_mid_file(self, tmp_path):
        good = json.dumps(integrity.seal({"unit_id": "u/0"}))
        report = integrity.scan_jsonl(
            self._write(tmp_path, good + "\n{{{not json\n" + good + "\n"))
        assert [i.kind for i in report.issues] == ["garbage"]
        assert len(report.records) == 2

    def test_checksum_mismatch_is_corrupt(self, tmp_path):
        bad = dict(integrity.seal({"unit_id": "u/0", "ok": True}))
        bad["ok"] = False  # silent in-place mutation
        report = integrity.scan_jsonl(
            self._write(tmp_path, json.dumps(bad) + "\n"))
        assert [i.kind for i in report.issues] == ["corrupt"]
        assert not report.records

    def test_missing_and_empty_files(self, tmp_path):
        assert integrity.scan_jsonl(tmp_path / "absent.jsonl").ok
        assert integrity.scan_jsonl(self._write(tmp_path, "")).ok

    def test_invalid_utf8_is_corrupt_not_a_crash(self, tmp_path):
        # a high-bit flip leaves bytes that are not valid UTF-8; the
        # scanner must classify, never raise UnicodeDecodeError
        good = json.dumps(integrity.seal({"unit_id": "u/0"}))
        bad = json.dumps(integrity.seal({"unit_id": "u/1"})).encode()
        pos = bad.index(b"u/1")  # inside a string: still parses as JSON
        bad = bad[:pos] + bytes([bad[pos] ^ 0x80]) + bad[pos + 1:]
        with pytest.raises(UnicodeDecodeError):
            bad.decode()
        p = tmp_path / "store.jsonl"
        p.write_bytes(good.encode() + b"\n" + bad + b"\n")
        report = integrity.scan_jsonl(p)
        assert [r["unit_id"] for r in report.records] == ["u/0"]
        assert [i.kind for i in report.issues] == ["corrupt"]


class TestAtomicWrites:
    def test_replace_is_all_or_nothing(self, tmp_path):
        p = tmp_path / "manifest.json"
        integrity.atomic_write_text(p, "one")
        integrity.atomic_write_text(p, "two", durable=False)
        assert p.read_text() == "two"
        assert not list(tmp_path.glob(".*tmp*"))  # no tmp droppings

    def test_enospc_backoff_retries_then_succeeds(self, tmp_path):
        chaos.configure({"enospc": 2})
        p = tmp_path / "results.jsonl"
        integrity.append_text(p, "hello\n")
        assert p.read_text() == "hello\n"
        assert chaos.ACTIVE.fired["enospc"] == 2
        assert chaos.ACTIVE.enospc_budget == 0

    def test_non_enospc_oserror_is_not_swallowed(self, tmp_path, monkeypatch):
        def boom():
            raise OSError(errno.EACCES, "nope")

        with pytest.raises(OSError):
            integrity._with_enospc_backoff(boom, what="x")


# ---------------------------------------------------------------------
# store-level tolerance (satellite: torn final line on --resume)
# ---------------------------------------------------------------------

class TestStoreTolerance:
    def test_torn_final_line_is_dropped_and_rerun(self, tmp_path):
        store = _populated_store(tmp_path, n=4)
        assert len(store.completed_ids()) == 4
        text = store.results_path.read_text()
        lines = text.splitlines()
        # crash mid-append: final line half-written, no newline
        store.results_path.write_text(
            "\n".join(lines[:-1]) + "\n" + lines[-1][: len(lines[-1]) // 2])

        completed = store.completed_ids()
        assert len(completed) == 3
        assert store.last_scan.issues[0].kind == "torn"

        # resume executes exactly the dropped unit
        results = execute(_units("test-resilient-echo", 4),
                          EngineConfig(processes=1), store=store)
        assert len(results) == 1
        assert len(store.completed_ids()) == 4

    def test_bitflipped_record_is_dropped(self, tmp_path):
        store = _populated_store(tmp_path, n=3)
        lines = store.results_path.read_text().splitlines()
        flipped = lines[1].replace('"ok": true', '"ok": frue')
        assert flipped != lines[1]
        store.results_path.write_text(
            "\n".join([lines[0], flipped, lines[2]]) + "\n")
        assert len(store.completed_ids()) == 2

    def test_records_are_sealed_on_disk(self, tmp_path):
        store = _populated_store(tmp_path, n=1)
        record = json.loads(store.results_path.read_text().splitlines()[0])
        assert record[integrity.CHECKSUM_FIELD] == \
            integrity.record_checksum(record)

    def test_manifest_backup_written(self, tmp_path):
        store = _populated_store(tmp_path, n=1)
        assert store.manifest_backup_path.exists()
        assert json.loads(store.manifest_backup_path.read_text()) == \
            store.load_manifest()

    def test_corrupt_manifest_raises_with_repair_hint(self, tmp_path):
        store = _populated_store(tmp_path, n=1)
        store.manifest_path.write_text('{"kind": "test-re')  # truncated
        with pytest.raises(ConfigError, match="repair"):
            store.load_manifest()


# ---------------------------------------------------------------------
# degradation: quarantine + complete-with-holes
# ---------------------------------------------------------------------

class TestQuarantine:
    def _run_with_crashers(self, tmp_path, n_ok=3, n_crash=1):
        units = _units("test-resilient-echo", n_ok) + \
            _units("test-always-crash", n_crash)
        store = CampaignStore(tmp_path / "campaign")
        store.write_manifest("mixed", {}, total_units=len(units))
        execute(units, EngineConfig(processes=1, retries=1, backoff=0.0),
                store=store)
        return store

    def test_exhausted_retries_land_in_quarantine(self, tmp_path):
        store = self._run_with_crashers(tmp_path)
        q = store.load_quarantine()
        assert set(q) == {"test-always-crash/000"}
        assert "retries exhausted" in q["test-always-crash/000"]["reason"]
        # not mixed into results
        assert "test-always-crash/000" not in store.load_results()

    def test_status_reports_holes(self, tmp_path):
        store = self._run_with_crashers(tmp_path)
        status = store.status()
        assert status["quarantined_units"] == 1
        assert status["completed_units"] == 3
        assert not status["complete"]
        assert status["complete_with_holes"]

    def test_resume_skips_quarantined_units(self, tmp_path):
        store = self._run_with_crashers(tmp_path)
        units = _units("test-resilient-echo", 3) + \
            _units("test-always-crash", 1)
        results = execute(units, EngineConfig(processes=1, retries=0),
                          store=store)
        assert not results  # nothing pending: 3 done + 1 quarantined

    def test_clear_quarantine_requeues(self, tmp_path):
        store = self._run_with_crashers(tmp_path)
        assert store.clear_quarantine() == 1
        assert not store.quarantined_ids()
        units = _units("test-always-crash", 1)
        results = execute(units, EngineConfig(processes=1, retries=0,
                                              backoff=0.0), store=store)
        assert set(results) == {"test-always-crash/000"}

    def test_status_cli_exit_code_3_on_holes(self, tmp_path, capsys):
        from repro.campaign.__main__ import EXIT_HOLES, main

        store = self._run_with_crashers(tmp_path)
        rc = main(["status", "--dir", str(store.directory)])
        assert rc == EXIT_HOLES
        out = capsys.readouterr().out
        assert '"quarantined_units": 1' in out
        assert '"complete_with_holes": true' in out


# ---------------------------------------------------------------------
# liveness: heartbeats, watchdog, signal guard
# ---------------------------------------------------------------------

class TestLiveness:
    def test_heartbeat_board(self):
        hb = Heartbeats(2)
        slot = hb.register()
        assert slot == 0
        hb.start(slot)
        assert not hb.stalled(older_than=60.0)
        hb._beats[slot] = time.time() - 120.0
        stalled = hb.stalled(older_than=60.0)
        assert stalled and stalled[0][0] == slot
        hb.clear(slot)
        assert not hb.stalled(older_than=60.0)

    def test_board_overflow_returns_minus_one(self):
        hb = Heartbeats(1)
        assert hb.register() == 0
        assert hb.register() == -1
        hb.start(-1)  # must be harmless
        hb.clear(-1)

    def test_watchdog_escalates_on_stalled_pid(self):
        proc = multiprocessing.get_context("fork").Process(
            target=time.sleep, args=(60.0,), daemon=True)
        proc.start()
        hb = Heartbeats(1)
        # stamp the child's pid into the board directly (the real board is
        # filled by the pool initializer running inside each worker)
        hb._pids[0] = proc.pid
        hb._beats[0] = time.time() - 100.0
        hb._next.value = 1
        escalations = []
        dog = Watchdog(hb, timeout=0.1, grace=0.05, kill_grace=0.2,
                       poll=0.05, on_escalate=lambda pid, sig:
                       escalations.append((pid, sig)))
        dog.start()
        try:
            proc.join(timeout=10.0)
            assert proc.exitcode is not None, "watchdog never fired"
        finally:
            dog.stop()
            if proc.is_alive():
                proc.kill()
                proc.join()
        assert dog.sigterms >= 1
        assert escalations and escalations[0] == (proc.pid, "SIGTERM")

    def test_watchdog_sigkills_term_ignoring_worker_and_forgets_pid(self):
        # a worker stuck ignoring SIGTERM must be SIGKILLed, and the
        # escalation entry must be dropped afterwards so a pool
        # replacement reusing the pid can be escalated again
        proc = multiprocessing.get_context("fork").Process(
            target=_ignore_sigterm_and_sleep, daemon=True)
        proc.start()
        time.sleep(0.2)  # let the child install its SIG_IGN handler
        hb = Heartbeats(1)
        hb._pids[0] = proc.pid
        hb._beats[0] = time.time() - 100.0
        hb._next.value = 1
        dog = Watchdog(hb, timeout=0.1, grace=0.05, kill_grace=0.2,
                       poll=0.05)
        dog.start()
        try:
            proc.join(timeout=10.0)
            assert proc.exitcode is not None, "watchdog never SIGKILLed"
        finally:
            dog.stop()
            if proc.is_alive():
                proc.kill()
                proc.join()
        assert dog.sigterms >= 1 and dog.sigkills >= 1
        assert not dog._termed  # pid-reuse eligibility restored

    def test_pool_workers_reset_inherited_signal_handlers(self):
        # the parent's SignalGuard handlers ride through fork(); the
        # pool initializer must restore SIGTERM=default / SIGINT=ignore
        # or Pool.terminate() and the watchdog cannot kill a worker
        results = execute(_units("test-signal-probe", 4),
                          EngineConfig(processes=2, handle_signals=True))
        assert len(results) == 4
        for r in results.values():
            assert r.ok
            assert r.value["sigterm_default"], \
                "worker inherited the parent's SIGTERM handler"
            assert r.value["sigint_ignored"]

    def test_signal_guard_captures_first_signal(self):
        with SignalGuard(signums=(signal.SIGUSR1,)) as guard:
            assert guard.active
            os.kill(os.getpid(), signal.SIGUSR1)
            deadline = time.time() + 2.0
            while not guard.requested and time.time() < deadline:
                time.sleep(0.01)
            assert guard.requested
            assert guard.signum == signal.SIGUSR1
        assert not guard.active  # handlers restored

    def test_engine_raises_interrupted_after_checkpoint(self, tmp_path):
        store = CampaignStore(tmp_path / "campaign")
        store.write_manifest("test-resilient-echo", {}, total_units=3)

        units = _units("test-resilient-echo", 3)
        fired = {"done": False}

        def interrupt_once(result):
            if not fired["done"]:
                fired["done"] = True
                os.kill(os.getpid(), signal.SIGINT)

        with pytest.raises(CampaignInterrupted) as exc:
            execute(units, EngineConfig(processes=1), store=store,
                    on_result=interrupt_once)
        assert exc.value.exit_code == 130
        assert exc.value.committed >= 1
        assert exc.value.results
        # the store holds the committed prefix and is cleanly resumable
        assert store.completed_ids() == set(exc.value.results)
        resumed = execute(units, EngineConfig(processes=1), store=store)
        assert set(store.completed_ids()) == {u.unit_id for u in units}
        assert set(resumed).isdisjoint(exc.value.results)

    def test_campaign_interrupted_exit_codes(self):
        assert CampaignInterrupted(signal.SIGINT, 1).exit_code == 130
        assert CampaignInterrupted(signal.SIGTERM, 0).exit_code == 143


# ---------------------------------------------------------------------
# chaos determinism
# ---------------------------------------------------------------------

class TestChaos:
    def test_parse_spec(self):
        assert chaos.parse_spec("kill:0.2, torn:0.1,enospc:2") == \
            {"kill": 0.2, "torn": 0.1, "enospc": 2.0}
        with pytest.raises(ConfigError):
            chaos.parse_spec("kill:lots")
        with pytest.raises(ConfigError):
            chaos.configure("meteor:1.0")

    def test_from_env(self):
        assert chaos.from_env({}) is None
        state = chaos.from_env({chaos.ENV: "torn:0.5",
                                chaos.ENV_SEED: "11"})
        assert state.faults == {"torn": 0.5}
        assert state.seed == 11

    def test_decisions_are_deterministic(self):
        line = json.dumps(integrity.seal({"unit_id": "u/7", "ok": True}))
        line += "\n"
        chaos.configure({"torn": 0.5, "bitflip": 0.5}, seed=3)
        first = [chaos.mangle_line(line, "results", f"u/{i}")
                 for i in range(50)]
        chaos.configure({"torn": 0.5, "bitflip": 0.5}, seed=3)
        second = [chaos.mangle_line(line, "results", f"u/{i}")
                  for i in range(50)]
        assert first == second
        assert any(m != line for m in first)  # something actually fired

    def test_attempt_key_spares_the_retry(self):
        # a unit killed on attempt 0 must not be deterministically killed
        # forever: the decision includes the attempt number
        chaos.configure({"kill": 0.5}, seed=1)
        state = chaos.ACTIVE
        rolls = {(uid, attempt): chaos._roll(state, "kill", uid, attempt)
                 for uid in (f"u/{i}" for i in range(20))
                 for attempt in range(3)}
        killed = [uid for (uid, att), hit in rolls.items()
                  if att == 0 and hit]
        assert killed, "seed produced no kills; test is vacuous"
        assert any(not rolls[(uid, 1)] for uid in killed)

    def test_mangled_lines_are_detected_by_scanner(self, tmp_path):
        chaos.configure({"bitflip": 1.0}, seed=5)
        line = json.dumps(integrity.seal({"unit_id": "u/0", "ok": True}))
        mangled = chaos.mangle_line(line + "\n", "results", "u/0")
        chaos.deactivate()
        p = tmp_path / "r.jsonl"
        p.write_text(mangled)
        report = integrity.scan_jsonl(p)
        assert not report.records
        assert report.issues[0].kind in ("corrupt", "garbage", "torn")

    def test_torn_mangle_loses_the_newline(self):
        chaos.configure({"torn": 1.0}, seed=0)
        out = chaos.mangle_line('{"a": 1}\n', "k")
        assert not out.endswith("\n")
        assert len(out) < len('{"a": 1}\n')

    def test_bitflip_covers_the_high_bit(self, tmp_path):
        # the flip must span all 8 bits: a bit-7 flip produces invalid
        # UTF-8 on disk, which load_results must drop, not crash on
        line = (json.dumps(integrity.seal({"unit_id": "u/0"})) + "\n"
                ).encode()
        mangled = None
        for seed in range(64):
            chaos.configure({"bitflip": 1.0}, seed=seed)
            out = chaos.mangle_bytes(line, "results", "u/0")
            try:
                out.decode("utf-8")
            except UnicodeDecodeError:
                mangled = out
                break
        assert mangled is not None, "no seed in 0..63 flipped bit 7"
        p = tmp_path / "r.jsonl"
        p.write_bytes(mangled)
        chaos.deactivate()
        report = integrity.scan_jsonl(p)
        assert not report.records
        assert report.issues[0].kind in ("corrupt", "garbage")

    def test_hooks_are_noops_when_inactive(self, tmp_path):
        line = '{"a": 1}\n'
        assert chaos.mangle_line(line, "k") is line
        chaos.fs_hook("write", tmp_path / "x")  # no raise
        chaos.worker_hook("u/0", 0)  # no kill in this process


# ---------------------------------------------------------------------
# verify / repair
# ---------------------------------------------------------------------

class TestVerifyRepair:
    def test_clean_directory_verifies_ok(self, tmp_path):
        store = _populated_store(tmp_path)
        report = verify_campaign(store.directory)
        assert report.ok, report.render()
        assert report.records["results.jsonl"] == 4

    def test_not_a_directory(self, tmp_path):
        assert not verify_campaign(tmp_path / "nope").ok

    def test_detects_injected_bitflip(self, tmp_path):
        store = _populated_store(tmp_path)
        lines = store.results_path.read_text().splitlines()
        lines[1] = lines[1].replace('"ok": true', '"ok": frue')
        store.results_path.write_text("\n".join(lines) + "\n")
        report = verify_campaign(store.directory)
        assert not report.ok
        kinds = {f.detail.split()[0] for f in report.findings
                 if f.severity == "error"}
        assert kinds  # the damaged line surfaced as an error finding

    def test_detects_truncated_manifest(self, tmp_path):
        store = _populated_store(tmp_path)
        full = store.manifest_path.read_text()
        store.manifest_path.write_text(full[: len(full) // 2])
        report = verify_campaign(store.directory)
        assert not report.ok
        assert any(f.file == "manifest.json" and f.severity == "error"
                   for f in report.findings)

    def test_detects_fingerprint_tamper(self, tmp_path):
        store = _populated_store(tmp_path)
        manifest = store.load_manifest()
        manifest["config"]["n"] = 999  # edited in place, stale fingerprint
        store.manifest_path.write_text(json.dumps(manifest))
        assert not verify_campaign(store.directory).ok

    def test_repair_restores_resumable_state(self, tmp_path):
        store = _populated_store(tmp_path)
        good_manifest = store.load_manifest()
        # damage 1: truncated manifest
        full = store.manifest_path.read_text()
        store.manifest_path.write_text(full[: len(full) // 2])
        # damage 2: bit-flipped record + torn final line
        lines = store.results_path.read_text().splitlines()
        lines[1] = lines[1].replace('"ok": true', '"ok": frue')
        lines[-1] = lines[-1][: len(lines[-1]) // 2]
        store.results_path.write_text("\n".join(lines))

        assert not verify_campaign(store.directory).ok
        report = repair_campaign(store.directory)
        assert report.ok, report.render()
        assert report.repaired

        after = verify_campaign(store.directory)
        assert after.ok, after.render()
        # manifest came back from the .bak shadow
        assert store.load_manifest() == good_manifest
        # verified-good records survived; the two damaged ones rewound
        assert len(store.completed_ids()) == 2
        # forensic copy of what was dropped
        rejected = store.directory / "results.rejected.jsonl"
        assert rejected.exists()
        assert len(rejected.read_text().splitlines()) == 2
        # and the campaign is resumable to completion
        execute(_units("test-resilient-echo", 4), EngineConfig(processes=1),
                store=store)
        assert len(store.completed_ids()) == 4

    def test_repair_unrecoverable_manifest_reports_error(self, tmp_path):
        store = _populated_store(tmp_path)
        store.manifest_path.write_text("{broken")
        store.manifest_backup_path.write_text("{also broken")
        report = repair_campaign(store.directory)
        assert not report.ok

    def test_repair_seals_legacy_records(self, tmp_path):
        store = _populated_store(tmp_path, n=2)
        # simulate a pre-resilience store: strip the checksums
        lines = [json.loads(ln)
                 for ln in store.results_path.read_text().splitlines()]
        for rec in lines:
            rec.pop(integrity.CHECKSUM_FIELD)
        store.results_path.write_text(
            "".join(json.dumps(r) + "\n" for r in lines))
        assert len(store.completed_ids()) == 2  # legacy accepted
        repair_campaign(store.directory)
        scan = integrity.scan_jsonl(store.results_path)
        assert scan.legacy == 0 and len(scan.records) == 2

    def test_verify_cli_exit_codes(self, tmp_path, capsys):
        from repro.campaign.__main__ import EXIT_VERIFY, main

        store = _populated_store(tmp_path)
        assert main(["verify", str(store.directory)]) == 0
        full = store.manifest_path.read_text()
        store.manifest_path.write_text(full[: len(full) // 2])
        assert main(["verify", str(store.directory)]) == EXIT_VERIFY
        assert main(["repair", str(store.directory)]) == 0
        capsys.readouterr()  # drain the human-readable reports
        assert main(["verify", str(store.directory), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True

    def test_normalize_record_drops_scheduling_noise(self):
        rec = {"unit_id": "u/0", "ok": True, "elapsed": 1.25, "retries": 2,
               integrity.CHECKSUM_FIELD: "abc", "value": {"items": 1}}
        assert normalize_record(rec) == \
            {"unit_id": "u/0", "ok": True, "value": {"items": 1}}


# ---------------------------------------------------------------------
# golden cache disk spill
# ---------------------------------------------------------------------

class TestGoldenDiskSpill:
    def test_spill_and_reload_across_cache_instances(self, tmp_path):
        a = GoldenCache()
        a.persist_to(tmp_path / "goldens")
        run = a.get("vectoradd", "tiny", 1)
        assert a.misses == 1
        assert list((tmp_path / "goldens").glob("*.npz"))

        b = GoldenCache()  # fresh process, same directory
        b.persist_to(tmp_path / "goldens")
        reloaded = b.get("vectoradd", "tiny", 1)
        assert b.misses == 0 and b.disk_hits == 1
        assert reloaded.digest == run.digest
        assert reloaded.dynamic_instructions == run.dynamic_instructions
        assert (reloaded.bits == run.bits).all()

    def test_corrupt_entry_recomputed_and_rewritten(self, tmp_path):
        a = GoldenCache()
        a.persist_to(tmp_path / "goldens")
        run = a.get("vectoradd", "tiny", 1)
        path = next((tmp_path / "goldens").glob("*.npz"))
        path.write_bytes(b"not an npz file at all")

        b = GoldenCache()
        b.persist_to(tmp_path / "goldens")
        recomputed = b.get("vectoradd", "tiny", 1)
        assert b.disk_rejects == 1 and b.misses == 1
        assert recomputed.digest == run.digest
        # rewritten entry is valid again
        c = GoldenCache()
        c.persist_to(tmp_path / "goldens")
        c.get("vectoradd", "tiny", 1)
        assert c.disk_hits == 1 and c.disk_rejects == 0

    def test_verify_flags_and_repair_removes_corrupt_goldens(self, tmp_path):
        store = _populated_store(tmp_path)
        gdir = store.directory / "goldens"
        gdir.mkdir()
        cache = GoldenCache()
        cache.persist_to(gdir)
        cache.get("vectoradd", "tiny", 1)
        bad = gdir / "deadbeef.npz"
        bad.write_bytes(b"garbage")

        report = verify_campaign(store.directory)
        assert report.ok  # goldens are warnings, not errors
        assert any(f.file.endswith("deadbeef.npz") for f in report.findings)
        assert report.records["goldens"] == 1

        repair_campaign(store.directory)
        assert not bad.exists()
        assert len(list(gdir.glob("*.npz"))) == 1
