"""Tests for the unified observability layer (repro.obs).

Covers the guarantees the instrumented campaigns rely on:

* span nesting and parent ids, and capture/absorb merging across
  process boundaries (fork-pool workers);
* lossless counter snapshot diff/merge;
* chrome-trace export schema validity (Perfetto-loadable);
* no-op mode: with observability disabled, campaign results are
  byte-identical to a repo without the instrumentation (no ``obs`` key
  in ``results.jsonl``, no sink files created);
* the structured logger's text/json/quiet modes.
"""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.campaign import CampaignStore
from repro.errormodels.models import ErrorModel
from repro.obs import log, metrics, sinks
from repro.obs.__main__ import trace_vs_ledger
from repro.obs.metrics import (
    Counter,
    MetricsRegistry,
    labelkey,
    parse_labelkey,
)
from repro.obs.trace import NULL_SPAN, Recorder
from repro.swinjector import SwCampaignConfig, run_epr_campaign


@pytest.fixture(autouse=True)
def _isolated_obs():
    """Every test starts and ends with a clean, disabled obs state."""
    obs.reset()
    yield
    obs.reset()


def _enabled():
    obs.enable()
    return obs.RECORDER


# ---------------------------------------------------------------------
# tracing spans
# ---------------------------------------------------------------------

class TestSpans:
    def test_disabled_span_is_shared_noop(self):
        assert obs.span("anything", key="value") is NULL_SPAN
        with obs.span("still.noop"):
            pass
        assert obs.RECORDER.records() == []

    def test_span_records_on_exit(self):
        _enabled()
        with obs.span("outer", app="gemm"):
            pass
        (rec,) = obs.RECORDER.records()
        assert rec["name"] == "outer"
        assert rec["type"] == "span"
        assert rec["attrs"] == {"app": "gemm"}
        assert rec["dur"] >= 0
        assert rec["parent"] is None

    def test_nesting_sets_parent_ids(self):
        _enabled()
        with obs.span("outer") as outer:
            with obs.span("middle") as middle:
                with obs.span("inner"):
                    pass
        by_name = {r["name"]: r for r in obs.RECORDER.records()}
        assert by_name["inner"]["parent"] == middle.span_id
        assert by_name["middle"]["parent"] == outer.span_id
        assert by_name["outer"]["parent"] is None

    def test_exception_is_recorded_and_propagates(self):
        _enabled()
        with pytest.raises(ValueError):
            with obs.span("boom"):
                raise ValueError("expected")
        (rec,) = obs.RECORDER.records()
        assert rec["error"] == "ValueError"

    def test_event_attaches_to_current_span(self):
        _enabled()
        with obs.span("parent") as parent:
            obs.event("unit.retry", unit="epr/x/1")
        events = [r for r in obs.RECORDER.records() if r["type"] == "event"]
        (ev,) = events
        assert ev["parent"] == parent.span_id
        assert ev["attrs"] == {"unit": "epr/x/1"}


class TestRecorder:
    def test_ring_drops_oldest(self):
        rec = Recorder(capacity=3)
        for i in range(5):
            rec.add({"i": i})
        assert [r["i"] for r in rec.records()] == [2, 3, 4]
        assert rec.dropped == 2
        assert rec.appended == 5

    def test_mark_since_window(self):
        rec = Recorder(capacity=10)
        rec.add({"i": 0})
        mark = rec.mark()
        rec.add({"i": 1})
        rec.add({"i": 2})
        assert [r["i"] for r in rec.since(mark)] == [1, 2]
        assert rec.since(rec.mark()) == []

    def test_drain_empties_buffer(self):
        rec = Recorder(capacity=10)
        rec.add({"i": 0})
        assert len(rec.drain()) == 1
        assert rec.records() == []

    def test_span_ids_embed_pid(self):
        import os

        rec = Recorder()
        assert rec.next_id().startswith(f"{os.getpid():x}.")


# ---------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------

class TestMetrics:
    def test_labelkey_roundtrip(self):
        labels = {"model": "WV", "app": "gemm"}
        key = labelkey(labels)
        assert key == "app=gemm,model=WV"  # sorted keys
        assert parse_labelkey(key) == labels
        assert parse_labelkey("") == {}

    def test_counter_disabled_is_noop(self):
        c = Counter("x")
        c.inc(5, model="WV")
        assert c.total() == 0

    def test_counter_labels_and_total(self):
        _enabled()
        c = Counter("injections")
        c.inc(model="WV", outcome="sdc")
        c.inc(2, model="WV", outcome="masked")
        c.inc(model="IIO", outcome="sdc")
        assert c.value(model="WV", outcome="sdc") == 1
        assert c.value(model="WV", outcome="masked") == 2
        assert c.total() == 4

    def test_snapshot_diff_is_a_delta(self):
        _enabled()
        reg = MetricsRegistry()
        c = reg.counter("n")
        c.inc(3, k="a")
        before = reg.snapshot()
        c.inc(2, k="a")
        c.inc(1, k="b")
        reg.counter("new").inc(4)
        reg.counter("idle")
        delta = metrics.diff(before, reg.snapshot())
        assert delta == {"counters": {"n": {"k=a": 2, "k=b": 1},
                                      "new": {"": 4}}}

    def test_merge_folds_worker_delta(self):
        _enabled()
        reg = MetricsRegistry()
        reg.counter("n").inc(3, k="a")
        reg.counter("m").inc(1)
        snap = reg.snapshot()
        reg2 = MetricsRegistry()
        reg2.counter("n").inc(1, k="a")
        reg2.merge(snap)
        assert reg2.counter("n").value(k="a") == 4
        assert reg2.counter("m").total() == 1

    def test_merge_snapshots_is_cumulative(self):
        _enabled()
        reg = MetricsRegistry()
        reg.counter("n").inc(2)
        a = reg.snapshot()
        merged = metrics.merge_snapshots(a, a)
        assert merged["counters"]["n"][""] == 4

    def test_registry_reset_keeps_handles_valid(self):
        _enabled()
        c = obs.REGISTRY.counter("keepme")
        c.inc(7)
        obs.REGISTRY.reset()
        assert c.total() == 0
        c.inc(1)
        assert obs.REGISTRY.counter("keepme").total() == 1


# ---------------------------------------------------------------------
# capture / absorb (cross-process merge protocol)
# ---------------------------------------------------------------------

class TestCaptureAbsorb:
    def test_capture_window_collects_spans_and_metrics(self):
        _enabled()
        token = obs.capture_begin()
        with obs.span("unit.work"):
            obs.REGISTRY.counter("worked").inc(3)
        payload = obs.capture_end(token)
        assert [r["name"] for r in payload["spans"]] == ["unit.work"]
        assert payload["metrics"]["counters"]["worked"][""] == 3

    def test_same_pid_payload_is_skipped(self):
        """Serial execution: the payload is already local state."""
        _enabled()
        token = obs.capture_begin()
        obs.REGISTRY.counter("serial").inc(1)
        payload = obs.capture_end(token)
        obs.absorb(payload)  # same pid -> must not double count
        assert obs.REGISTRY.counter("serial").total() == 1

    def test_foreign_pid_payload_merges(self):
        _enabled()
        payload = {
            "pid": -1,  # never a real pid
            "spans": [{"type": "span", "name": "w", "ts": 0.0, "dur": 0.1,
                       "pid": -1, "tid": 1, "id": "-1.1", "parent": None}],
            "metrics": {"counters": {"foreign": {"": 5}}},
        }
        obs.absorb(payload)
        assert obs.REGISTRY.counter("foreign").total() == 5
        assert any(r["name"] == "w" for r in obs.RECORDER.records())

    def test_disabled_capture_is_none(self):
        assert obs.capture_begin() is None
        assert obs.capture_end(None) is None
        obs.absorb(None)  # must not raise


# ---------------------------------------------------------------------
# sinks + chrome trace
# ---------------------------------------------------------------------

class TestSinks:
    def test_flush_writes_and_drains(self, tmp_path):
        _enabled()
        with obs.span("s"):
            obs.REGISTRY.counter("c").inc(2)
        paths = obs.flush(tmp_path)
        assert (tmp_path / sinks.EVENTS_NAME).exists()
        assert (tmp_path / sinks.METRICS_NAME).exists()
        assert paths["events"].endswith(sinks.EVENTS_NAME)
        # drained: a second flush appends nothing new
        n = len(sinks.read_events(tmp_path))
        obs.flush(tmp_path)
        assert len(sinks.read_events(tmp_path)) == n

    def test_flush_merges_metrics_across_runs(self, tmp_path):
        _enabled()
        obs.REGISTRY.counter("c").inc(2)
        obs.flush(tmp_path)
        obs.REGISTRY.counter("c").inc(3)
        obs.flush(tmp_path)
        data = sinks.read_metrics(tmp_path)
        assert data["counters"]["c"][""] == 5

    def test_chrome_trace_schema(self, tmp_path):
        _enabled()
        with obs.span("outer", app="gemm"):
            with obs.span("inner"):
                pass
            obs.event("marker", note="hi")
        obs.flush(tmp_path)
        trace_path = sinks.export_trace(tmp_path)
        assert sinks.validate_chrome_trace(trace_path) == []
        data = json.loads(trace_path.read_text())
        events = data["traceEvents"]
        assert all({"ph", "ts", "pid"} <= set(ev) for ev in events)
        complete = [ev for ev in events if ev["ph"] == "X"]
        assert {ev["name"] for ev in complete} == {"outer", "inner"}
        assert all("dur" in ev for ev in complete)
        assert any(ev["ph"] == "i" and ev["name"] == "marker"
                   for ev in events)
        assert any(ev["ph"] == "M" for ev in events)

    def test_validate_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json at all {")
        assert sinks.validate_chrome_trace(bad)
        bad.write_text(json.dumps({"traceEvents": [{"name": "x"}]}))
        assert sinks.validate_chrome_trace(bad)


# ---------------------------------------------------------------------
# campaign integration
# ---------------------------------------------------------------------

_CFG = dict(apps=("vectoradd",), models=(ErrorModel.WV, ErrorModel.IIO),
            injections_per_model=4, scale="tiny", seed=11)


class TestCampaignIntegration:
    def test_trace_matches_ledger(self, tmp_path):
        """One ``engine.unit`` span per stored unit and one ``epr.inject``
        span per injection not collapsed onto an identical one."""
        _enabled()
        store = CampaignStore(tmp_path / "traced")
        run_epr_campaign(SwCampaignConfig(**_CFG, processes=1),
                         store=store, chunk=2)
        records = sinks.read_events(store.directory)
        results = store.load_results()
        ledger = store.status()
        assert ledger["items"] == 8
        assert ledger["accel"]["collapsed"] == 2  # the subtraction matters
        units = [r["attrs"]["unit"] for r in records
                 if r["name"] == "engine.unit"]
        assert sorted(units) == sorted(results)
        injects = [r for r in records if r["name"] == "epr.inject"]
        assert len(injects) == 8 - 2
        assert trace_vs_ledger(records, results, ledger) == []
        one_dropped = [r for r in records if r is not injects[0]]
        assert trace_vs_ledger(one_dropped, results, ledger)

    def test_traced_campaign_spans_cover_all_layers(self, tmp_path):
        _enabled()
        store = CampaignStore(tmp_path / "traced")
        run_epr_campaign(SwCampaignConfig(**_CFG, processes=1),
                         store=store, chunk=2)
        names = {r["name"] for r in sinks.read_events(store.directory)}
        assert {"engine.wave", "engine.unit", "epr.unit", "epr.inject",
                "gpusim.launch"} <= names
        trace_path = sinks.export_trace(store.directory)
        assert sinks.validate_chrome_trace(trace_path) == []

    def test_pool_workers_merge_into_parent(self, tmp_path):
        """Fork workers' spans and counters surface in the parent's
        sinks: from the same warm caches, a pooled run counts as many
        simulated instructions as a serial one."""
        import os

        run_epr_campaign(SwCampaignConfig(**_CFG, processes=1), chunk=2)
        _enabled()
        counted = {}
        for processes in (1, 2):
            store = CampaignStore(tmp_path / f"p{processes}")
            run_epr_campaign(SwCampaignConfig(**_CFG, processes=processes),
                             store=store, chunk=2)
            data = sinks.read_metrics(store.directory)
            counted[processes] = sum(
                data["counters"]["sim_instructions_total"].values())
        assert counted[1] > 0
        assert counted[2] == counted[1]
        assert any(r["name"] == "epr.inject" and r["pid"] != os.getpid()
                   for r in sinks.read_events(store.directory))

    def test_disabled_mode_results_are_byte_identical(self, tmp_path):
        """With obs off, results.jsonl must carry no observability state
        and no sink files may appear (pre-instrumentation layout)."""
        assert not obs.enabled()
        store = CampaignStore(tmp_path / "plain")
        run_epr_campaign(SwCampaignConfig(**_CFG, processes=1),
                         store=store, chunk=2)
        lines = [json.loads(line) for line in
                 store.results_path.read_text().splitlines() if line]
        assert lines
        for doc in lines:
            assert "obs" not in doc
        assert not (store.directory / sinks.EVENTS_NAME).exists()
        assert not (store.directory / sinks.METRICS_NAME).exists()

    def test_disabled_vs_enabled_same_outcomes(self, tmp_path):
        cfg = SwCampaignConfig(**_CFG, processes=1)
        plain = run_epr_campaign(cfg, chunk=2)
        _enabled()
        traced = run_epr_campaign(cfg, chunk=2)
        assert [o.outcome for o in plain.outcomes] == \
            [o.outcome for o in traced.outcomes]


# ---------------------------------------------------------------------
# structured logger
# ---------------------------------------------------------------------

@pytest.fixture()
def _fresh_log():
    yield
    log.configure("text", force=True)


class TestLog:
    def test_text_mode_renders_fields(self, capsys, _fresh_log):
        log.configure("text", force=True)
        log.info("campaign done", items=42)
        out = capsys.readouterr().out
        assert "campaign done" in out
        assert "items=42" in out

    def test_json_mode_emits_json_lines(self, capsys, _fresh_log):
        log.configure("json", force=True)
        log.info("campaign done", items=42)
        doc = json.loads(capsys.readouterr().out.strip())
        assert doc["msg"] == "campaign done"
        assert doc["items"] == 42
        assert doc["level"] == "info"

    def test_quiet_mode_suppresses_info(self, capsys, _fresh_log):
        log.configure("quiet", force=True)
        log.info("should not appear")
        log.warning("should appear")
        out = capsys.readouterr().out
        assert "should not appear" not in out
        assert "should appear" in out
