"""Tests for the experiment drivers and report formatting."""

from __future__ import annotations

import pytest

from repro.analysis import ExperimentReport, format_table
from repro.experiments import (
    run_fig_avf,
    run_fig_avg_epr,
    run_sensitivity_study,
    run_tab_apps,
    run_tab_area,
    run_tab_hw_fault_rate,
    run_tab_tmxm_patterns,
)


class TestFormatting:
    def test_format_table_alignment(self):
        rows = [{"a": 1, "b": "xy"}, {"a": 23, "b": "z"}]
        text = format_table(rows)
        lines = text.splitlines()
        assert lines[0].startswith("a")
        assert len(lines) == 4

    def test_format_empty(self):
        assert format_table([]) == "(empty)"

    def test_report_render(self):
        r = ExperimentReport("T9", "demo", rows=[{"x": 1.5}],
                             paper_expectation="x around 1.5",
                             notes=["scaled"])
        out = r.render()
        assert "T9" in out and "paper:" in out and "note: scaled" in out


class TestCheapDrivers:
    def test_tab_apps(self):
        rep = run_tab_apps()
        assert len(rep.rows) == 15
        assert rep.rows[0]["app"] == "vectoradd"

    def test_tab_area(self):
        rep = run_tab_area(scale="tiny", per_workload=8)
        units = {r["unit"]: r for r in rep.rows}
        assert units["FP32 unit"]["pct_of_fp32_core"] == 100.0
        assert units["WSC"]["pct_of_fp32_core"] > units["Decoder"][
            "pct_of_fp32_core"]
        assert 0 < units["FP32 unit"]["utilization_%"] < 100
        assert units["WSC"]["utilization_%"] == 100.0


class TestSensitivity:
    def test_rows_are_pinned(self):
        """S1's outcomes on tiny vectoradd (cold replay, 3M watchdog)."""
        rep = run_sensitivity_study()
        assert [(r["sweep"], r["value"], r["outcome"]) for r in rep.rows] == [
            ("IIO bit position", 0, "due"),
            ("IIO bit position", 4, "sdc"),
            ("IIO bit position", 8, "sdc"),
            ("IIO bit position", 16, "sdc"),
            ("IIO bit position", 24, "due"),
            ("IIO bit position", 30, "due"),
            ("IAT victim threads", 1, "sdc"),
            ("IAT victim threads", 2, "sdc"),
            ("IAT victim threads", 8, "masked"),
            ("IAT victim threads", 16, "masked"),
            ("IAT victim threads", 31, "sdc"),
            ("IAW index bit", 0, "masked"),
            ("IAW index bit", 2, "masked"),
            ("IAW index bit", 4, "masked"),
            ("IAW index bit", 5, "sdc"),
            ("IAW index bit", 6, "sdc"),
        ]


class TestScaledDrivers:
    @pytest.fixture(scope="class")
    def fig_avf(self):
        return run_fig_avf(max_sites=40, values_per_range=1)

    def test_fig_avf_structure(self, fig_avf):
        assert fig_avf.experiment_id == "F3"
        benches = {r["instr"] for r in fig_avf.rows}
        assert {"IADD", "FADD", "FSIN", "GLD", "BRA"} <= benches
        for r in fig_avf.rows:
            total = (r["avf_sdc_single_%"] + r["avf_sdc_multi_%"]
                     + r["avf_due_%"])
            assert 0.0 <= total <= 100.0

    def test_tab_hw_fault_rate(self):
        rep = run_tab_hw_fault_rate(max_faults=256, max_stimuli=10)
        assert len(rep.rows) == 3
        for r in rep.rows:
            total = (r["uncontrollable_%"] + r["hw_masked_%"]
                     + r["hw_hang_%"] + r["sw_errors_%"])
            assert total == pytest.approx(100.0)

    def test_tab_tmxm_patterns(self):
        rep = run_tab_tmxm_patterns(max_sites=60, values_per_type=1)
        pipeline = next(r for r in rep.rows if r["inj_site"] == "pipeline")
        assert pipeline["row"] >= pipeline["col"]

    def test_fig_avg_epr(self):
        rep = run_fig_avg_epr(injections=4, scale="tiny",
                              apps=("vectoradd", "gemm"))
        assert len(rep.rows) == 11
        ivra = next(r for r in rep.rows if r["model"] == "IVRA")
        assert ivra["due_%"] > ivra["sdc_%"]


class TestPresets:
    def test_presets_exist(self):
        from repro.presets import PAPER, PRESETS, SMALL, TINY, get_preset

        assert set(PRESETS) == {"tiny", "small", "paper"}
        assert get_preset("paper") is PAPER
        assert TINY.epr_injections < SMALL.epr_injections < \
            PAPER.epr_injections
        assert PAPER.gate_max_faults is None  # exhaustive

    def test_unknown_preset_rejected(self):
        from repro.common.exceptions import ConfigError
        from repro.presets import get_preset

        import pytest as _pytest
        with _pytest.raises(ConfigError):
            get_preset("galactic")


class TestRunAll:
    """``run_all`` drives every step inside an ``experiment`` span; one
    stub step stands in for the campaigns, with obs on and off."""

    @pytest.mark.parametrize("on", [False, True])
    def test_one_step(self, monkeypatch, on):
        from repro import obs
        from repro.experiments import runner

        report = ExperimentReport("T0", "stub", rows=[{"x": 1}])
        monkeypatch.setattr(runner, "experiment_steps",
                            lambda **kw: [("stub", lambda: report)])
        obs.reset()
        if on:
            obs.enable()
        try:
            assert runner.run_all() == [report]
            spans = [r for r in obs.RECORDER.records()
                     if r["name"] == "experiment"]
        finally:
            obs.reset()
        if on:
            (span,) = spans
            assert span["attrs"] == {"experiment": "stub"}
        else:
            assert spans == []
