"""Round-trip tests for campaign-result serialization."""

from __future__ import annotations

import pytest

from repro.errormodels.models import ErrorModel
from repro.faultinjection import CampaignConfig, run_gate_campaign
from repro.faultinjection.results import load_result, save_result
from repro.profiling import stimuli_from_program
from repro.swinjector import SwCampaignConfig, run_epr_campaign
from repro.workloads import get_workload


@pytest.fixture(scope="module")
def gate_result():
    w = get_workload("vectoradd", scale="tiny")
    stimuli = stimuli_from_program(w.program())
    return run_gate_campaign(
        CampaignConfig(unit="decoder", max_faults=128, max_stimuli=8),
        stimuli)


@pytest.fixture(scope="module")
def epr_result():
    cfg = SwCampaignConfig(apps=("vectoradd",), injections_per_model=4,
                           scale="tiny",
                           models=(ErrorModel.WV, ErrorModel.IIO))
    return run_epr_campaign(cfg)


class TestGateResultIO:
    def test_roundtrip_preserves_rates(self, gate_result, tmp_path):
        p = tmp_path / "gate.json"
        save_result(gate_result, p)
        back = load_result(p)
        assert back.unit == gate_result.unit
        assert back.category_counts() == gate_result.category_counts()
        assert back.fapr() == gate_result.fapr()
        assert back.times_produced() == gate_result.times_produced()


class TestEprResultIO:
    def test_roundtrip_preserves_epr(self, epr_result, tmp_path):
        p = tmp_path / "epr.json"
        save_result(epr_result, p)
        back = load_result(p)
        for m in epr_result.config.models:
            assert back.epr("vectoradd", m) == epr_result.epr("vectoradd", m)
        assert back.overall_epr() == epr_result.overall_epr()


class TestErrors:
    def test_unknown_payload_rejected(self, tmp_path):
        p = tmp_path / "x.json"
        p.write_text('{"kind": "mystery"}')
        with pytest.raises(ValueError):
            load_result(p)

    def test_wrong_type_rejected(self, tmp_path):
        with pytest.raises(TypeError):
            save_result({"not": "a result"}, tmp_path / "y.json")


class TestCheckpointing:
    """Gate campaigns resume from a :class:`CampaignStore`."""

    @staticmethod
    def _setup():
        from repro.faultinjection import CampaignConfig
        from repro.profiling import stimuli_from_program
        from repro.workloads import get_workload

        w = get_workload("vectoradd", scale="tiny")
        stimuli = stimuli_from_program(w.program())
        cfg = CampaignConfig(unit="decoder", max_faults=256, max_stimuli=8,
                             words=1, processes=1)  # several small batches
        return cfg, stimuli

    @staticmethod
    def _same(res, plain):
        from repro.faultinjection.campaign import record_to_json

        assert res.num_stimuli == plain.num_stimuli
        assert [record_to_json(r) for r in res.records] == \
            [record_to_json(r) for r in plain.records]
        assert res.category_counts() == plain.category_counts()
        assert res.faults_per_error() == plain.faults_per_error()

    def test_resume_produces_identical_result(self, tmp_path):
        from repro.campaign.store import CampaignStore

        cfg, stimuli = self._setup()
        plain = run_gate_campaign(cfg, stimuli)

        store = CampaignStore(tmp_path / "gate")
        first = run_gate_campaign(cfg, stimuli, store=store)
        assert store.manifest_path.exists()
        done = store.completed_ids()
        assert len(done) == 4
        # second run on the same store executes nothing (all batches done)
        resumed = run_gate_campaign(cfg, stimuli, store=store)
        assert store.completed_ids() == done
        for res in (first, resumed):
            self._same(res, plain)

    def test_partial_checkpoint_resumes_missing_batches(self, tmp_path):
        from repro.campaign.store import CampaignStore

        cfg, stimuli = self._setup()
        store = CampaignStore(tmp_path / "gate")
        partial = run_gate_campaign(cfg, stimuli, store=store, max_units=3)
        assert len(store.completed_ids()) == 3
        plain = run_gate_campaign(cfg, stimuli)
        assert partial.total_faults < plain.total_faults
        resumed = run_gate_campaign(cfg, stimuli, store=store)
        self._same(resumed, plain)
