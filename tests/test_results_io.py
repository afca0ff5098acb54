"""The campaign directory is the one result format: a stored gate
campaign resumes from it to the result of an uninterrupted run."""

from __future__ import annotations

from repro.campaign import CampaignStore, EngineConfig, get_spec, run_campaign
from repro.faultinjection.campaign import record_to_json


class TestCheckpointing:
    """Gate campaigns resume from a :class:`CampaignStore`."""

    @staticmethod
    def _setup():
        spec = get_spec("gate")
        config = spec.default_config(
            unit="decoder", max_faults=256, max_stimuli=8, words=1,
            stimuli_per_workload=4)  # several small batches
        return spec, config

    @staticmethod
    def _same(res, plain):
        assert res.num_stimuli == plain.num_stimuli
        assert [record_to_json(r) for r in res.records] == \
            [record_to_json(r) for r in plain.records]
        assert res.category_counts() == plain.category_counts()
        assert res.faults_per_error() == plain.faults_per_error()

    def test_resume_produces_identical_result(self, tmp_path):
        spec, config = self._setup()
        serial = EngineConfig(processes=1)
        plain = run_campaign(spec, config, serial)

        store = CampaignStore(tmp_path / "gate")
        first = run_campaign(spec, config, serial, store=store)
        assert store.manifest_path.exists()
        done = store.completed_ids()
        assert len(done) == 4
        # second run on the same store executes nothing (all batches done)
        resumed = run_campaign(spec, config, serial, store=store)
        assert store.completed_ids() == done
        for res in (first, resumed):
            self._same(res, plain)

    def test_partial_checkpoint_resumes_missing_batches(self, tmp_path):
        spec, config = self._setup()
        store = CampaignStore(tmp_path / "gate")
        partial = run_campaign(spec, config,
                               EngineConfig(processes=1, max_units=3),
                               store=store)
        assert len(store.completed_ids()) == 3
        plain = run_campaign(spec, config, EngineConfig(processes=1))
        assert partial.total_faults < plain.total_faults
        resumed = run_campaign(spec, config, EngineConfig(processes=1),
                               store=store)
        self._same(resumed, plain)
