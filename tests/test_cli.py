"""Tests for the command-line entry point, ``python -m repro.campaign``,
driving the software-injector (``epr``) and gate-level (``gate``) kinds."""

from __future__ import annotations

import pytest

from repro.campaign.__main__ import main
from repro.campaign.plans import get_spec
from repro.campaign.store import CampaignStore


def _stored(kind: str, directory):
    store = CampaignStore(directory)
    return get_spec(kind).aggregate(store.load_manifest()["config"],
                                    store.load_results())


class TestSwInjectorCli:
    """The ``epr`` kind."""

    def test_runs_and_prints(self, tmp_path, capsys):
        rc = main(["run", "--apps", "vectoradd", "--models", "WV",
                   "--injections", "3", "--serial", "--dir", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "overall_epr_%" in out
        assert "WV" in out

    def test_save(self, tmp_path, capsys):
        rc = main(["run", "--apps", "vectoradd", "--models", "IIO",
                   "--injections", "2", "--serial", "--dir", str(tmp_path)])
        assert rc == 0
        res = _stored("epr", tmp_path)
        assert sum(res.counts("vectoradd",
                              res.config.models[0]).values()) == 2

    def test_rejects_unknown_app(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["run", "--apps", "doom", "--dir", str(tmp_path)])


class TestFaultInjectionCli:
    """The ``gate`` kind."""

    def test_runs_and_prints(self, tmp_path, capsys):
        rc = main(["run", "--kind", "gate", "--unit", "decoder",
                   "--max-faults", "128", "--max-stimuli", "8", "--serial",
                   "--dir", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "fapr_per_model" in out
        assert "sw_error" in out

    def test_save(self, tmp_path, capsys):
        rc = main(["run", "--kind", "gate", "--unit", "decoder",
                   "--max-faults", "64", "--max-stimuli", "6", "--serial",
                   "--dir", str(tmp_path)])
        assert rc == 0
        res = _stored("gate", tmp_path)
        assert res.unit == "decoder"

    def test_requires_unit(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["run", "--kind", "gate", "--unit", "alu",
                  "--dir", str(tmp_path)])
