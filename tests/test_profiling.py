"""Tests for the hardware-profiling step."""

from __future__ import annotations

import numpy as np
import pytest

from repro.gatelevel.units.base import Stimulus
from repro.isa.opcodes import OpClass
from repro.profiling import profile_workloads, stimuli_from_program, utilization_table
from repro.profiling.profiler import PROFILING_NAMES
from repro.workloads import get_workload


@pytest.fixture(scope="module")
def small_profile():
    wls = [get_workload(n, scale="tiny") for n in ("vector_add", "naive_mxm",
                                                   "sort")]
    return profile_workloads(wls, max_stimuli_per_workload=20)


class TestProfiler:
    def test_fourteen_profiling_workloads_exist(self):
        assert len(PROFILING_NAMES) == 14
        for n in PROFILING_NAMES:
            get_workload(n, scale="tiny")  # must instantiate

    def test_collects_stimuli(self, small_profile):
        assert len(small_profile.stimuli) > 0
        assert all(isinstance(s, Stimulus) for s in small_profile.stimuli)

    def test_respects_cap(self, small_profile):
        assert len(small_profile.stimuli) <= 3 * 20

    def test_dynamic_counts(self, small_profile):
        assert small_profile.total_dynamic > 0
        assert sum(small_profile.per_workload_dynamic.values()) == \
            small_profile.total_dynamic

    def test_fp32_utilization_between_control_units(self, small_profile):
        table = utilization_table(small_profile)
        assert table["WSC"] == table["Fetch"] == table["Decoder"] == 100.0
        assert 0.0 < table["FP32 unit"] < 100.0

    def test_stimuli_have_valid_coordinates(self, small_profile):
        for s in small_profile.stimuli[:100]:
            assert 0 <= s.warp_id < 16
            assert 0 <= s.cta_id < 16
            assert 0 <= s.thread_mask <= 0xFFFFFFFF
        # most dynamic instructions execute on at least one lane
        # (fully predicated-off instructions legitimately have mask 0)
        nonzero = sum(1 for s in small_profile.stimuli if s.thread_mask)
        assert nonzero > len(small_profile.stimuli) // 2

    def test_static_stimuli_from_program(self):
        w = get_workload("vectoradd", scale="tiny")
        stimuli = stimuli_from_program(w.program())
        assert len(stimuli) == len(w.program())
        assert stimuli[0].pc == 0


def _reference_stimuli(workload) -> list[Stimulus]:
    """Every dynamic instruction's stimulus, converted the straightforward
    way: one ``encode`` per event and a per-lane loop for the mask."""
    from repro.gpusim.config import DeviceConfig
    from repro.gpusim.device import Device
    from repro.gpusim.executor import Tracer
    from repro.isa.encoding import encode
    from repro.workloads.base import default_launcher

    out: list[Stimulus] = []

    def trace(w, pc, instr, m):
        enc = encode(instr)
        lanes = [True] * 32 if m is None else m
        mask = sum(1 << i for i, b in enumerate(lanes) if b)
        out.append(Stimulus(
            word=enc.word, imm=enc.imm,
            warp_id=(w.warp_slot + w.subpartition * 4) & 0xF,
            thread_mask=mask & 0xFFFFFFFF, cta_id=w.cta & 0xF,
            pc=pc & 0xFF, opcode=enc.word & 0xFF))

    device = Device(DeviceConfig(global_mem_words=1 << 20))
    workload.run(device, default_launcher(device,
                                          instrumentation=Tracer(trace)))
    return out


class TestStimulusConversion:
    """Encoding each static instruction once and packing the mask with
    NumPy must give the stimuli of a per-event conversion."""

    @pytest.fixture(scope="class")
    def six(self):
        names = PROFILING_NAMES[:6]
        return ([get_workload(n, scale="tiny") for n in names],
                [_reference_stimuli(get_workload(n, scale="tiny"))
                 for n in names])

    def test_every_event(self, six):
        wls, want = six
        got = profile_workloads(wls, max_stimuli_per_workload=None,
                                dedup=False)
        assert got.stimuli == [s for ref in want for s in ref]
        assert list(got.per_workload_dynamic.values()) == [
            len(ref) for ref in want]
        # partial masks (divergence, tails) are part of what is compared
        assert len({s.thread_mask for s in got.stimuli}) > 1

    def test_gate_campaign_stimuli(self, six):
        wls, want = six
        got = profile_workloads(wls, max_stimuli_per_workload=16).stimuli
        expect = []
        for ref in want:
            uniq = list(dict.fromkeys(ref))
            if len(uniq) > 16:
                idx = np.linspace(0, len(uniq) - 1, 16).astype(int)
                uniq = [uniq[i] for i in idx]
            expect.extend(uniq)
        assert got == expect


class TestProfileStimuli:
    """``profile_stimuli``, the one profile of the gate campaigns: equal
    to one profile of all its workloads, profiled once per cached
    workload instance."""

    def test_equals_one_profile_of_all_workloads(self):
        from repro.faultinjection.campaign import profile_stimuli

        want = profile_workloads(
            [get_workload(n, scale="tiny") for n in PROFILING_NAMES[:6]],
            max_stimuli_per_workload=16)
        got = profile_stimuli("tiny", 16)
        assert got.stimuli == want.stimuli
        assert got.total_dynamic == want.total_dynamic
        assert list(got.opclass_dynamic.items()) == \
            list(want.opclass_dynamic.items())
        assert list(got.per_workload_dynamic.items()) == \
            list(want.per_workload_dynamic.items())

    def test_profiles_once_per_workload_instance(self, monkeypatch):
        import gc

        import repro.profiling
        from repro.campaign.goldens import cached_workload
        from repro.faultinjection.campaign import _PROFILES, profile_stimuli

        calls = []
        real = repro.profiling.profile_workloads

        def spy(workloads, **kw):
            calls.extend(w.meta.name for w in workloads)
            return real(workloads, **kw)
        monkeypatch.setattr(repro.profiling, "profile_workloads", spy)
        cached_workload.cache_clear()
        gc.collect()
        first = profile_stimuli("tiny", 8)
        assert len(calls) == 6
        # the same instances: nothing is profiled again
        assert profile_stimuli("tiny", 8).stimuli == first.stimuli
        assert len(calls) == 6
        # another cap is another profile
        profile_stimuli("tiny", 9)
        assert len(calls) == 12
        # fresh instances, as in a fresh process: the old profiles are
        # dropped with their instances, and the new ones profiled again
        cached_workload.cache_clear()
        gc.collect()
        assert not _PROFILES
        assert profile_stimuli("tiny", 8).stimuli == first.stimuli
        assert len(calls) == 18
