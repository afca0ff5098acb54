"""Transient/intermittent fault modes (the paper's extension claim)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.rtl import RtlInjection, RtlSite, run_rtl_injection
from repro.rtl.campaign import reference_run
from repro.workloads.microbench import build_microbench


@pytest.fixture(scope="module")
def setup():
    mb = build_microbench("IADD", "M")
    golden, watchdog = reference_run(mb)
    return mb, golden, watchdog


def _count_sdcs(mb, golden, watchdog, injections):
    sdc = 0
    for inj in injections:
        out = run_rtl_injection(mb, inj, golden, watchdog)
        if out.outcome == "sdc":
            sdc += 1
    return sdc


class TestFaultModes:
    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            RtlInjection(RtlSite("fu_int", "res", 0, 5), 1, mode="delayed")

    def test_transient_corrupts_at_most_one_result(self, setup):
        mb, golden, watchdog = setup
        site = RtlSite("fu_int", "res", 3, 30)
        inj = RtlInjection(site, 1, mode="transient", transient_event=0)
        out = run_rtl_injection(mb, inj, golden, watchdog)
        if out.outcome == "sdc":
            assert out.num_corrupted == 1

    def test_transient_event_out_of_range_is_masked(self, setup):
        mb, golden, watchdog = setup
        site = RtlSite("fu_int", "res", 3, 30)
        inj = RtlInjection(site, 1, mode="transient", transient_event=10_000)
        out = run_rtl_injection(mb, inj, golden, watchdog)
        assert out.outcome == "masked"

    def test_permanent_less_masked_than_transient(self, setup):
        # paper: "permanent faults, by definition, are less likely to be
        # masked compared to transient faults"
        mb, golden, watchdog = setup
        sites = [RtlSite("fu_int", "res", lane, bit)
                 for lane in range(8) for bit in (28, 29, 30)]
        perm = _count_sdcs(mb, golden, watchdog,
                           [RtlInjection(s, 1) for s in sites])
        trans = _count_sdcs(
            mb, golden, watchdog,
            [RtlInjection(s, 1, mode="transient", transient_event=1)
             for s in sites])
        assert perm >= trans

    def test_intermittent_between_transient_and_permanent(self, setup):
        mb, golden, watchdog = setup
        site = RtlSite("fu_int", "res", 2, 29)
        perm = run_rtl_injection(mb, RtlInjection(site, 1), golden, watchdog)
        inter = run_rtl_injection(
            mb, RtlInjection(site, 1, mode="intermittent",
                             intermittent_p=0.5), golden, watchdog)
        if perm.outcome == "sdc" and inter.outcome == "sdc":
            assert inter.num_corrupted <= perm.num_corrupted

    def test_intermittent_deterministic_per_seed(self, setup):
        mb, golden, watchdog = setup
        site = RtlSite("fu_int", "op_a", 1, 27)
        outs = []
        for _ in range(2):
            inj = RtlInjection(site, 1, mode="intermittent",
                               intermittent_p=0.3, seed=9)
            out = run_rtl_injection(mb, inj, golden, watchdog)
            outs.append((out.outcome, out.num_corrupted))
        assert outs[0] == outs[1]
