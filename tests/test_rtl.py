"""Tests for the RTL injection layer: sites, injector mechanics, and the
paper-shape properties of the AVF and t-MxM campaigns."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.campaign import CampaignStore, EngineConfig, execute, get_spec
from repro.rtl import (
    RtlInjection,
    RtlSite,
    module_sites,
    run_microbench_avf,
    run_rtl_injection,
    run_tmxm_campaign,
)
from repro.rtl.avf import modules_for_bench
from repro.rtl.campaign import reference_run
from repro.rtl.sites import control_fraction
from repro.syndrome import SpatialPattern
from repro.workloads.microbench import build_microbench


class TestSites:
    def test_all_modules_have_sites(self):
        for m in ("fu_int", "fu_fp32", "fu_sfu", "scheduler", "pipeline"):
            assert len(module_sites(m)) > 100

    def test_unknown_module_rejected(self):
        with pytest.raises(KeyError):
            module_sites("dram")

    def test_fp32_larger_than_int(self):
        # paper Table 2: the FP32 unit is >3x the INT unit
        assert len(module_sites("fu_fp32")) > len(module_sites("fu_int"))

    def test_pipeline_control_fraction_near_paper(self):
        # paper: ~16% of pipeline registers are control
        frac = control_fraction("pipeline")
        assert 0.05 < frac < 0.30

    def test_site_str(self):
        s = RtlSite("pipeline", "ctl_opcode", 1, 3)
        assert "pipeline" in str(s) and "b3" in str(s)


class TestInjectorMechanics:
    def _golden_and_watchdog(self, bench="IADD"):
        mb = build_microbench(bench, "M")
        return (mb, *reference_run(mb))

    def test_null_injection_is_masked_when_bit_matches(self):
        # stuck a result bit at the value it already has for all threads:
        # outcome must not be DUE, and determinism must hold
        mb, golden, watchdog = self._golden_and_watchdog()
        site = RtlSite("fu_int", "res", 0, 31)
        out1 = run_rtl_injection(mb, RtlInjection(site, 0), golden, watchdog)
        out2 = run_rtl_injection(mb, RtlInjection(site, 0), golden, watchdog)
        assert out1.outcome == out2.outcome

    def test_result_bit_corrupts_single_thread(self):
        mb, golden, watchdog = self._golden_and_watchdog()
        # force bit 20 of the result of per-thread unit 5
        site = RtlSite("fu_int", "res", 5, 20)
        g = golden.copy()
        want_flip = (g[5] & (1 << 20)) != 0
        out = run_rtl_injection(mb, RtlInjection(site, 0 if want_flip else 1),
                                golden, watchdog)
        assert out.outcome == "sdc"
        assert 5 in out.corrupted.tolist()

    def test_internal_sites_never_propagate(self):
        mb, golden, watchdog = self._golden_and_watchdog()
        for bit in (0, 10, 31):
            site = RtlSite("fu_int", "internal", 3, bit)
            out = run_rtl_injection(mb, RtlInjection(site, 1), golden, watchdog)
            assert out.outcome == "masked"

    def test_scheduler_mask_stuck0_desschedules_thread(self):
        mb, golden, watchdog = self._golden_and_watchdog()
        site = RtlSite("scheduler", "active_bit", 0, 9)
        out = run_rtl_injection(mb, RtlInjection(site, 0), golden, watchdog)
        assert out.outcome == "sdc"
        # thread 9 of both warps never stores its output
        assert set(out.corrupted.tolist()) == {9, 41}

    def test_sfu_faults_hit_only_sfu_ops(self):
        mb, golden, watchdog = self._golden_and_watchdog("IADD")
        site = RtlSite("fu_sfu", "sfu_in", 0, 12)
        out = run_rtl_injection(mb, RtlInjection(site, 1), golden, watchdog)
        assert out.outcome == "masked"  # no SFU instructions in IADD

    def test_sfu_busy_hangs_sfu_bench(self):
        mb, golden, watchdog = self._golden_and_watchdog("FSIN")
        site = RtlSite("fu_sfu", "sfu_busy", 0, 0)
        out = run_rtl_injection(mb, RtlInjection(site, 1), golden, watchdog)
        assert out.outcome == "due"

    def test_modules_for_bench_skips_idle_fus(self):
        assert "fu_int" in modules_for_bench("IADD")
        assert all(not m.startswith("fu_") for m in modules_for_bench("GLD"))
        assert all(not m.startswith("fu_") for m in modules_for_bench("BRA"))
        assert "fu_sfu" in modules_for_bench("FEXP")


@pytest.fixture(scope="module")
def avf_campaign():
    return run_microbench_avf(
        benches=["IADD", "FADD", "FSIN", "GLD"],
        values_per_range=1, max_sites_per_module=60, input_ranges=("M",),
    )


class TestAvfPaperShapes:
    def test_rows_cover_requested_grid(self, avf_campaign):
        pairs = {(r.bench, r.module) for r in avf_campaign.rows}
        assert ("IADD", "fu_int") in pairs
        assert ("GLD", "scheduler") in pairs
        assert ("GLD", "fu_int") not in pairs  # FU idle for memory bench

    def test_scheduler_avf_below_pipeline_on_microbenches(self, avf_campaign):
        # paper Fig 3: scheduler faults less likely to impact the simple
        # micro-benchmarks than pipeline faults
        for bench in ("IADD", "FADD"):
            sched = avf_campaign.row("scheduler", bench)
            pipe = avf_campaign.row("pipeline", bench)
            assert sched.avf_sdc + sched.avf_due < pipe.avf_sdc + pipe.avf_due

    def test_fp32_avf_below_int(self, avf_campaign):
        # paper: larger FP32 area -> lower AVF than the integer unit
        fp = avf_campaign.row("fu_fp32", "FADD")
        it = avf_campaign.row("fu_int", "IADD")
        assert fp.avf_sdc + fp.avf_due < it.avf_sdc + it.avf_due

    def test_sfu_corruptions_are_multithread(self, avf_campaign):
        sfu = avf_campaign.row("fu_sfu", "FSIN")
        assert sfu.n_sdc_multi > sfu.n_sdc_single
        assert sfu.mean_corrupted_threads > 4

    def test_int_fu_corruptions_are_fewthread(self, avf_campaign):
        fu = avf_campaign.row("fu_int", "IADD")
        assert 0 < fu.mean_corrupted_threads <= 4

    def test_scheduler_sdcs_multithread(self, avf_campaign):
        sched = avf_campaign.row("scheduler", "IADD")
        assert sched.n_sdc_multi >= sched.n_sdc_single

    def test_syndromes_collected_for_sdc_rows(self, avf_campaign):
        syn = avf_campaign.syndrome("FADD", "pipeline", "M")
        assert syn.size > 0
        assert np.all(syn >= 0)

    def test_missing_row_raises(self, avf_campaign):
        with pytest.raises(KeyError):
            avf_campaign.row("fu_int", "GLD")


@pytest.fixture(scope="module")
def tmxm():
    return run_tmxm_campaign(values_per_type=1, max_sites_per_module=110)


class TestTmxmPaperShapes:
    def test_pipeline_rows_dominate(self, tmxm):
        # Table 3: pipeline injection mostly produces corrupted rows
        dist = tmxm.pattern_distribution("pipeline")
        assert dist[SpatialPattern.ROW] == max(dist.values())

    def test_whole_columns_unlikely(self, tmxm):
        # Table 3: a whole corrupted column is very unlikely for both units
        for module in ("scheduler", "pipeline"):
            dist = tmxm.pattern_distribution(module)
            assert dist[SpatialPattern.COL] <= 10.0

    def test_multiple_corruptions_dominate_sdcs(self, tmxm):
        # Fig 6: at least half of the SDCs corrupt multiple elements
        for module in ("scheduler", "pipeline"):
            for tile in ("max", "random"):
                cell = tmxm.cell(module, tile)
                if cell.n_sdc_single + cell.n_sdc_multi > 5:
                    assert cell.multi_fraction_of_sdcs >= 0.5

    def test_zero_tile_masks_pipeline_sdcs(self, tmxm):
        # Fig 6: the pipeline SDC AVF is much lower for the Zero tile
        z = tmxm.cell("pipeline", "zero")
        m = tmxm.cell("pipeline", "max")
        assert z.avf_sdc_multi + z.avf_sdc_single < \
            m.avf_sdc_multi + m.avf_sdc_single

    def test_row_syndromes_available_for_fig8(self, tmxm):
        rows = tmxm.syndromes_by_pattern("pipeline", SpatialPattern.ROW)
        assert len(rows) > 0
        assert all(r.size >= 2 for r in rows)

    def test_deterministic(self):
        a = run_tmxm_campaign(values_per_type=1, max_sites_per_module=30,
                              tile_types=("random",))
        b = run_tmxm_campaign(values_per_type=1, max_sites_per_module=30,
                              tile_types=("random",))
        ca = a.cell("pipeline", "random")
        cb = b.cell("pipeline", "random")
        assert (ca.n_due, ca.n_sdc_single, ca.n_sdc_multi) == \
            (cb.n_due, cb.n_sdc_single, cb.n_sdc_multi)


def _avf_digest(camp) -> str:
    h = hashlib.sha256()
    for r in camp.rows:
        h.update(repr((r.module, r.bench, r.input_range, r.n_injections,
                       r.n_sdc_single, r.n_sdc_multi, r.n_due,
                       r.corrupted_thread_counts)).encode())
    for key, arr in camp.syndromes.items():
        h.update(repr(key).encode())
        h.update(arr.dtype.str.encode())
        h.update(arr.tobytes())
    return h.hexdigest()[:16]


def _tmxm_digest(res) -> str:
    h = hashlib.sha256()
    for key, c in res.cells.items():
        h.update(repr((key, c.module, c.tile_type, c.n_injections, c.n_due,
                       c.n_sdc_single, c.n_sdc_multi,
                       [p.name for p in c.patterns])).encode())
        for p, rel in c.syndromes:
            h.update(p.name.encode())
            h.update(rel.dtype.str.encode())
            h.update(rel.tobytes())
    return h.hexdigest()[:16]


class TestPinnedResults:
    """Every AvfRow/TmxmCell field, key order and syndrome byte of a small
    config of each study, frozen from the hand-written study loops that
    the ``rtl-avf``/``rtl-tmxm`` campaign kinds replaced."""

    def test_avf(self):
        camp = run_microbench_avf(
            benches=["FADD", "IMUL", "FSIN", "BRA"], input_ranges=("S", "L"),
            values_per_range=2, max_sites_per_module=15)
        assert _avf_digest(camp) == "c7870bcc8e0aaeac"

    def test_tmxm(self):
        res = run_tmxm_campaign(values_per_type=1, max_sites_per_module=25)
        assert _tmxm_digest(res) == "86289ed6eab9cae3"


@pytest.mark.parametrize("kind, overrides, digest", [
    ("rtl-avf", {"benches": ["FADD", "GLD"], "input_ranges": ["M"],
                 "max_sites_per_module": 10}, _avf_digest),
    ("rtl-tmxm", {"tile_types": ["max", "zero"], "values_per_type": 1,
                  "max_sites_per_module": 12}, _tmxm_digest),
])
def test_serial_pool_and_resumed_runs_agree(kind, overrides, digest,
                                             tmp_path):
    spec = get_spec(kind)
    config = spec.default_config(**overrides)
    plan = spec.build(config)
    serial = spec.aggregate(config,
                            execute(plan.units, EngineConfig(processes=1)))
    pooled = spec.aggregate(config,
                            execute(plan.units, EngineConfig(processes=2)))

    store = CampaignStore(tmp_path)
    store.write_manifest(plan.kind, plan.config, len(plan.units))
    cut = len(plan.units) // 2
    execute(plan.units, EngineConfig(processes=1, max_units=cut), store=store)
    assert len(store.completed_ids()) == cut
    execute(plan.units, EngineConfig(processes=2), store=store)
    resumed = spec.aggregate(config, store.load_results())

    summary = spec.summarize(serial)
    assert summary["injections"] == sum(len(u.payload["sites"])
                                        for u in plan.units)
    assert any(v["sdc_multi"] for v in summary["avf_%"].values())
    assert digest(serial) == digest(pooled) == digest(resumed)
