"""Tests for NVBitPERfi: injector mechanics and EPR campaign shapes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.common.exceptions import DeviceError
from repro.errormodels import ErrorDescriptor, ErrorModel
from repro.errormodels.models import SW_INJECTABLE
from repro.gpusim import Device, DeviceConfig
from repro.isa.opcodes import Op
from repro.swinjector import (
    NVBitPERfi,
    SwCampaignConfig,
    make_descriptor,
    run_epr_campaign,
)
from repro.swinjector.campaign import run_one_injection, _golden_bits
from repro.workloads import get_workload
from repro.workloads.base import default_launcher


def _run_with(app: str, desc: ErrorDescriptor, scale="tiny"):
    """Run one workload under a given descriptor; return (outcome, bits)."""
    w = get_workload(app, scale=scale)
    golden = w.run_golden()
    tool = NVBitPERfi(desc)
    dev = Device(DeviceConfig(global_mem_words=1 << 20))
    try:
        bits = w.run(dev, default_launcher(dev, watchdog=2_000_000,
                                           instrumentation=tool))
    except DeviceError as exc:
        return "due", None, tool
    return ("masked" if np.array_equal(bits, golden) else "sdc"), bits, tool


def _desc(model, **kw):
    base = dict(sm_id=0, subpartition=0, warp_slots=frozenset(),
                thread_mask=0xFFFFFFFF, bit_err_mask=1)
    base.update(kw)
    return ErrorDescriptor(model=model, **base)


class TestInjectorSemantics:
    def test_ivoc_always_due(self):
        outcome, _, _ = _run_with("vectoradd", _desc(ErrorModel.IVOC))
        assert outcome == "due"

    def test_ivra_out_of_bounds_register_is_due(self):
        d = _desc(ErrorModel.IVRA, bit_err_mask=1 << 7, err_oper_loc=0)
        outcome, _, _ = _run_with("vectoradd", d)
        assert outcome == "due"

    def test_ira_dst_mode_steals_result(self):
        d = _desc(ErrorModel.IRA, bit_err_mask=1, err_oper_loc=0)
        outcome, _, tool = _run_with("vectoradd", d)
        assert tool.activations > 0
        assert outcome in ("sdc", "due")

    def test_wv_flips_predicates(self):
        d = _desc(ErrorModel.WV)
        outcome, _, tool = _run_with("vectoradd", d)
        assert tool.activations > 0
        assert outcome in ("sdc", "due")

    def test_iat_subset_of_threads(self):
        d = _desc(ErrorModel.IAT, thread_mask=0x1, bit_err_mask=1 << 1)
        outcome, _, _ = _run_with("vectoradd", d)
        # thread 0 computes thread 2's element; element 0 never written
        assert outcome == "sdc"

    def test_iaw_whole_warp_substitution(self):
        d = _desc(ErrorModel.IAW, bit_err_mask=1 << 5)
        outcome, _, _ = _run_with("vectoradd", d)
        assert outcome in ("sdc", "due")

    def test_imd_masked_without_shared_memory(self):
        d = _desc(ErrorModel.IMD, bit_err_mask=1 << 3)
        outcome, _, tool = _run_with("vectoradd", d)
        assert outcome == "masked"
        assert tool.activations == 0  # vectoradd has no STS instructions

    def test_imd_active_on_shared_memory_app(self):
        d = _desc(ErrorModel.IMD, bit_err_mask=1 << 3, err_oper_loc=0)
        outcome, _, tool = _run_with("gemm", d)
        assert tool.activations > 0
        assert outcome in ("sdc", "due")

    def test_ims_corrupts_shared_loads(self):
        d = _desc(ErrorModel.IMS, bit_err_mask=1 << 2)
        outcome, _, tool = _run_with("gemm", d)
        assert tool.activations > 0
        assert outcome in ("sdc", "due")

    def test_ioc_replacement_changes_results(self):
        d = _desc(ErrorModel.IOC, replacement_op=Op.ISUB)
        outcome, _, _ = _run_with("vectoradd", d)
        assert outcome in ("sdc", "due")

    def test_ioc_same_op_is_masked(self):
        # replacing FADD by FADD on an FADD-only data path: no effect on
        # the arithmetic, only the integer addressing ops change
        d = _desc(ErrorModel.IOC, replacement_op=Op.IADD,
                  warp_slots=frozenset({11}))
        outcome, _, tool = _run_with("vectoradd", d)
        # warp slot 11 never runs in the tiny launch -> no activation
        assert tool.activations == 0
        assert outcome == "masked"

    def test_unmatching_coordinates_are_masked(self):
        d = _desc(ErrorModel.WV, sm_id=1, subpartition=3)
        outcome, _, tool = _run_with("vectoradd", d)
        assert outcome == "masked"
        # vectoradd tiny runs 1 CTA on SM0 only
        assert tool.activations == 0

    def test_ial_disable_discards_lane_results(self):
        d = _desc(ErrorModel.IAL, lane=0, lane_enable_mode="disable")
        outcome, _, _ = _run_with("vectoradd", d)
        assert outcome == "sdc"

    def test_ipp_delegates_to_other_models(self):
        # the paper: IPP "can be implemented by any of the other error
        # representations (IRA, IVRA, IAT, IAW, IMS, or IMD)"
        seen = set()
        for mask_bit in range(8):
            tool = NVBitPERfi(_desc(ErrorModel.IPP,
                                    bit_err_mask=1 << mask_bit))
            seen.add(tool.injector.delegate_name)
        assert len(seen) >= 3

    def test_ipp_injection_runs(self):
        outcome, _, _ = _run_with("gemm", _desc(ErrorModel.IPP,
                                                bit_err_mask=1 << 2))
        assert outcome in ("masked", "sdc", "due")


class TestDescriptors:
    def test_deterministic(self):
        a = make_descriptor(ErrorModel.IRA, seed=1, index=0)
        b = make_descriptor(ErrorModel.IRA, seed=1, index=0)
        assert a == b

    def test_indices_vary(self):
        ds = {make_descriptor(ErrorModel.IIO, seed=1, index=i).bit_err_mask
              for i in range(20)}
        assert len(ds) > 1

    def test_ivra_mask_escapes_register_window(self):
        for i in range(10):
            d = make_descriptor(ErrorModel.IVRA, seed=2, index=i)
            assert d.bit_err_mask >= 64

    def test_iat_leaves_a_thread_alive(self):
        for i in range(10):
            d = make_descriptor(ErrorModel.IAT, seed=3, index=i)
            assert d.thread_mask != 0xFFFFFFFF
            assert d.thread_mask != 0

    def test_iaw_uses_warp_level_bits(self):
        for i in range(10):
            d = make_descriptor(ErrorModel.IAW, seed=4, index=i)
            assert d.bit_err_mask >= 32


@pytest.fixture(scope="module")
def epr():
    cfg = SwCampaignConfig(
        apps=("vectoradd", "gemm", "bfs"),
        injections_per_model=10, scale="tiny",
    )
    return run_epr_campaign(cfg)


class TestEprCampaign:
    def test_counts_complete(self, epr):
        for app in epr.config.apps:
            for model in epr.config.models:
                assert sum(epr.counts(app, model).values()) == 10

    def test_rates_sum_to_100(self, epr):
        e = epr.epr("gemm", ErrorModel.WV)
        assert sum(e.values()) == pytest.approx(100.0)

    def test_operation_errors_mostly_due(self, epr):
        # paper: IRA/IVRA (and IOC/IIO) injections dominated by DUEs
        for model in (ErrorModel.IRA, ErrorModel.IVRA):
            avg = epr.average_epr(model)
            assert avg["due"] > avg["sdc"], model

    def test_ivra_due_heaviest(self, epr):
        assert epr.average_epr(ErrorModel.IVRA)["due"] >= 80.0

    def test_control_and_parallel_mostly_sdc(self, epr):
        for model in (ErrorModel.WV, ErrorModel.IAT):
            avg = epr.average_epr(model)
            assert avg["sdc"] > avg["due"], model

    def test_imd_masked_on_apps_without_shared(self, epr):
        assert epr.epr("vectoradd", ErrorModel.IMD)["masked"] == 100.0
        assert epr.epr("bfs", ErrorModel.IMD)["masked"] == 100.0
        assert epr.epr("gemm", ErrorModel.IMD)["masked"] < 100.0

    def test_overall_epr_high(self, epr):
        # paper: average EPR 84.2% (most permanent errors are not masked)
        assert epr.overall_epr() > 60.0

    def test_deterministic(self):
        cfg = SwCampaignConfig(apps=("vectoradd",), injections_per_model=5,
                               scale="tiny",
                               models=(ErrorModel.WV, ErrorModel.IRA))
        a = run_epr_campaign(cfg)
        b = run_epr_campaign(cfg)
        for m in cfg.models:
            assert a.counts("vectoradd", m) == b.counts("vectoradd", m)

    def test_multiprocessing_matches_serial(self):
        base = dict(apps=("vectoradd",), injections_per_model=6,
                    scale="tiny", models=(ErrorModel.IIO,))
        a = run_epr_campaign(SwCampaignConfig(**base, processes=1))
        b = run_epr_campaign(SwCampaignConfig(**base, processes=2))
        assert a.counts("vectoradd", ErrorModel.IIO) == \
            b.counts("vectoradd", ErrorModel.IIO)


def _target_descriptors():
    """Descriptors of all 13 models: IRA and IVRA at every
    ``err_oper_loc``, IPP onto each of its delegates."""
    from repro.swinjector.instrumentation import INJECTOR_CLASSES

    for model in INJECTOR_CLASSES:
        if model in (ErrorModel.IRA, ErrorModel.IVRA):
            for loc in range(4):
                yield ErrorDescriptor(model, err_oper_loc=loc)
        elif model is ErrorModel.IPP:
            for lane in range(5):
                yield ErrorDescriptor(model, lane=lane)
        elif model is ErrorModel.IOC:
            yield ErrorDescriptor(model, replacement_op=Op.IADD)
        else:
            yield ErrorDescriptor(model)


class TestTargetMask:
    def test_cached_mask_is_targets_pc_by_pc(self):
        # one mask per (program, target key), shared by every injector
        # with that key, equal to targets() evaluated at each pc
        from repro.swinjector.instrumentation import (INJECTOR_CLASSES,
                                                      target_mask)
        from repro.workloads.registry import EVALUATION_APPS

        descs = list(_target_descriptors())
        delegates = {INJECTOR_CLASSES[d.model](d).delegate_name
                     for d in descs if d.model is ErrorModel.IPP}
        assert delegates == {"IRA", "IAT", "IAW", "IMS", "IMD"}
        checked = 0
        for app in EVALUATION_APPS:
            for program in get_workload(app, scale="tiny").programs().values():
                for d in descs:
                    injector = INJECTOR_CLASSES[d.model](d)
                    mask = target_mask(injector, program)
                    assert mask.tolist() == [injector.targets(i)
                                             for i in program.instructions]
                    assert not mask.flags.writeable
                    again = INJECTOR_CLASSES[d.model](d)
                    assert target_mask(again, program) is mask
                    checked += 1
        assert checked >= len(EVALUATION_APPS) * len(descs)
