"""T4/T5/F9/T6 — the gate-level characterization of WSC, fetch, decoder.

The three-unit stuck-at sweep runs on the unified campaign engine
(:mod:`repro.campaign`), one in-memory campaign per unit; a resumable
sweep is ``python -m repro.campaign run --kind gate`` per unit.
"""

from __future__ import annotations

import functools

from repro.analysis import ExperimentReport
from repro.errormodels.models import ErrorModel
from repro.faultinjection import CampaignConfig, GateCampaignResult, run_gate_campaign
from repro.faultinjection.campaign import profile_stimuli
from repro.gatelevel import netlist_area
from repro.gatelevel.fpu import build_fp32_core
from repro.gatelevel.units import build_unit
from repro.profiling import utilization_table

UNITS = ("wsc", "fetch", "decoder")

#: paper Table 5 reference values (percent)
PAPER_TABLE5 = {
    "wsc": {"total": 29850, "uncontrollable": 35.9, "masked": 30.0,
            "hang": 3.6, "sw_error": 30.5},
    "fetch": {"total": 9320, "uncontrollable": 26.9, "masked": 24.5,
              "hang": 1.2, "sw_error": 47.4},
    "decoder": {"total": 10874, "uncontrollable": 26.0, "masked": 22.2,
                "hang": 2.5, "sw_error": 49.3},
}


@functools.lru_cache(maxsize=16)
def _gate_campaign(unit: str, max_faults: int | None, max_stimuli: int,
                   scale: str, processes: int = 1) -> GateCampaignResult:
    """One unit's stuck-at campaign, submitted through the engine."""
    prof = profile_stimuli(scale, max(8, max_stimuli // 6))
    cfg = CampaignConfig(unit=unit, max_faults=max_faults,
                         max_stimuli=max_stimuli, processes=processes)
    return run_gate_campaign(cfg, prof.stimuli)


def run_tab_area(scale: str = "tiny", per_workload: int = 16
                 ) -> ExperimentReport:
    """Table 4: tested units' area and utilization vs one FP32 core."""
    fp_area = netlist_area(build_fp32_core())
    prof = profile_stimuli(scale, per_workload)
    util = utilization_table(prof)
    rows = []
    for name, label in (("wsc", "WSC"), ("decoder", "Decoder"),
                        ("fetch", "Fetch")):
        area = netlist_area(build_unit(name).netlist)
        rows.append({
            "unit": label,
            "area_nm2": round(area, 1),
            "pct_of_fp32_core": round(100.0 * area / fp_area, 1),
            "utilization_%": round(util[label if label != "WSC" else "WSC"], 1),
        })
    rows.append({
        "unit": "FP32 unit",
        "area_nm2": round(fp_area, 1),
        "pct_of_fp32_core": 100.0,
        "utilization_%": round(util["FP32 unit"], 1),
    })
    return ExperimentReport(
        experiment_id="T4",
        title="Tested units' area and utilization w.r.t. one FP32 core",
        rows=rows,
        paper_expectation="WSC comparable to the FP32 core (114.3%), "
        "decoder 7.3% and fetch 6.8%; WSC/fetch/decoder used by 100% of "
        "instructions, FP32 unit by ~10-40%",
        notes=["our fetch model is relatively larger than the paper's "
               "(per-warp PC table + 64-bit instruction register)"],
    )


def run_tab_hw_fault_rate(max_faults: int | None = 1024,
                          max_stimuli: int = 48, scale: str = "tiny",
                          processes: int = 1) -> ExperimentReport:
    """Table 5: % uncontrollable / masked / hang / SW-error per unit."""
    rows = []
    for unit in UNITS:
        res = _gate_campaign(unit, max_faults, max_stimuli, scale, processes)
        rates = res.category_rates()
        paper = PAPER_TABLE5[unit]
        rows.append({
            "unit": unit.upper(),
            "faults": res.total_faults,
            "uncontrollable_%": rates["uncontrollable"],
            "hw_masked_%": rates["masked"],
            "hw_hang_%": rates["hang"],
            "sw_errors_%": rates["sw_error"],
            "paper_sw_errors_%": paper["sw_error"],
        })
    return ExperimentReport(
        experiment_id="T5",
        title="Stuck-at fault classification per unit",
        rows=rows,
        paper_expectation="SW errors: 30.5% (WSC), 47.4% (fetch), 49.3% "
        "(decoder); hangs 1.2-3.6%; the rest split between uncontrollable "
        "and hardware-masked",
    )


def run_fig_fapr(max_faults: int | None = 1024, max_stimuli: int = 48,
                 scale: str = "tiny", processes: int = 1) -> ExperimentReport:
    """Fig 9: FAPR per error model per unit."""
    rows = []
    for unit in UNITS:
        res = _gate_campaign(unit, max_faults, max_stimuli, scale, processes)
        fapr = res.fapr()
        row = {"unit": unit.upper()}
        for m in ErrorModel:
            row[m.value] = round(fapr.get(m, 0.0), 2)
        rows.append(row)
    return ExperimentReport(
        experiment_id="F9",
        title="Fault Activation and Propagation Rate per error model",
        rows=rows,
        paper_expectation="IOC present in all units; IVOC strongest in "
        "fetch; IVRA/IMS/IMD strongest in decoder; WSC dominated by "
        "parallel-management models (IAT/IAW/IAL/IPP/IAC ~55% of its "
        "error faults); IAC rare everywhere (<=1%)",
    )


def run_tab_error_avf(max_faults: int | None = 1024, max_stimuli: int = 48,
                      scale: str = "tiny", processes: int = 1) -> ExperimentReport:
    """Table 6: per-error fault counts, AVF and dynamic production counts."""
    rows = []
    for unit in UNITS:
        res = _gate_campaign(unit, max_faults, max_stimuli, scale, processes)
        per = res.faults_per_error()
        times = res.times_produced()
        fapr = res.fapr()
        for m in sorted(per, key=lambda m: m.value):
            rows.append({
                "unit": unit.upper(),
                "error": m.value,
                "hw_faults_causing": per[m],
                "avf_per_error_%": round(fapr[m], 2),
                "times_produced": times[m],
            })
    return ExperimentReport(
        experiment_id="T6",
        title="AVF per error model on the analyzed units",
        rows=rows,
        paper_expectation="WSC produces 7 categories (IRA and IAW/IAT "
        "largest); fetch 8 (IOC/IVOC largest); decoder the widest spectrum "
        "(IMS/IMD/IOC/IIO large); the same fault can produce several error "
        "types",
    )
