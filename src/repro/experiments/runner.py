"""Run every experiment and render the consolidated report."""

from __future__ import annotations

from repro import obs
from repro.analysis import ExperimentReport
from repro.obs import log


def experiment_steps(processes: int = 1,
                     preset: str = "tiny") -> list[tuple[str, object]]:
    """The named experiment steps as ``(name, thunk)`` pairs, at the
    campaign scale of :mod:`repro.presets` *preset*.

    Exposed separately from :func:`run_all` so callers (and tests) can
    inspect, filter, or time individual steps.
    """
    from repro.experiments import (
        run_cost_model,
        run_mitigation_study,
        run_sensitivity_study,
        run_fig_avf,
        run_fig_avg_epr,
        run_fig_epr,
        run_fig_fapr,
        run_fig_syndrome_fp,
        run_fig_syndrome_int,
        run_input_dependence,
        run_fig_tmxm_avf,
        run_fig_tmxm_patterns,
        run_fig_tmxm_syndrome,
        run_tab_apps,
        run_tab_area,
        run_tab_error_avf,
        run_tab_hw_fault_rate,
        run_tab_tmxm_patterns,
    )

    from repro.presets import get_preset

    sc = get_preset(preset)
    sites = sc.rtl_max_sites
    vals = sc.rtl_values_per_range
    gate_faults = sc.gate_max_faults
    gate_stim = sc.gate_max_stimuli
    epr_inj = sc.epr_injections
    scale = sc.workload_scale

    return [
        ("tab_apps", lambda: run_tab_apps()),
        ("fig_avf", lambda: run_fig_avf(
            max_sites=sites, values_per_range=vals)),
        ("fig_syndrome_fp", lambda: run_fig_syndrome_fp(
            max_sites=sites, values_per_range=vals)),
        ("fig_syndrome_int", lambda: run_fig_syndrome_int(
            max_sites=sites, values_per_range=vals)),
        ("input_dependence", lambda: run_input_dependence(
            max_sites=sites, values_per_range=vals)),
        ("fig_tmxm_avf", lambda: run_fig_tmxm_avf(
            max_sites=sites, values_per_type=vals)),
        ("fig_tmxm_patterns", lambda: run_fig_tmxm_patterns(
            max_sites=sites, values_per_type=vals)),
        ("tab_tmxm_patterns", lambda: run_tab_tmxm_patterns(
            max_sites=sites, values_per_type=vals)),
        ("fig_tmxm_syndrome", lambda: run_fig_tmxm_syndrome(
            max_sites=sites, values_per_type=vals)),
        ("tab_area", lambda: run_tab_area(scale=scale)),
        ("tab_hw_fault_rate", lambda: run_tab_hw_fault_rate(
            max_faults=gate_faults, max_stimuli=gate_stim,
            scale=scale, processes=processes)),
        ("fig_fapr", lambda: run_fig_fapr(
            max_faults=gate_faults, max_stimuli=gate_stim,
            scale=scale, processes=processes)),
        ("tab_error_avf", lambda: run_tab_error_avf(
            max_faults=gate_faults, max_stimuli=gate_stim,
            scale=scale, processes=processes)),
        ("fig_epr", lambda: run_fig_epr(
            injections=epr_inj, scale=scale, processes=processes)),
        ("fig_avg_epr", lambda: run_fig_avg_epr(
            injections=epr_inj, scale=scale, processes=processes)),
        ("cost_model", lambda: run_cost_model()),
        ("mitigation_study", lambda: run_mitigation_study(injections=4)),
        ("sensitivity_study", lambda: run_sensitivity_study(scale=scale)),
    ]


def run_all(processes: int = 1,
            preset: str = "tiny") -> list[ExperimentReport]:
    """Regenerate every table and figure at the :mod:`repro.presets`
    scale *preset* ("tiny": minutes; "small", "paper": larger campaigns).
    Each step runs inside an ``experiment`` observability span and logs a
    progress line.
    """
    steps = experiment_steps(processes=processes, preset=preset)
    reports: list[ExperimentReport] = []
    for i, (name, thunk) in enumerate(steps, start=1):
        log.info(f"experiment {name}", step=i, of=len(steps))
        with obs.span("experiment", experiment=name):
            reports.append(thunk())
    return reports


def render_all(reports: list[ExperimentReport]) -> str:
    return "\n\n".join(r.render() for r in reports)
