"""F10/F11 — software-level EPR campaign regeneration."""

from __future__ import annotations

from repro.errormodels.models import ErrorModel
from repro.swinjector import SwCampaignConfig, run_epr_campaign


def test_bench_fig10_epr_per_app(regen):
    cfg = SwCampaignConfig(apps=("vectoradd", "gemm", "bfs"),
                           injections_per_model=6, scale="tiny")
    res = regen(run_epr_campaign, cfg)
    assert res.outcomes


def test_bench_fig11_average_epr(regen):
    cfg = SwCampaignConfig(
        apps=("vectoradd", "mxm", "mergesort"),
        models=(ErrorModel.IRA, ErrorModel.WV, ErrorModel.IAT,
                ErrorModel.IMS),
        injections_per_model=6, scale="tiny",
    )
    res = regen(run_epr_campaign, cfg)
    avg = res.average_epr(ErrorModel.WV)
    assert sum(avg.values()) > 0


def test_bench_campaign_throughput_pooled(regen, benchmark):
    """Engine throughput on the process pool (injections/sec); perfbench
    times campaigns serially only."""
    cfg = SwCampaignConfig(
        apps=("vectoradd", "gemm"),
        models=(ErrorModel.WV, ErrorModel.IIO, ErrorModel.IAT),
        injections_per_model=8, scale="tiny", processes=4)
    res = regen(run_epr_campaign, cfg)
    n = len(res.outcomes)
    assert n == 2 * 3 * 8
    benchmark.extra_info["injections"] = n
    benchmark.extra_info["injections_per_sec_pooled"] = round(
        n / benchmark.stats.stats.mean, 1)


def test_bench_campaign_accel_speedup(benchmark):
    """Checkpointed differential replay vs cold replay (same campaign).

    Runs the identical campaign twice — acceleration on (checkpoint
    resume, activation-site planning, clean-CTA skip, descriptor
    collapsing)
    and off (every injection replays from dynamic instruction 0) — and
    asserts the accelerated run is at least 2x faster while producing
    bit-identical outcomes (see docs/PERFORMANCE.md).
    """
    import time

    from repro.campaign.goldens import CHECKPOINT_CACHE, GOLDEN_CACHE
    from repro.errormodels.models import SW_INJECTABLE

    n = 48
    kw = dict(apps=("vectoradd", "gemm"), models=tuple(SW_INJECTABLE),
              injections_per_model=n, scale="small", processes=1)
    # warm the golden + checkpoint caches so both runs time replay work,
    # not reference-trace construction; chunk=n gives the collapser the
    # whole (app, model) population per work unit (see docs/PERFORMANCE.md)
    # (the trace first: its pass also fills the golden cache)
    for app in kw["apps"]:
        CHECKPOINT_CACHE.get(app, kw["scale"], 0x5C23, 1 << 20)
        GOLDEN_CACHE.get(app, kw["scale"], 0x5C23, 1 << 20)

    t0 = time.perf_counter()
    legacy = run_epr_campaign(SwCampaignConfig(**kw, accel=False), chunk=n)
    t_legacy = time.perf_counter() - t0

    accel = benchmark.pedantic(
        run_epr_campaign, args=(SwCampaignConfig(**kw, accel=True),),
        kwargs={"chunk": n}, rounds=1, iterations=1, warmup_rounds=0)

    def normalized(res):
        return [(o.app, o.model, o.outcome, o.due_reason, o.activations)
                for o in res.outcomes]

    assert normalized(accel) == normalized(legacy)
    t_accel = benchmark.stats.stats.mean
    speedup = t_legacy / t_accel
    benchmark.extra_info["injections"] = len(accel.outcomes)
    benchmark.extra_info["no_accel_seconds"] = round(t_legacy, 3)
    benchmark.extra_info["speedup_vs_no_accel"] = round(speedup, 2)
    assert speedup >= 2.0, f"accel speedup {speedup:.2f}x < 2x"
