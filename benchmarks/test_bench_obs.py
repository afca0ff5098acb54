"""Observability overhead — the <5% budget the layer promises.

Three measurements:

* micro: a disabled ``span()`` must be a shared no-op (nothing recorded,
  nanoseconds per call);
* modeled: direct instrumentation cost of one traced serial EPR campaign
  = (records produced x measured per-span cost, doubled to cover counter
  increments) / campaign wall time. Every term is stable, so this is the
  asserted <5% bound — wall-clock A/B deltas of a ~30 ms campaign sit
  below scheduler/boost-clock noise on shared CI machines;
* measured: interleaved enabled/disabled wall-time ratio, reported in
  ``extra_info`` and sanity-bounded loosely (catches pathological
  regressions such as snapshotting the registry on every unit).
"""

from __future__ import annotations

import statistics
import time

from repro import obs
from repro.errormodels.models import ErrorModel
from repro.swinjector import SwCampaignConfig, run_epr_campaign

_CFG = dict(apps=("vectoradd",), models=(ErrorModel.WV, ErrorModel.IIO),
            injections_per_model=12, scale="tiny", seed=7, processes=1)

#: acceptance budget for the modeled direct overhead (ratio - 1)
_BUDGET = 0.05
#: loose wall-clock sanity bound (noise floor of shared machines)
_WALL_SANITY = 1.25
#: interleaved (disabled, enabled) timing pairs for the wall-clock ratio
_PAIRS = 5


def _run_campaign():
    return run_epr_campaign(SwCampaignConfig(**_CFG), chunk=4)


def _timed(enabled: bool) -> float:
    if enabled:
        obs.enable()
    else:
        obs.disable()
    try:
        t0 = time.perf_counter()
        _run_campaign()
        return time.perf_counter() - t0
    finally:
        obs.disable()


def _span_cost(iters: int = 20000) -> float:
    """Measured cost of one enabled span."""
    obs.enable()
    t0 = time.perf_counter()
    for _ in range(iters):
        with obs.span("bench.calibration", a=1, b=2):
            pass
    cost = (time.perf_counter() - t0) / iters
    obs.disable()
    return cost


def test_bench_disabled_span_is_noop(benchmark):
    obs.reset()

    def hot_loop():
        for _ in range(1000):
            with obs.span("never.recorded", k=1):
                pass

    benchmark(hot_loop)
    assert not obs.RECORDER.records()


def test_bench_enabled_overhead_under_budget(regen, benchmark):
    """Modeled direct instrumentation cost <= 5% of campaign wall time."""
    obs.reset()
    _run_campaign()  # warm golden cache + workload caches for both modes

    try:
        # wall-clock A/B (reported; loosely bounded)
        ratios = []
        for _ in range(_PAIRS):
            t_off = _timed(enabled=False)
            t_on = _timed(enabled=True)
            ratios.append(t_on / t_off if t_off > 0 else 1.0)
        wall_ratio = statistics.median(ratios)

        # modeled direct cost: how many records one traced run produces
        obs.reset()
        obs.enable()
        mark = obs.RECORDER.mark()
        t_traced = _timed(enabled=True)
        spans = obs.RECORDER.appended - mark
        per_span = _span_cost()
        # x2: headroom for the work that rides along with the spans
        # (counter increments, capture windows)
        modeled = (spans * per_span * 2) / t_traced
    finally:
        obs.reset()

    benchmark.extra_info["spans_per_run"] = spans
    benchmark.extra_info["span_cost_us"] = round(per_span * 1e6, 3)
    benchmark.extra_info["modeled_overhead"] = round(modeled, 4)
    benchmark.extra_info["wall_ratio_median"] = round(wall_ratio, 4)
    res = regen(_run_campaign)  # one benchmarked pass for the report
    assert res.outcomes
    assert modeled < _BUDGET, (
        f"modeled observability overhead {100 * modeled:.1f}% exceeds "
        f"{100 * _BUDGET:.0f}% budget ({spans} spans x "
        f"{per_span * 1e6:.1f}us x2 over {t_traced * 1e3:.1f}ms)")
    assert wall_ratio < _WALL_SANITY, (
        f"wall-clock ratio {wall_ratio:.3f} beyond sanity bound "
        f"{_WALL_SANITY} (pair ratios: "
        + ", ".join(f"{r:.3f}" for r in ratios) + ")")
