"""Per-layer ledger for the traced run.

Layers are timed from outside the program: :class:`Ledger` wraps public
functions and methods of each layer for the duration of a traced pass and
restores them afterwards. Nothing inside ``src/`` changes. A wrapper keeps
a stack of open calls, so every layer gets an inclusive time and a self
time (inclusive minus the wrapped calls nested inside it). Work counts come
from what the program already reports: unit-result ``accel`` dicts, the
golden/checkpoint cache miss counters and the ``repro.obs`` counters the
campaigns flush into each store's ``metrics.json``.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict

from repro import obs
from repro.common.exceptions import DeviceError

#: per-layer count metrics; two traced passes must agree on every one
COUNT_METRICS = (
    "goldens.golden_builds", "goldens.trace_builds",
    "engine.units", "store.appends",
    "accel.simulated", "accel.skipped", "accel.collapsed", "accel.restores",
    "accel.early_exits", "accel.saved_instr",
    "inject.masked_n", "inject.sdc_n", "inject.due_hang_n",
    "inject.due_other_n",
    "hooks.calls",
    "device.launches", "device.raised", "device.warp_instr",
    "executor.sim_instr",
    "snapshot.restores",
    "logicsim.cycles", "gate.pairs_dropped", "gate.lanes_refilled",
)

INJECT_BUCKETS = ("masked", "sdc", "due_hang", "due_other")


def unit_of(metric: str) -> str:
    if metric in COUNT_METRICS:
        return "count"
    return "ns" if ".ns_" in metric else "s"


def _inject_bucket(outcome) -> str:
    if outcome.outcome != "due":
        return outcome.outcome
    return "due_hang" if outcome.due_reason == "watchdog-timeout" \
        else "due_other"


class Ledger:
    """Inclusive/self time and call counts per layer, plus named counts."""

    def __init__(self) -> None:
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list[float]] = []
        self._undo: list = []
        #: ``module.attr`` targets that do not exist in this version
        self.missing: list[str] = []

    # -- wrapping ------------------------------------------------------
    def timed(self, layer, fn, on_exit=None):
        """Wrap *fn* as layer *layer*. ``on_exit(ledger, result, exc,
        args, kwargs, dt)`` may return a different layer name for this
        call (e.g. bucketed by outcome) and record counts."""
        ledger = self

        def wrapper(*args, **kwargs):
            child = [0.0]
            ledger._stack.append(child)
            result, exc = None, None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                dt = time.perf_counter() - t0
                ledger._stack.pop()
                if ledger._stack:
                    ledger._stack[-1][0] += dt
                name = layer
                if on_exit is not None:
                    name = on_exit(ledger, result, exc, args, kwargs,
                                   dt) or layer
                ledger.total[name] += dt
                ledger.self_time[name] += dt - child[0]
                ledger.calls[name] += 1

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, target: str, attr: str, layer: str, on_exit=None,
              owner=None) -> None:
        """Replace ``target.attr`` (a module path, or *owner* itself) with
        a timed wrapper until :meth:`restore`."""
        if owner is None:
            owner = importlib.import_module(target)
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(f"{target}.{attr}")
            return
        self._replace(owner, attr, self.timed(layer, fn, on_exit))

    def _replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, vars(owner).get(attr, _ABSENT)))
        setattr(owner, attr, new)

    def restore(self) -> None:
        for owner, attr, own in reversed(self._undo):
            if own is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)
        self._undo.clear()

    # -- the layers ----------------------------------------------------
    def install(self) -> None:
        from repro.campaign import engine, goldens
        from repro.campaign.store import CampaignStore
        from repro.gatelevel.sim import LogicSim
        from repro.gpusim.device import Device
        from repro.gpusim.snapshot import LaunchResume
        from repro.swinjector.instrumentation import NVBitPERfi

        self.patch("GOLDEN_CACHE", "get", "goldens.golden",
                   owner=goldens.GOLDEN_CACHE)
        self.patch("CHECKPOINT_CACHE", "get", "goldens.trace",
                   owner=goldens.CHECKPOINT_CACHE)
        for mod in ("repro.campaign.engine", "repro.swinjector.campaign"):
            self.patch(mod, "execute", "engine.execute")
        # the engine looks its runner up per unit: hand out timed runners
        get_runner = engine.get_runner
        self._replace(engine, "get_runner", lambda kind: self.timed(
            "engine.runner", get_runner(kind)))
        self.patch("CampaignStore", "append_result", "store.append",
                   owner=CampaignStore)
        self.patch("repro.swinjector.accel", "activation_sites",
                   "accel.plan")
        for mod, attr in (("repro.swinjector.accel",
                           "run_one_injection_accel"),
                          ("repro.swinjector.campaign",
                           "run_one_injection")):
            self.patch(mod, attr, "inject", on_exit=_on_inject)
        for attr in ("before", "after"):
            self.patch("NVBitPERfi", attr, "hooks", owner=NVBitPERfi)
        self.patch("Device", "launch", "device.launch", on_exit=_on_launch,
                   owner=Device)
        for mod in ("repro.gpusim.snapshot", "repro.swinjector.accel"):
            self.patch(mod, "restore_device", "snapshot.restore",
                       on_exit=_on_restore)
        self.patch("LaunchResume", "make_warps", "snapshot.restore",
                   owner=LaunchResume)
        self.patch("repro.profiling", "profile_workloads", "gate.stimuli")
        self.patch("repro.faultinjection.campaign", "build_unit",
                   "gate.build")
        self.patch("repro.faultinjection.campaign", "_golden_run",
                   "gate.golden")
        self.patch("LogicSim", "cycle", "logicsim.cycle", on_exit=_on_cycle,
                   owner=LogicSim)

    # -- metrics -------------------------------------------------------
    def metrics(self, result, golden_builds: int,
                trace_builds: int) -> dict[str, float]:
        """Per-layer metrics of one traced pass (*result* is its
        :class:`~campaigns.PassResult`)."""
        accel = Counter()
        for r in result.units:
            a = r.accel if r.ok else None
            for k, v in (a or {}).items():
                if isinstance(v, (int, float)) and not isinstance(v, bool):
                    accel[k] += v
        counters = Counter()
        for d in result.dirs:
            snap = obs.sinks.read_metrics(d) or {}
            for name, series in snap.get("counters", {}).items():
                counters[name] += sum(series.values())
        c, t = self.counts, self.total
        m = {
            "goldens.golden_s": t["goldens.golden"],
            "goldens.golden_builds": golden_builds,
            "goldens.trace_s": t["goldens.trace"],
            "goldens.trace_builds": trace_builds,
            "engine.units": self.calls["engine.runner"],
            "engine.overhead_s": t["engine.execute"] - t["engine.runner"],
            "store.appends": self.calls["store.append"],
            "store.append_s": t["store.append"],
            "accel.plan_s": t["accel.plan"],
            "accel.skipped": accel["skipped"],
            "accel.collapsed": accel["collapsed"],
            "accel.restores": accel["restores"],
            "accel.early_exits": accel["early_exits"],
            "accel.saved_instr": accel["saved_instructions"],
            "hooks.calls": self.calls["hooks"],
            "hooks.s": t["hooks"],
            "device.launches": c["launches"],
            "device.raised": c["raised"],
            "device.launch_s": t["device.launch"],
            "device.warp_instr": c["warp_instr"],
            "executor.ns_per_warp_instr":
                1e9 * c["complete_s"] / max(c["warp_instr"], 1),
            "executor.sim_instr": counters["sim_instructions_total"],
            "snapshot.restores": c["restores"],
            "snapshot.restore_s": t["snapshot.restore"],
            "gate.stimuli_s": t["gate.stimuli"],
            "gate.build_s": t["gate.build"],
            "gate.golden_s": t["gate.golden"],
            "logicsim.cycles": self.calls["logicsim.cycle"],
            "logicsim.cycle_s": t["logicsim.cycle"],
            "logicsim.ns_per_lane_cycle":
                1e9 * t["logicsim.cycle"] / max(c["lane_cycles"], 1),
            "gate.pairs_dropped": accel["pairs_dropped"],
            "gate.lanes_refilled": accel["lanes_refilled"],
        }
        # injections that ran the simulator (EPR only; gate units report
        # their own accel keys and no injections)
        simulated = sum(self.calls[f"inject.{b}"] for b in INJECT_BUCKETS)
        m["accel.simulated"] = max(simulated - accel["skipped"], 0)
        for b in INJECT_BUCKETS:
            m[f"inject.{b}_s"] = t[f"inject.{b}"]
            m[f"inject.{b}_n"] = self.calls[f"inject.{b}"]
        return m

    def table(self, wall_s: float) -> list[str]:
        """The per-layer rows: calls, inclusive and self seconds, and self
        time as a share of the pass wall time."""
        rows = [f"{'layer':<18} {'calls':>9} {'incl_s':>9} {'self_s':>9} "
                f"{'self%':>6}"]
        for name in sorted(self.calls, key=lambda n: -self.self_time[n]):
            if not self.calls[name]:
                continue
            rows.append(
                f"{name:<18} {self.calls[name]:>9} {self.total[name]:>9.3f} "
                f"{self.self_time[name]:>9.3f} "
                f"{100 * self.self_time[name] / wall_s:>5.1f}%")
        return rows


_ABSENT = object()


def _on_inject(ledger, result, exc, args, kwargs, dt):
    if result is None:
        return "inject.error"
    return f"inject.{_inject_bucket(result)}"


def _on_launch(ledger, result, exc, args, kwargs, dt):
    c = ledger.counts
    c["launches"] += 1
    if result is None:
        if isinstance(exc, DeviceError):
            c["raised"] += 1
        return None
    resume = kwargs.get("resume")
    done = result.instructions_executed - (resume.executed if resume else 0)
    c["warp_instr"] += done
    c["complete_s"] += dt
    return None


def _on_restore(ledger, result, exc, args, kwargs, dt):
    ledger.counts["restores"] += 1


def _on_cycle(ledger, result, exc, args, kwargs, dt):
    ledger.counts["lane_cycles"] += 64 * args[0].num_words
