"""Campaign telemetry: per-shard throughput, cache hit rate, retries.

Telemetry is a consumer of the engine's observability event stream: the
engine emits ``unit.commit`` / ``unit.retry`` events on
:data:`repro.obs.BUS` and subscribes :meth:`Telemetry.record` /
:meth:`Telemetry.note_retry` to them for the duration of each
``execute()`` call (calling the methods directly still works and is what
the tests do). "Items" are the campaign's native work quantum
(injections at the software level, faults at the gate level), so
``items_per_sec`` is directly the injections/sec figure the benchmarks
track.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable

from repro.campaign.engine import UnitResult


@dataclass
class ShardStats:
    units: int = 0
    items: int = 0
    elapsed: float = 0.0
    retries: int = 0
    failures: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    #: acceleration accounting merged across units (EPR: restores,
    #: saved_instructions, early_exits, skipped, collapsed, hang_cycles;
    #: gate: pairs_dropped, stimuli_deduped, lanes_refilled, replays)
    accel: dict = field(default_factory=dict)

    @property
    def items_per_sec(self) -> float:
        return self.items / self.elapsed if self.elapsed > 0 else 0.0

    def merge_accel(self, stats: dict | None) -> None:
        if not stats:
            return
        for k, v in stats.items():
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                continue
            self.accel[k] = self.accel.get(k, 0) + v

    def add(self, result: UnitResult) -> None:
        self.units += 1
        self.items += result.items
        self.elapsed += result.elapsed
        self.retries += result.retries
        self.failures += 0 if result.ok else 1
        self.cache_hits += result.cache_hits
        self.cache_misses += result.cache_misses
        self.merge_accel(result.accel)


class Telemetry:
    """Aggregates engine progress; optionally streams progress lines."""

    def __init__(self, progress: Callable[[str], None] | None = None,
                 every: int = 10):
        self.shards: dict[int, ShardStats] = defaultdict(ShardStats)
        self.started = time.perf_counter()
        self.degraded: str | None = None
        #: poison units parked in quarantine instead of failing the run
        self.quarantined = 0
        #: stalled workers the watchdog escalated on (SIGTERM / SIGKILL)
        self.watchdog_sigterms = 0
        self.watchdog_sigkills = 0
        #: misses/hits charged to cache warm-up (parent-side, pre-fork)
        self.warm_hits = 0
        self.warm_misses = 0
        self._progress = progress
        self._every = max(1, every)
        self._committed = 0

    # -- engine hooks --------------------------------------------------
    def record(self, result: UnitResult) -> None:
        self.shards[result.shard].add(result)
        self._committed += 1
        if self._progress and self._committed % self._every == 0:
            self._progress(self.progress_line())

    def note_retry(self, result: UnitResult) -> None:
        self.shards[result.shard].retries += 1

    def note_quarantined(self, result: UnitResult) -> None:
        """A poison unit was parked (also counted as a shard failure)."""
        self.quarantined += 1
        self.shards[result.shard].failures += 1

    def note_watchdog(self, summary: dict) -> None:
        self.watchdog_sigterms += summary.get("sigterm", 0)
        self.watchdog_sigkills += summary.get("sigkill", 0)

    def note_degraded(self, reason: str) -> None:
        self.degraded = reason
        if self._progress:
            self._progress(f"[campaign] degraded: {reason}")

    def note_warm(self, hits: int, misses: int) -> None:
        self.warm_hits += hits
        self.warm_misses += misses

    # -- aggregates ----------------------------------------------------
    @property
    def totals(self) -> ShardStats:
        t = ShardStats()
        for s in self.shards.values():
            t.units += s.units
            t.items += s.items
            t.elapsed += s.elapsed
            t.retries += s.retries
            t.failures += s.failures
            t.cache_hits += s.cache_hits
            t.cache_misses += s.cache_misses
            t.merge_accel(s.accel)
        return t

    def cache_hit_rate(self) -> float:
        t = self.totals
        hits = t.cache_hits + self.warm_hits
        misses = t.cache_misses + self.warm_misses
        return hits / (hits + misses) if hits + misses else 0.0

    def wall_elapsed(self) -> float:
        return time.perf_counter() - self.started

    def wall_items_per_sec(self) -> float:
        wall = self.wall_elapsed()
        return self.totals.items / wall if wall > 0 else 0.0

    def progress_line(self) -> str:
        t = self.totals
        saved = t.accel.get("saved_instructions", 0)
        saved = f", {saved} instr saved" if saved else ""
        quarantined = (f", {self.quarantined} quarantined"
                       if self.quarantined else "")
        return (f"[campaign] {t.units} units, {t.items} items{saved}, "
                f"{self.wall_items_per_sec():.1f} items/s, "
                f"cache {100 * self.cache_hit_rate():.1f}%, "
                f"{t.retries} retries, {t.failures} failures{quarantined}")

    def report(self) -> dict:
        t = self.totals
        return {
            "units": t.units,
            "items": t.items,
            "failures": t.failures,
            "retries": t.retries,
            "wall_seconds": round(self.wall_elapsed(), 3),
            "items_per_sec_wall": round(self.wall_items_per_sec(), 2),
            "cache_hit_rate": round(self.cache_hit_rate(), 4),
            "degraded": self.degraded,
            "quarantined": self.quarantined,
            "accel": dict(t.accel),
            "watchdog": {"sigterm": self.watchdog_sigterms,
                         "sigkill": self.watchdog_sigkills},
            "shards": {
                shard: {
                    "units": s.units,
                    "items": s.items,
                    "elapsed": round(s.elapsed, 3),
                    "items_per_sec": round(s.items_per_sec, 2),
                    "retries": s.retries,
                    "failures": s.failures,
                    "cache_hits": s.cache_hits,
                    "cache_misses": s.cache_misses,
                    "accel": dict(s.accel),
                }
                for shard, s in sorted(self.shards.items())
            },
        }
