"""Labeled counters.

All counters live in a process-local :class:`MetricsRegistry`. Snapshots
are plain JSON-able dicts (``{"counters": {name: {labelkey: value}}}``)
and merge losslessly: fork-pool workers capture a per-unit *delta*
snapshot (:func:`diff`) that travels back to the parent inside the unit
result, where :meth:`MetricsRegistry.merge` adds it into the parent
registry.

Label sets are encoded as the canonical string ``"k1=v1,k2=v2"`` (keys
sorted), so snapshots stay flat JSON objects.
"""

from __future__ import annotations

import threading

from repro.obs._runtime import FLAG


def labelkey(labels: dict) -> str:
    """Canonical string form of a label set (sorted ``k=v`` pairs)."""
    if not labels:
        return ""
    return ",".join(f"{k}={labels[k]}" for k in sorted(labels))


def parse_labelkey(key: str) -> dict:
    """Inverse of :func:`labelkey` (values come back as strings)."""
    if not key:
        return {}
    return dict(pair.split("=", 1) for pair in key.split(","))


class Counter:
    """Monotonically increasing value per label set."""

    __slots__ = ("name", "_values", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._values: dict[str, float] = {}
        self._lock = threading.Lock()

    def inc(self, amount: float = 1, **labels) -> None:
        if not FLAG.on:
            return
        key = labelkey(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0) + amount

    def value(self, **labels) -> float:
        return self._values.get(labelkey(labels), 0)

    def total(self) -> float:
        """Sum over every label set."""
        return sum(self._values.values())


class MetricsRegistry:
    """Process-local registry of named counters.

    Counters are created once and then held by call sites as
    module-level handles, so :meth:`reset` clears their *values* in
    place rather than discarding the objects.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._lock = threading.Lock()

    def counter(self, name: str) -> Counter:
        with self._lock:
            m = self._counters.get(name)
            if m is None:
                m = self._counters[name] = Counter(name)
            return m

    def snapshot(self) -> dict:
        """JSON-able copy of every non-empty counter."""
        return {"counters": {n: dict(c._values)
                             for n, c in self._counters.items() if c._values}}

    def merge(self, snap: dict | None) -> None:
        """Add a snapshot (typically a worker delta) into this registry."""
        if not snap:
            return
        for name, values in snap.get("counters", {}).items():
            c = self.counter(name)
            with c._lock:
                for key, val in values.items():
                    c._values[key] = c._values.get(key, 0) + val

    def reset(self) -> None:
        """Clear all recorded values (counter handles stay valid)."""
        for c in self._counters.values():
            with c._lock:
                c._values.clear()


def diff(before: dict, after: dict) -> dict:
    """Delta snapshot ``after - before`` (for worker-side unit capture)."""
    out: dict = {"counters": {}}
    for name, values in after.get("counters", {}).items():
        base = before.get("counters", {}).get(name, {})
        d = {k: v - base.get(k, 0)
             for k, v in values.items() if v != base.get(k, 0)}
        if d:
            out["counters"][name] = d
    return out


def merge_snapshots(a: dict | None, b: dict | None) -> dict:
    """Combine two snapshots additively (for cumulative ``metrics.json``)."""
    tmp = MetricsRegistry()
    tmp.merge(a)
    tmp.merge(b)
    return tmp.snapshot()


#: the process singleton; forked workers inherit it copy-on-write
REGISTRY = MetricsRegistry()
