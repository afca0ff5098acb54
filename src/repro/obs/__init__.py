"""Unified observability: tracing spans, metrics and sinks.

Three pillars, all dependency-free and near-zero-cost when disabled:

* **tracing** (:mod:`repro.obs.trace`) — nested :func:`span` context
  managers with monotonic timing, ring-buffered per process and merged
  across fork-pool workers at unit-commit time;
* **metrics** (:mod:`repro.obs.metrics`) — labeled counters with
  lossless mergeable snapshots, for the counts no unit result carries
  (``sim_instructions_total``);
* **sinks** (:mod:`repro.obs.sinks`) — a JSONL event log and metrics
  file written next to the campaign store by :func:`flush`, plus a
  chrome-tracing/Perfetto ``trace.json`` exporter driven by
  ``python -m repro.obs``.

Everything hangs off one module-level switch: :func:`enable` /
:func:`disable` (or ``REPRO_OBS=1`` via :func:`enable_from_env`).
Nothing here is a campaign's accounting: while the switch is off every
counter is a no-op, so a campaign's counts come from its unit results
(:func:`repro.campaign.store.fold_results`), which are always written.
"""

from __future__ import annotations

import os

from repro.obs import log, metrics, sinks, trace
from repro.obs._runtime import FLAG
from repro.obs.metrics import REGISTRY
from repro.obs.trace import RECORDER, event, span

__all__ = [
    "FLAG",
    "RECORDER",
    "REGISTRY",
    "absorb",
    "capture_begin",
    "capture_end",
    "disable",
    "enable",
    "enable_from_env",
    "enabled",
    "event",
    "flush",
    "log",
    "metrics",
    "reset",
    "sinks",
    "span",
    "trace",
]


def enable() -> None:
    FLAG.on = True


def disable() -> None:
    FLAG.on = False


def enabled() -> bool:
    return FLAG.on


def enable_from_env() -> bool:
    """Honor ``REPRO_OBS=1`` (also ``true``/``on``/``trace``)."""
    if os.environ.get("REPRO_OBS", "").lower() in ("1", "true", "on", "trace"):
        enable()
        return True
    return False


def reset() -> None:
    """Disable and discard all recorded state (test isolation helper)."""
    disable()
    RECORDER.clear()
    REGISTRY.reset()


# ---------------------------------------------------------------------
# worker-side unit capture (ring-buffer window + metrics delta)
# ---------------------------------------------------------------------

def capture_begin():
    """Start a capture window around one work unit. Returns an opaque
    token (``None`` when observability is disabled)."""
    if not FLAG.on:
        return None
    return (os.getpid(), RECORDER.mark(), REGISTRY.snapshot())


def capture_end(token) -> dict | None:
    """Close a capture window; returns the unit's observability payload
    (spans recorded and metrics accumulated during the window)."""
    if token is None or not FLAG.on:
        return None
    pid, mark, snap0 = token
    return {
        "pid": pid,
        "spans": RECORDER.since(mark),
        "metrics": metrics.diff(snap0, REGISTRY.snapshot()),
    }


def absorb(payload: dict | None) -> None:
    """Merge a worker's capture payload into this process.

    A payload produced by *this* process (serial execution) is already in
    the local recorder/registry and is skipped — absorbing is only for
    state that crossed a process boundary.
    """
    if not payload or not FLAG.on:
        return
    if payload.get("pid") == os.getpid():
        return
    for rec in payload.get("spans", ()):
        RECORDER.add(rec)
    REGISTRY.merge(payload.get("metrics"))


# ---------------------------------------------------------------------
# sinks
# ---------------------------------------------------------------------

def flush(directory) -> dict | None:
    """Drain the recorder and registry into *directory*.

    Appends buffered records to ``events.jsonl`` and merges the metrics
    snapshot into ``metrics.json``. Draining makes flush idempotent
    across run/resume invocations in one process. Returns the written
    paths, or ``None`` when observability is disabled.
    """
    if not FLAG.on:
        return None
    events_path = sinks.append_events(directory, RECORDER.drain())
    snapshot = REGISTRY.snapshot()
    REGISTRY.reset()
    metrics_path = sinks.write_metrics(directory, snapshot)
    return {"events": str(events_path), "metrics": str(metrics_path)}
