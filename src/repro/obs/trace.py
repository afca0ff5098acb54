"""Tracing layer: nested spans with monotonic timing and a ring buffer.

A span is opened with :func:`span` as a context manager::

    with span("epr.inject", app="gemm", model="WV"):
        ...

Finished spans are appended to the process-local :class:`Recorder` ring
buffer as plain dicts (the *event record* schema documented in
``docs/OBSERVABILITY.md``). Span ids embed the pid, so records from
fork-pool workers merge into the parent without collisions, and
``time.perf_counter`` is CLOCK_MONOTONIC-backed on Linux, so timestamps
from parent and forked workers share one timeline.

When observability is disabled (the default) :func:`span` returns a
shared no-op context manager — no allocation, no timing, no buffer
traffic.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque

from repro.obs._runtime import FLAG

#: finished-span ring capacity per process; oldest records drop first
DEFAULT_CAPACITY = 65536


class _NullSpan:
    """Shared do-nothing span used while observability is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs) -> "_NullSpan":
        return self


NULL_SPAN = _NullSpan()

_TLS = threading.local()


def _stack() -> list:
    stack = getattr(_TLS, "stack", None)
    if stack is None:
        stack = _TLS.stack = []
    return stack


class Span:
    """One live span; records itself into the recorder on exit."""

    __slots__ = ("name", "attrs", "span_id", "parent_id", "_t0", "_recorder")

    def __init__(self, recorder: "Recorder", name: str, attrs: dict):
        self.name = name
        self.attrs = attrs
        self._recorder = recorder
        self.span_id = recorder.next_id()
        self.parent_id: str | None = None
        self._t0 = 0.0

    def set(self, **attrs) -> "Span":
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        stack = _stack()
        self.parent_id = stack[-1].span_id if stack else None
        stack.append(self)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        t1 = time.perf_counter()
        stack = _stack()
        if stack and stack[-1] is self:
            stack.pop()
        else:  # unbalanced exit (e.g. entered pre-fork in the parent)
            try:
                stack.remove(self)
            except ValueError:
                pass
        rec = {
            "type": "span",
            "name": self.name,
            "ts": self._t0,
            "dur": t1 - self._t0,
            "pid": os.getpid(),
            "tid": threading.get_native_id(),
            "id": self.span_id,
            "parent": self.parent_id,
        }
        if exc_type is not None:
            rec["error"] = exc_type.__name__
        if self.attrs:
            rec["attrs"] = self.attrs
        self._recorder.add(rec)
        return False


class Recorder:
    """Bounded, thread-safe buffer of finished span/event records."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        self._buf: deque = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._seq = 0
        self._pid = 0
        self._pid_hex = ""
        self.appended = 0
        self.dropped = 0

    def next_id(self) -> str:
        pid = os.getpid()
        with self._lock:
            if pid != self._pid:  # first call, or we are a fresh fork
                self._pid = pid
                self._pid_hex = f"{pid:x}"
            self._seq += 1
            return f"{self._pid_hex}.{self._seq:x}"

    def add(self, rec: dict) -> None:
        with self._lock:
            if len(self._buf) == self._buf.maxlen:
                self.dropped += 1
            self._buf.append(rec)
            self.appended += 1

    # -- capture windows (per-unit worker capture) ---------------------
    def mark(self) -> int:
        """Opaque position marker for :meth:`since`."""
        return self.appended

    def since(self, mark: int) -> list[dict]:
        """Records appended after *mark* (bounded by ring capacity)."""
        with self._lock:
            n = min(self.appended - mark, len(self._buf))
            if n <= 0:
                return []
            buf = list(self._buf)
        return buf[-n:]

    def records(self) -> list[dict]:
        with self._lock:
            return list(self._buf)

    def drain(self) -> list[dict]:
        """Return and remove everything buffered (used by flush)."""
        with self._lock:
            out = list(self._buf)
            self._buf.clear()
            return out

    def clear(self) -> None:
        with self._lock:
            self._buf.clear()
            self.appended = 0
            self.dropped = 0
            self._seq = 0


#: the process singleton; forked workers inherit (and then diverge from)
#: its contents copy-on-write
RECORDER = Recorder()


def span(name: str, **attrs):
    """Open a nested span (no-op context manager when disabled)."""
    if not FLAG.on:
        return NULL_SPAN
    return Span(RECORDER, name, attrs)


def event(name: str, **attrs) -> None:
    """Record an instantaneous event under the current span (if any)."""
    if not FLAG.on:
        return
    stack = _stack()
    rec = {
        "type": "event",
        "name": name,
        "ts": time.perf_counter(),
        "pid": os.getpid(),
        "tid": threading.get_native_id(),
        "parent": stack[-1].span_id if stack else None,
    }
    if attrs:
        rec["attrs"] = attrs
    RECORDER.add(rec)
