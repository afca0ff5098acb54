"""Liveness: worker heartbeats, stall watchdog, signal-safe shutdown.

The campaign engine's per-unit timeout bounds how long the *parent*
waits for a result, but it cannot reclaim the CPU a stalled worker is
burning, and ``Pool.terminate`` only sends SIGTERM — a worker stuck in
native code (or chaos-hung) can ignore that. The pieces here close the
gap:

* :class:`Heartbeats` — a tiny shared-memory board; each fork-pool
  worker stamps the wall-clock time it started its current unit and
  clears it when done;
* :class:`Watchdog` — a parent-side daemon thread that scans the board
  and escalates on any worker stalled past the unit timeout: SIGTERM
  first, SIGKILL after a grace period. Escalations are counted and
  reported as ``engine.watchdog`` obs events and log warnings;
* :class:`SignalGuard` — installs SIGINT/SIGTERM handlers that request
  a *cooperative* stop: the engine finishes committing the results it
  already has (the store is append-only and checksummed, so the
  directory stays resumable) and raises :class:`CampaignInterrupted`,
  which the CLI maps to the conventional ``128 + signum`` exit code.
  A second signal kills the process immediately.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import threading
import time
from typing import Callable

from repro.common.exceptions import ReproError


class CampaignInterrupted(ReproError):
    """The campaign parent received SIGINT/SIGTERM and checkpointed.

    Raised by ``engine.execute`` after the already-finished units were
    committed to the store; ``results`` holds them for library callers.
    """

    def __init__(self, signum: int, committed: int):
        try:
            name = signal.Signals(signum).name
        except ValueError:
            name = f"signal {signum}"
        super().__init__(
            f"campaign interrupted by {name}; {committed} unit result(s) "
            f"checkpointed — finish with `python -m repro.campaign resume`")
        self.signum = signum
        self.committed = committed
        self.results: dict = {}

    @property
    def exit_code(self) -> int:
        return 128 + self.signum


# ---------------------------------------------------------------------
# heartbeats
# ---------------------------------------------------------------------

class Heartbeats:
    """Shared-memory heartbeat board for fork-pool workers.

    Lock-free on the hot path: a worker owns its slot exclusively, the
    parent only reads (and clears slots of workers it has killed). A
    torn double read can at worst trigger one spurious scan iteration.
    """

    def __init__(self, slots: int):
        ctx = mp.get_context("fork")
        self.slots = slots
        self._pids = ctx.Array("l", slots, lock=False)
        self._beats = ctx.Array("d", slots, lock=False)
        self._next = ctx.Value("i", 0)

    def register(self) -> int:
        """Claim a slot for this process; -1 when the board is full
        (the worker then simply runs without a heartbeat)."""
        with self._next.get_lock():
            if self._next.value >= self.slots:
                return -1
            slot = self._next.value
            self._next.value += 1
        self._pids[slot] = os.getpid()
        self._beats[slot] = 0.0
        return slot

    def start(self, slot: int) -> None:
        if slot >= 0:
            self._beats[slot] = time.time()

    def clear(self, slot: int) -> None:
        if slot >= 0:
            self._beats[slot] = 0.0

    def stalled(self, older_than: float) -> list[tuple[int, int, float]]:
        """(slot, pid, stalled_seconds) for every worker whose current
        unit started more than *older_than* seconds ago."""
        now = time.time()
        out = []
        for slot in range(min(self._next.value, self.slots)):
            beat = self._beats[slot]
            if beat and 0 < now - beat > older_than:
                out.append((slot, int(self._pids[slot]), now - beat))
        return out


# ---------------------------------------------------------------------
# watchdog
# ---------------------------------------------------------------------

class Watchdog:
    """Parent-side stall monitor: SIGTERM, then SIGKILL, stalled workers.

    The pool's result plumbing still times the unit out and retries it;
    the watchdog's job is to actually free the worker's CPU (and prove,
    under chaos ``hang`` faults, that a stuck worker cannot outlive the
    campaign).
    """

    def __init__(self, heartbeats: Heartbeats, timeout: float, *,
                 grace: float = 2.0, kill_grace: float = 2.0,
                 poll: float = 0.25,
                 on_escalate: Callable[[int, str], None] | None = None):
        self.heartbeats = heartbeats
        self.timeout = timeout
        self.grace = grace
        self.kill_grace = kill_grace
        self.poll = poll
        self.on_escalate = on_escalate
        self.sigterms = 0
        self.sigkills = 0
        #: (slot, pid) -> SIGTERM time. Keyed by slot *and* pid (and
        #: dropped when the slot is cleared) so a pool replacement
        #: worker that reuses a killed worker's pid is still eligible
        #: for escalation when it stalls.
        self._termed: dict[tuple[int, int], float] = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="campaign-watchdog")

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)

    def _signal(self, pid: int, signum: int) -> bool:
        try:
            os.kill(pid, signum)
            return True
        except (ProcessLookupError, PermissionError):
            return False

    def _run(self) -> None:
        me = os.getpid()
        while not self._stop.wait(self.poll):
            for slot, pid, _ in self.heartbeats.stalled(
                    self.timeout + self.grace):
                if pid <= 0 or pid == me:
                    continue
                key = (slot, pid)
                termed_at = self._termed.get(key)
                if termed_at is None:
                    if self._signal(pid, signal.SIGTERM):
                        self.sigterms += 1
                        self._termed[key] = time.time()
                        if self.on_escalate:
                            self.on_escalate(pid, "SIGTERM")
                    else:  # already gone; free the slot
                        self.heartbeats.clear(slot)
                elif time.time() - termed_at > self.kill_grace:
                    if self._signal(pid, signal.SIGKILL):
                        self.sigkills += 1
                        if self.on_escalate:
                            self.on_escalate(pid, "SIGKILL")
                    self._termed.pop(key, None)
                    self.heartbeats.clear(slot)


# ---------------------------------------------------------------------
# cooperative shutdown
# ---------------------------------------------------------------------

class SignalGuard:
    """Scoped SIGINT/SIGTERM handler requesting a cooperative stop.

    Active only on the main thread of the main interpreter (``signal``
    refuses handlers elsewhere); otherwise it is an inert no-op, so the
    engine can use it unconditionally. The first signal sets
    :attr:`requested`; a second one restores the default handler and
    re-raises itself, so a wedged campaign can still be killed with a
    double Ctrl-C.
    """

    def __init__(self, signums=(signal.SIGINT, signal.SIGTERM)):
        self.signums = signums
        self.requested = False
        self.signum: int | None = None
        self._saved: dict = {}

    @property
    def active(self) -> bool:
        return bool(self._saved)

    def _handle(self, signum, frame) -> None:
        if self.requested:  # second signal: stop cooperating
            signal.signal(signum, signal.SIG_DFL)
            os.kill(os.getpid(), signum)
            return
        self.requested = True
        self.signum = signum

    def __enter__(self) -> "SignalGuard":
        if threading.current_thread() is not threading.main_thread():
            return self
        for signum in self.signums:
            try:
                self._saved[signum] = signal.signal(signum, self._handle)
            except (ValueError, OSError):  # non-main interpreter, etc.
                pass
        return self

    def __exit__(self, *exc) -> None:
        for signum, handler in self._saved.items():
            try:
                signal.signal(signum, handler)
            except (ValueError, OSError):
                pass
        self._saved.clear()
