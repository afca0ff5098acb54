"""Campaign execution engine: deterministic work units, fault-tolerant pool.

A campaign is a list of :class:`WorkUnit`\\ s. Each unit is executed by the
runner registered for its ``kind`` (see :func:`register_runner`) and yields
a JSON-serializable result dict. Units are independent and individually
seeded (every random stream derives from the campaign seed plus the unit's
stable identity via :func:`repro.common.rng.derive_seed`), so the engine is
free to schedule them on any number of workers — serially, or on a
``fork`` process pool — and the aggregated campaign result is identical.

The executor is deliberately fault-tolerant tooling *for* a fault-injection
tool: per-unit timeouts, bounded retries with exponential backoff, a
``fail_fast`` mode that re-raises a worker's traceback in the parent, and
graceful degradation to serial execution when a pool cannot be created.
The resilience layer (:mod:`repro.resilience`) adds liveness and
degradation on top:

* a :class:`~repro.resilience.watchdog.Watchdog` thread kills workers
  stalled past the unit timeout (SIGTERM, then SIGKILL);
* parent SIGINT/SIGTERM checkpoints the committed results and raises
  :class:`~repro.resilience.watchdog.CampaignInterrupted` so the store
  stays resumable;
* a unit that exhausts its retries — or takes a worker down twice — is
  parked in the store's ``quarantine.jsonl`` instead of failing the
  campaign (see docs/RESILIENCE.md);
* chaos hook points (:mod:`repro.resilience.chaos`) let the test suite
  inject worker crashes and hangs into real runs.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal as _signal
import time
import traceback
from dataclasses import dataclass, fields
from typing import Any, Callable, Iterable, Sequence

from repro import obs
from repro.common.exceptions import ConfigError, ReproError
from repro.obs import log
from repro.resilience import chaos
from repro.resilience.watchdog import (
    CampaignInterrupted,
    Heartbeats,
    SignalGuard,
    Watchdog,
)

#: hard cap on the default pool size; campaigns scale past this only when
#: the caller (or REPRO_PROCESSES) asks explicitly.
MAX_DEFAULT_PROCESSES = 8

#: granularity of the result-polling loop (signal responsiveness)
_POLL_SECONDS = 0.2

#: hard failures (the worker was lost, not just wrong) before a unit is
#: declared poison and quarantined even with retry budget left
HARD_FAIL_LIMIT = 2

#: error-message prefixes of hard failures
_TIMEOUT_PREFIX = "timed out after"
_POOL_FAILURE_PREFIX = "pool failure:"


def default_processes() -> int:
    """Pool size used when a campaign config does not pin one.

    ``min(available cores, 8)``, overridable with the ``REPRO_PROCESSES``
    environment variable (documented in README.md / docs/CAMPAIGNS.md).
    """
    env = os.environ.get("REPRO_PROCESSES")
    if env:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise ConfigError(
                f"REPRO_PROCESSES must be an integer, got {env!r}") from exc
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        cores = os.cpu_count() or 1
    return max(1, min(cores, MAX_DEFAULT_PROCESSES))


class CampaignUnitError(ReproError):
    """A work unit raised; re-thrown in the parent under ``fail_fast``."""

    def __init__(self, unit_id: str, remote_traceback: str):
        super().__init__(
            f"work unit {unit_id!r} failed:\n{remote_traceback}")
        self.unit_id = unit_id
        self.remote_traceback = remote_traceback


@dataclass(frozen=True)
class WorkUnit:
    """One independent, deterministic slice of a campaign."""

    #: stable identity, unique within the plan (e.g. ``epr/gemm/WV/00005+5``)
    unit_id: str
    #: campaign kind; selects the registered runner
    kind: str
    #: runner parameters; must be picklable (JSON-serializable preferred)
    payload: dict


@dataclass
class UnitResult:
    """Outcome of one work unit (one line of ``results.jsonl``)."""

    unit_id: str
    kind: str
    ok: bool
    value: dict | None = None
    error: str | None = None
    retries: int = 0
    elapsed: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    #: transient observability payload (worker spans + metrics delta);
    #: absorbed by the parent at commit time, never serialized — with
    #: observability disabled results.jsonl is byte-identical to before
    obs: dict | None = None

    @property
    def items(self) -> int:
        """Number of injections/faults this unit covered (for throughput)."""
        if self.ok and isinstance(self.value, dict):
            n = self.value.get("items")
            if isinstance(n, int):
                return n
        return 0

    @property
    def accel(self) -> dict | None:
        """Per-unit acceleration accounting (restores, saved instructions,
        dropped pairs, ...) reported by the runner, or None."""
        if self.ok and isinstance(self.value, dict):
            a = self.value.get("accel")
            if isinstance(a, dict):
                return a
        return None

    @property
    def hard_failure(self) -> bool:
        """True when the worker was lost (timeout / pool crash), not
        merely wrong — the signature of a poison unit."""
        return bool(self.error) and self.error.startswith(
            (_TIMEOUT_PREFIX, _POOL_FAILURE_PREFIX))

    def to_json(self) -> dict:
        """The stored fields, without ``obs``. Shallow: ``value`` is the
        runner's own dict, not a copy (``json.dumps`` only reads it)."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name != "obs"}

    @classmethod
    def from_json(cls, data: dict) -> "UnitResult":
        return cls(**data)


# ---------------------------------------------------------------------
# runner registry + per-campaign context
# ---------------------------------------------------------------------

_RUNNERS: dict[str, Callable[[dict], dict]] = {}

#: large shared inputs (stimuli, golden traces) installed by the submitting
#: campaign *before* the pool forks; workers inherit it copy-on-write
#: instead of receiving a pickled copy per unit.
_CONTEXT: dict[str, Any] = {}


def register_runner(kind: str):
    """Decorator: register the module-level function executing *kind* units."""

    def deco(fn: Callable[[dict], dict]) -> Callable[[dict], dict]:
        _RUNNERS[kind] = fn
        return fn

    return deco


def get_runner(kind: str) -> Callable[[dict], dict]:
    if kind not in _RUNNERS:
        # runners live in the campaign modules; import lazily so resuming
        # from the CLI works without the caller pre-importing the layer
        from repro.campaign.plans import ensure_kind_loaded

        ensure_kind_loaded(kind)
    try:
        return _RUNNERS[kind]
    except KeyError:
        raise ConfigError(f"no runner registered for campaign kind {kind!r}")


def set_context(context: dict | None) -> None:
    global _CONTEXT
    _CONTEXT = dict(context or {})


def get_context() -> dict:
    return _CONTEXT


# ---------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class EngineConfig:
    """Executor knobs (all orthogonal to campaign semantics)."""

    #: worker processes; 0 means :func:`default_processes`
    processes: int = 0
    #: per-unit wall-clock budget in pool mode (the simulator watchdog is
    #: the first line of defence; this is the backstop)
    timeout: float = 600.0
    #: how many times a failed/timed-out unit is re-run before being
    #: recorded as a failure
    retries: int = 2
    #: base of the exponential backoff slept between retry waves
    backoff: float = 0.25
    #: re-raise the first worker exception (with its remote traceback)
    #: instead of retrying/recording it
    fail_fast: bool = False
    #: stop after this many units (used to simulate interruption and to
    #: bound smoke runs); remaining units stay pending for ``resume``
    max_units: int | None = None
    #: slack added to ``timeout`` before the stalled-worker watchdog
    #: (pool mode) fires, and grace between its SIGTERM and SIGKILL
    watchdog_grace: float = 2.0


#: pid of the process that imported the engine (the campaign parent).
#: Fork-pool workers inherit this value but report a different getpid(),
#: which is how a unit knows its spans/metrics must be shipped back.
_MAIN_PID = os.getpid()

#: (heartbeat board, slot) claimed by this pool worker, set by
#: :func:`_worker_init`; ``None`` in the parent and in serial mode
_HEARTBEAT: tuple[Heartbeats, int] | None = None


def _worker_init(heartbeats: Heartbeats) -> None:
    """Fork-pool initializer: reset inherited signal dispositions and
    claim a heartbeat slot for this worker.

    The parent installs :class:`SignalGuard` handlers *before* the pool
    forks, so workers inherit them — and a worker that "handles" SIGTERM
    by setting a flag would survive both ``Pool.terminate()`` and the
    watchdog's SIGTERM stage, leaving ``pool.join()`` blocked on a
    stalled worker. Restore SIGTERM to its default (die) and ignore
    SIGINT: interrupts are the parent's job, handled cooperatively.
    """
    global _HEARTBEAT
    _signal.signal(_signal.SIGTERM, _signal.SIG_DFL)
    _signal.signal(_signal.SIGINT, _signal.SIG_IGN)
    _HEARTBEAT = (heartbeats, heartbeats.register())


def _execute_unit(unit: WorkUnit, attempt: int = 0) -> UnitResult:
    """Worker-side wrapper: run, time, and account one unit.

    The capture window collects the spans and metric increments produced
    while the unit ran; they travel back to the parent in the (transient)
    ``obs`` field of the result and are merged at commit time. Capture is
    only worth paying for across a process boundary — serial units write
    straight into the parent's recorder/registry.
    """
    from repro.campaign.goldens import GOLDEN_CACHE

    in_worker = os.getpid() != _MAIN_PID
    # heartbeat first: a chaos-hung worker must be visible to the watchdog
    if _HEARTBEAT is not None:
        _HEARTBEAT[0].start(_HEARTBEAT[1])
    if chaos.ACTIVE is not None and in_worker:
        chaos.worker_hook(unit.unit_id, attempt)
    h0, m0 = GOLDEN_CACHE.hits, GOLDEN_CACHE.misses
    token = obs.capture_begin() if in_worker else None
    t0 = time.perf_counter()
    try:
        with obs.span("engine.unit", unit=unit.unit_id, kind=unit.kind):
            value = get_runner(unit.kind)(unit.payload)
        ok, error = True, None
    except Exception:
        value, ok, error = None, False, traceback.format_exc()
    finally:
        if _HEARTBEAT is not None:
            _HEARTBEAT[0].clear(_HEARTBEAT[1])
    elapsed = time.perf_counter() - t0
    return UnitResult(
        unit_id=unit.unit_id, kind=unit.kind, ok=ok,
        value=value, error=error, elapsed=elapsed,
        cache_hits=GOLDEN_CACHE.hits - h0,
        cache_misses=GOLDEN_CACHE.misses - m0,
        obs=obs.capture_end(token),
    )


def _run_wave_serial(units: Sequence[WorkUnit],
                     settle: Callable[[UnitResult], None],
                     guard: SignalGuard, attempt: int = 0) -> bool:
    """One attempt over *units* in this process, each result handed to
    *settle* as it arrives. Returns whether a shutdown signal left a unit
    unrun (a signal that arrives during the last unit cuts nothing)."""
    for u in units:
        if guard.requested:
            return True
        settle(_execute_unit(u, attempt))
    return False


def _run_wave_pool(units: Sequence[WorkUnit], processes: int,
                   options: EngineConfig,
                   settle: Callable[[UnitResult], None],
                   guard: SignalGuard, attempt: int = 0) -> bool | None:
    """One attempt over *units* on a fork pool, with per-unit timeouts;
    each result is handed to *settle* as it arrives, in unit order.

    A timed-out unit is recorded as a retryable (hard) failure; the pool
    is terminated afterwards so a hung worker cannot leak into later
    waves, and the watchdog reclaims stalled workers mid-wave. Returns
    whether a shutdown signal cut the wave short, or ``None`` when no
    pool could be created (the caller runs the wave serially).
    """
    ctx = mp.get_context("fork")
    try:
        heartbeats = Heartbeats(processes + 32)
        pool = ctx.Pool(processes, initializer=_worker_init,
                        initargs=(heartbeats,))
    except (OSError, ValueError) as exc:
        # no fork / fd exhaustion / bad pool size: degrade, don't die
        reason = f"pool unavailable ({exc})"
        obs.event("engine.degraded", reason=reason)
        log.warning(f"[campaign] degraded: {reason}; running serially")
        return None
    watchdog = Watchdog(
        heartbeats, options.timeout, grace=options.watchdog_grace,
        kill_grace=options.watchdog_grace, on_escalate=_note_escalation)
    watchdog.start()
    interrupted = False
    dirty = False  # a worker was lost or the wave was cut short
    try:
        handles = [(u, pool.apply_async(_execute_unit, (u, attempt)))
                   for u in units]
        for u, h in handles:
            deadline = time.monotonic() + options.timeout
            result = None
            while result is None:
                if guard.requested:
                    interrupted = True
                    break
                try:
                    result = h.get(_POLL_SECONDS)
                except mp.TimeoutError:
                    if time.monotonic() >= deadline:
                        dirty = True
                        result = UnitResult(
                            unit_id=u.unit_id, kind=u.kind, ok=False,
                            error=f"{_TIMEOUT_PREFIX} "
                                  f"{options.timeout:.0f}s",
                            elapsed=options.timeout)
                except Exception:
                    dirty = True
                    result = UnitResult(
                        unit_id=u.unit_id, kind=u.kind, ok=False,
                        error=f"{_POOL_FAILURE_PREFIX}\n"
                              f"{traceback.format_exc()}")
            if interrupted:
                break
            settle(result)
    except BaseException:
        dirty = True  # settle raised: do not wait for the rest of the wave
        raise
    finally:
        watchdog.stop()
        if watchdog.sigterms or watchdog.sigkills:
            dirty = True
        if dirty or interrupted:
            pool.terminate()
        else:
            pool.close()
        pool.join()
    return interrupted


def _note_escalation(pid: int, sig: str) -> None:
    """Watchdog callback: a stalled worker was sent *sig*."""
    obs.event("engine.watchdog", pid=pid, signal=sig)
    log.warning(f"[campaign] watchdog: {sig} to stalled worker {pid}")


def execute(units: Iterable[WorkUnit],
            options: EngineConfig | None = None, *,
            context: dict | None = None,
            store=None,
            completed: Iterable[str] = (),
            on_result: Callable[[UnitResult], None] | None = None,
            ) -> dict[str, UnitResult]:
    """Run *units*, skipping ids in *completed* (and in *store*).

    Returns the results produced by **this** call, keyed by unit id; a
    resuming caller merges them with ``store.load_results()``. Completed
    units are appended to *store* (if given) as they finish, so an
    interrupted campaign loses at most the in-flight units. Parent
    SIGINT/SIGTERM (main thread only) raises :class:`CampaignInterrupted`
    *after* the already-finished units were committed (``.results``
    carries them). *context* is installed for the units of this call
    only; the previous context is back when it returns.
    """
    options = options or EngineConfig()
    processes = options.processes or default_processes()

    skip = set(completed)
    if store is not None:
        skip |= store.completed_ids()
        skip |= store.quarantined_ids()
    pending = [u for u in units if u.unit_id not in skip]
    if options.max_units is not None:
        pending = pending[:options.max_units]

    done: dict[str, UnitResult] = {}
    hard_fails: dict[str, int] = {}

    def commit(result: UnitResult, quarantine_reason: str | None = None
               ) -> None:
        done[result.unit_id] = result
        obs.absorb(result.obs)
        result.obs = None
        if quarantine_reason is not None:
            obs.event("unit.quarantine", unit=result.unit_id,
                      reason=quarantine_reason)
            if store is not None:
                store.append_quarantine(result, quarantine_reason)
        elif store is not None:
            store.append_result(result)
        if on_result is not None:
            on_result(result)

    attempt = 0
    by_id: dict[str, WorkUnit] = {}
    retry: list[WorkUnit] = []

    def settle(r: UnitResult) -> None:
        """Commit *r* the moment it arrives, or queue its unit for the
        next wave."""
        r.retries = attempt
        if r.ok:
            commit(r)
            return
        if options.fail_fast:
            raise CampaignUnitError(r.unit_id, r.error or "unknown error")
        if r.hard_failure:
            hard_fails[r.unit_id] = hard_fails.get(r.unit_id, 0) + 1
        poison = hard_fails.get(r.unit_id, 0) >= HARD_FAIL_LIMIT
        if attempt < options.retries and not poison:
            obs.event("unit.retry", unit=r.unit_id, attempt=attempt)
            retry.append(by_id[r.unit_id])
        elif store is not None:
            reason = (
                f"poison unit: {hard_fails.get(r.unit_id, 0)} "
                f"hard failures (worker lost)" if poison else
                f"retries exhausted after {attempt + 1} attempts")
            commit(r, quarantine_reason=reason)
        else:
            commit(r)

    guard = SignalGuard()
    interrupted = False  # a signal cut a wave short
    previous = get_context()
    if context is not None:
        set_context(context)
    guard.__enter__()
    try:
        while pending and not interrupted and not guard.requested:
            if attempt > 0:
                time.sleep(options.backoff * (2 ** (attempt - 1)))
            by_id = {u.unit_id: u for u in pending}
            retry = []
            pooled = processes > 1 and len(pending) > 1
            with obs.span("engine.wave", attempt=attempt,
                          pending=len(pending),
                          mode="pool" if pooled else "serial"):
                cut = (_run_wave_pool(pending, processes, options, settle,
                                      guard, attempt) if pooled else None)
                if cut is None:
                    cut = _run_wave_serial(pending, settle, guard, attempt)
            interrupted = cut
            pending = retry
            attempt += 1
        # a signal interrupts only when it left a unit unrun or a retry
        # pending; one that lands after the last commit changes nothing
        if interrupted or (pending and guard.requested):
            exc = CampaignInterrupted(guard.signum or _signal.SIGINT,
                                      committed=len(done))
            exc.results = done
            raise exc
    finally:
        guard.__exit__(None, None, None)
        set_context(previous)
    return done
