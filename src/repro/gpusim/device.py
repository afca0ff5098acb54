"""Device facade: memory management and kernel launches.

A :class:`Device` owns the global and constant memories and schedules CTAs
onto SMs/sub-partitions. CTAs run to completion one at a time (their warps
interleaved round-robin in slices), which preserves the semantics of every
data-race-free CUDA kernel while keeping the Python scheduling overhead low.
The (sm, subpartition, warp_slot) coordinates each warp would occupy on the
real device are tracked so the error descriptors of
:mod:`repro.swinjector` can target them, exactly like NVBitPERfi targets
"one sub-partition (PPB) of SM0" in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro import obs
from repro.common.bitops import float_to_bits
from repro.common.exceptions import (
    BarrierDeadlockError,
    ConfigError,
    WatchdogTimeoutError,
)
from repro.gpusim.config import DeviceConfig
from repro.gpusim.executor import (
    Instrumentation,
    WarpExecutor,
    WarpState,
    WARP_SIZE,
    _CtaEnv,
)
from repro.gpusim.memory import ConstantMemory, GlobalMemory, SharedMemory
from repro.isa.program import Program

#: instructions a warp may run before yielding to its siblings
_SLICE = 256


def _dim3(d: int | tuple) -> tuple[int, int, int]:
    if isinstance(d, int):
        d = (d, 1, 1)
    d = tuple(d) + (1,) * (3 - len(d))
    if len(d) != 3 or any(x <= 0 for x in d):
        raise ConfigError(f"bad launch dimension {d!r}")
    return d  # type: ignore[return-value]


def param_words(params: Sequence[int | float]) -> np.ndarray:
    """The constant-memory words a launch's *params* occupy: a float as
    its IEEE bits, anything else as an integer modulo 2**32."""
    return np.array(
        [float_to_bits(p) if isinstance(p, float) else int(p) & 0xFFFFFFFF
         for p in params],
        dtype=np.uint32,
    )


def cta_shared_words(program: Program, shared_words: int | None) -> int:
    """The shared-memory words each CTA of a launch of *program* gets:
    *shared_words*, or the program's own size when it is ``None``."""
    return program.shared_words if shared_words is None else shared_words


@dataclass
class LaunchResult:
    """Statistics of one kernel launch."""

    program: str
    grid: tuple[int, int, int]
    block: tuple[int, int, int]
    num_ctas: int
    warps_per_cta: int
    instructions_executed: int


class Device:
    """A simulated GPU."""

    def __init__(self, config: DeviceConfig | None = None):
        self.config = config or DeviceConfig()
        self.global_mem = GlobalMemory(self.config.global_mem_words)
        self.constant_mem = ConstantMemory(self.config.constant_mem_words)
        # next warp slot per (sm, subpartition); persists across launches so
        # long-lived campaigns see stable victim coordinates per launch order
        self._slot_counters: dict[tuple[int, int], int] = {}

    # ------------------------------------------------------------------
    # memory API
    # ------------------------------------------------------------------
    def alloc(self, num_words: int) -> int:
        """Allocate *num_words* of global memory; returns byte address."""
        return self.global_mem.alloc(num_words)

    def alloc_array(self, arr: np.ndarray) -> int:
        """Allocate and copy a 32-bit-typed array; returns byte address."""
        addr = self.alloc(arr.size)
        self.write(addr, arr)
        return addr

    def write(self, byte_addr: int, arr: np.ndarray) -> None:
        self.global_mem.write_words(byte_addr, np.asarray(arr).ravel())

    def read(self, byte_addr: int, count: int, dtype=np.uint32) -> np.ndarray:
        words = self.global_mem.read_words(byte_addr, count)
        return words.view(dtype)

    def reset_memory(self) -> None:
        """Zero global memory and the allocator (fresh app run)."""
        self.global_mem = GlobalMemory(self.config.global_mem_words)
        self.constant_mem = ConstantMemory(self.config.constant_mem_words)
        self._slot_counters.clear()

    def set_params(self, params: Sequence[int | float]) -> None:
        """Write kernel parameters into constant memory (slot i at byte 4i)."""
        words = param_words(params)
        if words.size:
            self.constant_mem.write_words(0, words)

    # ------------------------------------------------------------------
    # launch
    # ------------------------------------------------------------------
    def launch(
        self,
        program: Program,
        grid: int | tuple,
        block: int | tuple,
        params: Sequence[int | float] = (),
        shared_words: int | None = None,
        watchdog: int | None = None,
        instrumentation: Instrumentation | None = None,
        round_hook: Callable | None = None,
        resume=None,
    ) -> LaunchResult:
        """Run *program* over the given grid; returns launch statistics.

        Raises a :class:`~repro.common.exceptions.DeviceError` subclass when
        the kernel faults — campaigns map that to a DUE.

        *instrumentation* (a fault tool, or a
        :class:`~repro.gpusim.executor.Tracer`) hands out the step table
        every warp slice runs: the one per-instruction extension point.

        *round_hook* is called as ``hook(cta, executed, warps, shared_mem)``
        at the top of every CTA scheduling round (``executed`` is the
        launch-cumulative instruction count) — the golden tracer marks
        where each CTA starts there, and the accelerated injector skips
        clean CTAs and watches loops there. A hook returns
        ``None``/0, or a positive count that fast-forwards the launch's
        instruction counter: ``executed`` grows by it before the round
        runs. A hook may also rewrite the register values of the current
        CTA's warps (in place, e.g. ``warp.regs += delta``) and words of
        global memory; the round then runs from the rewritten state. It
        may also finish the CTA: clear every warp's ``alive`` mask (in
        place) and return the instructions the CTA would have executed;
        the round then finds no unfinished warp and the next CTA starts.
        The accelerated injector does so at the first round of a CTA it
        has proved to repeat its golden execution, after writing that
        execution's stores (docs/PERFORMANCE.md, "Clean-CTA skip"). Any
        other change is outside the contract. A count that takes the
        counter past the watchdog budget raises the timeout at once, as
        the slice that reaches that count would. The accelerated injector
        returns whole periods of a count-up loop it has proved to repeat
        its path, a multiple of the slice length, and writes the
        registers and words those periods would have left; that keeps
        the counter within the budget and on the slice grid, so the
        watchdog fires in the same slice as without the hook. For a
        one-warp loop proved to repeat its state exactly, or its path
        through the slice where the watchdog fires, it returns the
        distance to the end of that slice, and the launch raises at once
        (docs/PERFORMANCE.md, "Hang short-circuit").

        *resume* (a :class:`~repro.gpusim.snapshot.LaunchResume`) skips the
        already-executed prefix: device state is restored from the
        snapshot, CTAs before ``resume.cta`` are not re-run, the resumed
        CTA's warps are rebuilt mid-flight, and the instruction counter
        starts at ``resume.executed`` so watchdog accounting is identical
        to a cold replay.
        """
        grid3 = _dim3(grid)
        block3 = _dim3(block)
        nthreads = block3[0] * block3[1] * block3[2]
        if nthreads > 1024:
            raise ConfigError(f"block of {nthreads} threads exceeds 1024")
        warps_per_cta = -(-nthreads // WARP_SIZE)
        num_ctas = grid3[0] * grid3[1] * grid3[2]
        shared = cta_shared_words(program, shared_words)
        if shared > self.config.max_shared_words_per_cta:
            raise ConfigError(
                f"{program.name}: shared_words={shared} exceeds CTA limit"
            )

        self.set_params(params)
        if resume is not None:
            resume.apply_device(self)
        budget = watchdog if watchdog is not None else self.config.default_watchdog

        with obs.span("gpusim.launch", program=program.name,
                      ctas=num_ctas, warps_per_cta=warps_per_cta):
            executed = self._launch_grid(
                program, grid3, block3, num_ctas, warps_per_cta, shared,
                budget, instrumentation, round_hook, resume)

        return LaunchResult(
            program=program.name,
            grid=grid3,
            block=block3,
            num_ctas=num_ctas,
            warps_per_cta=warps_per_cta,
            instructions_executed=executed,
        )

    def _launch_grid(
        self,
        program: Program,
        grid3: tuple[int, int, int],
        block3: tuple[int, int, int],
        num_ctas: int,
        warps_per_cta: int,
        shared: int,
        budget: int,
        instrumentation: Instrumentation | None,
        round_hook: Callable | None = None,
        resume=None,
    ) -> int:
        executed = 0
        start_cta = 0
        if resume is not None:
            start_cta = resume.cta
            executed = resume.executed
        for cta in range(start_cta, num_ctas):
            cx = cta % grid3[0]
            cy = (cta // grid3[0]) % grid3[1]
            cz = cta // (grid3[0] * grid3[1])
            sm_id = cta % self.config.num_sms

            shared_mem = SharedMemory(max(shared, 1))
            env = _CtaEnv(self.global_mem, self.constant_mem, shared_mem)
            executor = WarpExecutor(program, env,
                                    instrumentation=instrumentation)

            if resume is not None and cta == start_cta:
                # mid-CTA resume: warps come from the snapshot (the slot
                # counters were restored with the device state, so CTAs
                # after this one claim the same slots a cold run would)
                shared_mem.data[:resume.shared.size] = resume.shared
                shared_mem.reach(resume.shared.size)
                warps = resume.make_warps(program, block3, grid3,
                                          (cx, cy, cz))
            else:
                warps = []
                for w in range(warps_per_cta):
                    subpart = w % self.config.subpartitions_per_sm
                    key = (sm_id, subpart)
                    slot = self._slot_counters.get(key, 0)
                    self._slot_counters[key] = (
                        (slot + 1) % self.config.max_warps_per_subpartition
                    )
                    warps.append(
                        WarpState(
                            program, cta, w, block3, grid3, (cx, cy, cz),
                            sm_id, subpart, slot,
                        )
                    )

            executed = self._run_cta(warps, executor, budget, executed,
                                     program, cta, shared_mem, round_hook)
            if executed > budget:  # pragma: no cover - guarded in _run_cta
                raise WatchdogTimeoutError(program.name)

        return executed

    # ------------------------------------------------------------------
    def _run_cta(
        self,
        warps: list[WarpState],
        executor: WarpExecutor,
        budget: int,
        executed: int,
        program: Program,
        cta: int,
        shared_mem: SharedMemory,
        round_hook: Callable | None = None,
    ) -> int:
        """Round-robin the CTA's warps until all finish; handle barriers.

        *executed* is the launch-cumulative instruction count on entry;
        the return value is the updated count. The watchdog message
        reports the budget remaining at CTA entry (as it always has).
        """
        base = executed

        def timeout() -> WatchdogTimeoutError:
            return WatchdogTimeoutError(
                f"{program.name}: exceeded {budget - base} instructions")

        while True:
            if round_hook is not None:
                skipped = round_hook(cta, executed, warps, shared_mem)
                if skipped:
                    executed += skipped
                    if executed > budget:
                        raise timeout()
            progress = 0
            unfinished = [w for w in warps if not w.finished]
            if not unfinished:
                return executed
            for warp in unfinished:
                if warp.at_barrier:
                    continue
                done = executor.run_slice(warp, _SLICE)
                progress += done
                executed += done
                if executed > budget:
                    raise timeout()
            # barrier release: every unfinished warp has arrived
            unfinished = [w for w in warps if not w.finished]
            if unfinished and all(w.at_barrier for w in unfinished):
                for w in unfinished:
                    w.at_barrier = False
                continue
            if progress == 0 and unfinished:
                waiting = sum(w.at_barrier for w in unfinished)
                raise BarrierDeadlockError(
                    f"{program.name}: {waiting}/{len(unfinished)} warps "
                    f"stuck at barrier"
                )
