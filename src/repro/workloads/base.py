"""Workload abstraction.

A workload owns its (seeded) input data and its kernels, and exposes one
method the campaigns care about::

    output_bits = workload.run(device, launcher)

*launcher* wraps :meth:`repro.gpusim.Device.launch`; campaigns substitute a
launcher that attaches instrumentation and a watchdog, so a workload never
needs to know whether it is a golden or a faulty run. Outputs are returned
as raw uint32 bit patterns: the simulator is bit-deterministic, so *any*
difference from the golden bits is a Silent Data Corruption.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, Protocol

import numpy as np

from repro.common.rng import DEFAULT_SEED, make_rng
from repro.gpusim.device import Device, LaunchResult
from repro.isa.program import Program


@dataclass(frozen=True)
class WorkloadMeta:
    """Table 1 row: name, data type, domain, benchmark suite."""

    name: str
    data_type: str
    domain: str
    suite: str


class Launcher(Protocol):
    """Callable that performs one kernel launch on behalf of a workload."""

    def __call__(
        self,
        program: Program,
        grid,
        block,
        params=(),
        shared_words: int | None = None,
    ) -> LaunchResult: ...


def default_launcher(device: Device, **launch_options) -> Launcher:
    """A launcher bound to *device* that passes *launch_options* (e.g.
    ``watchdog``, ``instrumentation``) to every :meth:`Device.launch`;
    without any it is plain."""

    def launch(program, grid, block, params=(), shared_words=None):
        return device.launch(program, grid, block, params=params,
                             shared_words=shared_words, **launch_options)

    return launch


class Workload(abc.ABC):
    """Base class for every runnable workload."""

    meta: WorkloadMeta
    #: named size presets; subclasses define at least "tiny" and "small"
    scales: dict[str, dict] = {}

    def __init__(self, scale: str = "small", seed: int = DEFAULT_SEED):
        if scale not in self.scales:
            raise KeyError(
                f"{type(self).__name__}: unknown scale {scale!r} "
                f"(have {sorted(self.scales)})"
            )
        self.scale = scale
        self.params = dict(self.scales[scale])
        self.seed = seed
        self.rng = make_rng(seed, self.meta.name, scale)
        self._programs: dict[str, Program] | None = None
        self._init_data()

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _init_data(self) -> None:
        """Generate the (seeded) input data for this instance."""

    @abc.abstractmethod
    def _build_programs(self) -> dict[str, Program]:
        """Assemble the kernels (called once, cached)."""

    @abc.abstractmethod
    def run(self, device: Device, launcher: Launcher) -> np.ndarray:
        """Execute the full application; return output as uint32 bits."""

    # ------------------------------------------------------------------
    def programs(self) -> dict[str, Program]:
        if self._programs is None:
            self._programs = self._build_programs()
        return self._programs

    def program(self, name: str | None = None) -> Program:
        progs = self.programs()
        if name is None:
            if len(progs) != 1:
                raise KeyError(f"{self.meta.name} has {len(progs)} kernels; name one")
            return next(iter(progs.values()))
        return progs[name]

    def run_golden(self, device: Device | None = None) -> np.ndarray:
        """Run fault-free on a fresh (or given) device."""
        from repro.gpusim.config import DeviceConfig

        dev = device or Device(DeviceConfig(global_mem_words=1 << 20))
        return self.run(dev, default_launcher(dev))

    # helpers ------------------------------------------------------------
    @staticmethod
    def _bits(arr: np.ndarray) -> np.ndarray:
        """Normalize an output array to uint32 bit patterns."""
        a = np.ascontiguousarray(arr)
        if a.dtype in (np.float32, np.int32, np.uint32):
            return a.view(np.uint32).ravel().copy()
        raise TypeError(f"outputs must be 32-bit typed, got {a.dtype}")
