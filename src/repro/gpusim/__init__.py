"""Functional SIMT GPU simulator.

This is the "real GPU" substrate of the reproduction: the software-level
error-injection campaigns (paper §5, NVBitPERfi) run complete applications
on this simulator. It executes the :mod:`repro.isa` instruction set
warp-wide (each instruction is evaluated for all 32 lanes at once with
NumPy), models divergence with a reconvergence-stack, CTAs with shared
memory and barriers, and an Ampere-like SM organization (SMs split into
four sub-partitions, the unit the paper's error descriptors target).

DUE conditions — illegal instructions, invalid registers, out-of-bounds or
misaligned memory accesses, barrier deadlocks and watchdog timeouts — are
raised as :class:`repro.common.exceptions.DeviceError` subclasses and
classified by the campaign layer.
"""

from repro.gpusim.config import DeviceConfig
from repro.gpusim.memory import GlobalMemory, ConstantMemory, SharedMemory
from repro.gpusim.device import Device, LaunchResult
from repro.gpusim.executor import WarpState, Instrumentation

__all__ = [
    "DeviceConfig",
    "GlobalMemory",
    "ConstantMemory",
    "SharedMemory",
    "Device",
    "LaunchResult",
    "WarpState",
    "Instrumentation",
]
