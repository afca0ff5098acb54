"""Software fault detectors and their coverage evaluation."""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro.common.exceptions import DeviceError
from repro.common.rng import DEFAULT_SEED
from repro.errormodels.models import ErrorModel, SW_INJECTABLE
from repro.gpusim.config import DeviceConfig
from repro.gpusim.device import Device
from repro.gpusim.executor import Tracer
from repro.isa.opcodes import Op
from repro.swinjector.instrumentation import NVBitPERfi, make_descriptor
from repro.workloads import default_launcher, get_workload


class DmrDetector:
    """Temporal dual-modular redundancy.

    Runs the (possibly faulty) application twice on the *same* device and
    flags a detection when the replicas disagree. Because the device's
    warp-slot counters keep rotating between launches, the replica's
    warps occupy different slots — the paper's "smart thread scheduling
    replication": a slot-local permanent fault corrupts only one replica
    and is caught, whereas a fault in fully shared logic corrupts both
    identically and escapes plain re-execution.
    """

    def __init__(self, workload, mem_words: int = 1 << 21,
                 watchdog: int = 4_000_000):
        self.workload = workload
        self.mem_words = mem_words
        self.watchdog = watchdog

    def run(self, tool) -> tuple[np.ndarray, bool]:
        """Returns (primary output, detected?)."""
        dev = Device(DeviceConfig(global_mem_words=self.mem_words))
        launcher = default_launcher(dev, watchdog=self.watchdog,
                                    instrumentation=tool)
        first = self.workload.run(dev, launcher)
        second = self.workload.run(dev, launcher)
        return first, not np.array_equal(first, second)


class ControlFlowChecker:
    """Control-flow checking by dynamic branch-signature comparison.

    Hashes the per-warp sequence of (pc, taken-mask) of every control
    instruction; a mismatch against the golden signature reveals
    control-flow corruption regardless of the data outputs.
    """

    def __init__(self, workload, mem_words: int = 1 << 20,
                 watchdog: int = 4_000_000):
        self.workload = workload
        self.mem_words = mem_words
        self.watchdog = watchdog
        self._golden_sig: bytes | None = None

    def _signature_run(self, tool) -> tuple[np.ndarray, bytes]:
        dev = Device(DeviceConfig(global_mem_words=self.mem_words))
        h = hashlib.sha256()

        def trace(w, pc, instr, m) -> None:
            if instr.op in (Op.BRA, Op.EXIT, Op.BAR):
                mask = 0xFFFFFFFF if m is None else int(
                    sum(1 << i for i, b in enumerate(m) if b))
                h.update(w.cta.to_bytes(4, "little"))
                h.update(w.warp_in_cta.to_bytes(2, "little"))
                h.update(pc.to_bytes(4, "little"))
                h.update(mask.to_bytes(4, "little"))

        bits = self.workload.run(dev, default_launcher(
            dev, watchdog=self.watchdog, instrumentation=Tracer(trace, tool)))
        return bits, h.digest()

    def golden_signature(self) -> bytes:
        if self._golden_sig is None:
            _, self._golden_sig = self._signature_run(None)
        return self._golden_sig

    def run(self, tool) -> tuple[np.ndarray, bool]:
        """Returns (output, detected?)."""
        golden = self.golden_signature()
        bits, sig = self._signature_run(tool)
        return bits, sig != golden


@dataclass
class DetectionReport:
    """Coverage of a detector over one injection campaign."""

    app: str
    detector: str
    #: model -> Counter over {"detected_sdc", "missed_sdc", "due",
    #: "masked", "false_positive"}
    per_model: dict[ErrorModel, Counter] = field(default_factory=dict)

    def coverage(self, model: ErrorModel) -> float:
        """Fraction of SDCs the detector catches."""
        c = self.per_model.get(model, Counter())
        sdcs = c["detected_sdc"] + c["missed_sdc"]
        return c["detected_sdc"] / sdcs if sdcs else 0.0

    def false_positives(self, model: ErrorModel) -> int:
        return self.per_model.get(model, Counter())["false_positive"]

    def rows(self) -> list[dict]:
        out = []
        for model, c in self.per_model.items():
            out.append({
                "app": self.app,
                "detector": self.detector,
                "model": model.value,
                "sdc_coverage_%": 100.0 * self.coverage(model),
                "due": c["due"],
                "masked": c["masked"],
                "false_positives": c["false_positive"],
            })
        return out


def evaluate_detection(
    app: str = "gemm",
    detector: str = "cfc",
    models: tuple[ErrorModel, ...] = (ErrorModel.WV, ErrorModel.IAT,
                                      ErrorModel.IAW),
    injections: int = 10,
    scale: str = "tiny",
    seed: int = DEFAULT_SEED,
) -> DetectionReport:
    """Measure SDC detection coverage per error model.

    ``detector`` is ``"cfc"`` (control-flow checking) or ``"dmr"``
    (temporal re-execution — expected to miss permanent-fault SDCs, which
    is the paper's argument for *smart scheduling* replication).
    """
    w = get_workload(app, scale=scale, seed=seed)
    golden = w.run_golden()
    if detector == "cfc":
        engine = ControlFlowChecker(w)
        engine.golden_signature()
    elif detector == "dmr":
        engine = DmrDetector(w)
    else:
        raise KeyError(f"unknown detector {detector!r}; use cfc|dmr")

    report = DetectionReport(app=app, detector=detector)
    for model in models:
        if model not in SW_INJECTABLE:
            raise KeyError(f"{model} is not software-injectable")
        c = Counter()
        report.per_model[model] = c
        for i in range(injections):
            tool = NVBitPERfi(make_descriptor(model, seed, i))
            try:
                bits, detected = engine.run(tool)
            except DeviceError:
                c["due"] += 1
                continue
            is_sdc = not np.array_equal(bits, golden)
            if is_sdc and detected:
                c["detected_sdc"] += 1
            elif is_sdc:
                c["missed_sdc"] += 1
            elif detected:
                c["false_positive"] += 1
            else:
                c["masked"] += 1
    return report
