"""Profiling: per-instruction stimulus capture and unit utilization."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro.gpusim.config import DeviceConfig
from repro.gpusim.device import Device
from repro.gpusim.executor import Tracer
from repro.gatelevel.units.base import Stimulus
from repro.isa.encoding import encode
from repro.isa.opcodes import OpClass
from repro.isa.program import Program
from repro.workloads.base import Workload, default_launcher


#: the 14 profiling workloads of the paper, by registry name
PROFILING_NAMES = [
    "sort", "vector_add", "fft", "tiled_mxm", "naive_mxm", "reduction",
    "gray_filter", "sobel", "svmul", "nn", "scan_3d", "transpose",
    "euler_3d", "backprop",
]


@dataclass
class ProfileResult:
    """Outcome of profiling a set of workloads."""

    stimuli: list[Stimulus]
    total_dynamic: int
    opclass_dynamic: dict[OpClass, int]
    per_workload_dynamic: dict[str, int] = field(default_factory=dict)

    @staticmethod
    def merged(parts: list["ProfileResult"]) -> "ProfileResult":
        """One profile of the workloads of *parts*, in order."""
        opclass = Counter()
        for p in parts:
            opclass.update(p.opclass_dynamic)
        return ProfileResult(
            stimuli=[s for p in parts for s in p.stimuli],
            total_dynamic=sum(p.total_dynamic for p in parts),
            opclass_dynamic=dict(opclass),
            per_workload_dynamic={k: v for p in parts
                                  for k, v in p.per_workload_dynamic.items()},
        )

    def utilization(self, op_class: OpClass) -> float:
        """Fraction of dynamic instructions exercising *op_class* units."""
        if self.total_dynamic == 0:
            return 0.0
        return self.opclass_dynamic.get(op_class, 0) / self.total_dynamic


def _event_to_stimulus(w, pc: int, instr, m, encoded: dict) -> Stimulus:
    """The stimulus of warp *w* executing *instr* at *pc* under exec mask
    *m* (``None``: all 32 lanes). *encoded* maps ``id(instr)`` to the
    static instruction's ``(instr, word, imm)``: each instruction is
    encoded once, and holding it keeps its id from being reused while the
    map lives."""
    hit = encoded.get(id(instr))
    if hit is None:
        enc = encode(instr)
        hit = encoded[id(instr)] = (instr, enc.word, enc.imm)
    _, word, imm = hit
    mask = 0xFFFFFFFF if m is None else int.from_bytes(
        np.packbits(m, bitorder="little").tobytes(), "little")
    return Stimulus(
        word=word,
        imm=imm,
        warp_id=(w.warp_slot + w.subpartition * 4) & 0xF,
        thread_mask=mask,
        cta_id=w.cta & 0xF,
        pc=pc & 0xFF,
        opcode=word & 0xFF,
    )


def profile_workloads(
    workloads: list[Workload],
    max_stimuli_per_workload: int | None = 64,
    dedup: bool = True,
) -> ProfileResult:
    """Run each workload traced; collect stimuli and utilization stats.

    With ``dedup`` the per-workload stimuli are de-duplicated on the full
    stimulus tuple (the paper replays *every* dynamic instruction; we keep
    distinct patterns, which is what drives distinct fault activations)
    and then capped at ``max_stimuli_per_workload`` by even subsampling.
    """
    encoded: dict = {}
    return ProfileResult.merged([
        _profile_one(w, max_stimuli_per_workload, dedup, encoded)
        for w in workloads])


def _profile_one(w: Workload, cap: int | None, dedup: bool,
                 encoded: dict) -> ProfileResult:
    """:func:`profile_workloads` of workload *w* alone."""
    events: list[Stimulus] = []
    counts = Counter()

    def trace(warp, pc, instr, m) -> None:
        counts[instr.info.op_class] += 1
        events.append(_event_to_stimulus(warp, pc, instr, m, encoded))

    device = Device(DeviceConfig(global_mem_words=1 << 20))
    w.run(device, default_launcher(device, instrumentation=Tracer(trace)))
    dyn = sum(counts.values())
    if dedup:
        events = list(dict.fromkeys(events))
    if cap and len(events) > cap:
        idx = np.linspace(0, len(events) - 1, cap).astype(int)
        events = [events[i] for i in idx]
    return ProfileResult(stimuli=events, total_dynamic=dyn,
                         opclass_dynamic=dict(counts),
                         per_workload_dynamic={w.meta.name: dyn})


def stimuli_from_program(program: Program, warp_id: int = 0,
                         thread_mask: int = 0xFFFFFFFF,
                         cta_id: int = 0) -> list[Stimulus]:
    """Static stimuli: one per instruction of *program* (no execution)."""
    return [
        Stimulus.from_instruction(instr, warp_id=warp_id,
                                  thread_mask=thread_mask, cta_id=cta_id,
                                  pc=pc)
        for pc, instr in enumerate(program.instructions)
    ]


def utilization_table(result: ProfileResult) -> dict[str, float]:
    """Table 4 utilization column: percent of instructions using each unit.

    The WSC, fetch and decoder units are stimulated by *every* instruction;
    the FP32 unit only by FP32-class instructions.
    """
    return {
        "WSC": 100.0,
        "Decoder": 100.0,
        "Fetch": 100.0,
        "FP32 unit": 100.0 * result.utilization(OpClass.FP32),
    }
