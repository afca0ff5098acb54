"""Mixed-mode co-simulation: gate-level unit inside the functional GPU.

The paper's profiling step runs a *mixed implementation*: the unit under
test at the gate level, the rest of the GPU at RTL, checking per cycle
that the unit's outputs agree with the architectural stream. This module
reproduces that arrangement: while a program executes on
:mod:`repro.gpusim`, every dynamic instruction is replayed through the
gate-level unit netlist and the decoded/fetched packet is checked against
the architectural instruction — a lockstep consistency checker that both
validates the netlists and produces gate-accurate golden signal traces.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.gatelevel.sim import LogicSim
from repro.gatelevel.units import build_unit
from repro.gatelevel.units.base import Stimulus, UnitModel
from repro.gpusim.config import DeviceConfig
from repro.gpusim.device import Device
from repro.gpusim.executor import Tracer
from repro.profiling.profiler import _event_to_stimulus
from repro.workloads.base import default_launcher


@dataclass
class CosimMismatch:
    """One disagreement between the netlist and the architectural state."""

    pc: int
    output: str
    expected: int
    got: int


@dataclass
class CosimResult:
    """Outcome of one mixed-mode run."""

    unit: str
    events_checked: int = 0
    mismatches: list[CosimMismatch] = field(default_factory=list)
    #: per-event golden unit outputs: list of {bus: value} (final cycle)
    signal_trace: list[dict[str, int]] = field(default_factory=list)

    @property
    def consistent(self) -> bool:
        return not self.mismatches


def _expected_decoder_fields(stim: Stimulus) -> dict[str, int]:
    """Architectural expectation for the decoder outputs."""
    from repro.isa.encoding import (
        FIELD_AUX,
        FIELD_DST,
        FIELD_OPCODE,
        FIELD_PDST,
        FIELD_PRED,
        FIELD_SRC,
        FIELD_USE_IMM,
    )
    from repro.common.bitops import extract_field

    w = stim.word
    return {
        "opcode": extract_field(w, *FIELD_OPCODE),
        "dst": extract_field(w, *FIELD_DST),
        "src0": extract_field(w, *FIELD_SRC[0]),
        "src1": extract_field(w, *FIELD_SRC[1]),
        "src2": extract_field(w, *FIELD_SRC[2]),
        "pred": extract_field(w, *FIELD_PRED),
        "pdst": extract_field(w, *FIELD_PDST),
        "use_imm": extract_field(w, *FIELD_USE_IMM),
        "aux": extract_field(w, *FIELD_AUX),
        "imm_out": stim.imm,
        "valid_op": 1,
        "warp_out": stim.warp_id,
        "cta_out": stim.cta_id,
        "thread_mask_out": stim.thread_mask,
    }


def _expected_fetch_fields(stim: Stimulus) -> dict[str, int]:
    return {
        "instr_out": stim.word,
        "pc_out": stim.pc,
        "warp_out": stim.warp_id,
        "mask_out": stim.thread_mask,
        "cta_out": stim.cta_id,
        "fetch_valid": 1,
    }


_EXPECTATIONS = {
    "decoder": (_expected_decoder_fields, -1),   # check final cycle
    "fetch": (_expected_fetch_fields, 3),        # EMIT cycle
}


def cosimulate(workload, unit: str = "decoder",
               max_events: int = 200,
               mem_words: int = 1 << 20) -> CosimResult:
    """Run *workload* with the gate-level *unit* in lockstep.

    Every (sub-sampled) dynamic instruction is replayed through the unit
    netlist; its output packet must match the architectural instruction.
    """
    if unit not in _EXPECTATIONS:
        raise KeyError(f"co-simulation supports decoder|fetch, not {unit!r}")
    model: UnitModel = build_unit(unit)
    sim = LogicSim(model.netlist)
    expect_fn, check_cycle = _EXPECTATIONS[unit]
    result = CosimResult(unit=unit)
    encoded: dict = {}

    def on_event(w, pc, instr, m) -> None:
        if result.events_checked >= max_events:
            return
        stim = _event_to_stimulus(w, pc, instr, m, encoded)
        sim.reset()
        outs = [sim.cycle(inp) for inp in model.transaction(stim)]
        final = {name: int(sim.lane_values(arr, 1)[0])
                 for name, arr in outs[check_cycle].items()}
        result.signal_trace.append(final)
        for name, want in expect_fn(stim).items():
            got = final[name]
            if got != want:
                result.mismatches.append(
                    CosimMismatch(pc=pc, output=name,
                                  expected=want, got=got))
        result.events_checked += 1

    device = Device(DeviceConfig(global_mem_words=mem_words))
    workload.run(device, default_launcher(device,
                                          instrumentation=Tracer(on_event)))
    return result
