"""Mapping gate-level output corruptions onto the 13 error models.

Given the semantic tag of a corrupted output bus, the golden instruction
stimulus, and the golden/faulty bus values, :func:`classify_output_diff`
returns the instruction-level error models the corruption manifests as —
the step 3 "error identification and classification" of the method. A
corruption of a field the golden instruction does not consume (e.g. the
src2 field of an IADD) produces no error, which is one source of
hardware-masked faults.

A campaign classifies many observations under one stimulus: it builds a
:class:`StimulusContext` (the stimulus decoded once) and calls its
:meth:`~StimulusContext.classify`, which is what
:func:`classify_output_diff` does for a single observation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.exceptions import AssemblerError, IllegalInstructionError
from repro.errormodels.models import ErrorModel
from repro.gatelevel.units.base import ARCH_REGS, Stimulus
from repro.isa.encoding import (
    EncodedInstruction,
    FIELD_AUX,
    FIELD_DST,
    FIELD_OPCODE,
    FIELD_PDST,
    FIELD_PRED,
    FIELD_PRED_NEG,
    FIELD_SRC,
    FIELD_USE_IMM,
    decode,
)
from repro.common.bitops import extract_field
from repro.isa.instruction import Instruction, RZ
from repro.isa.opcodes import Op, is_valid_opcode


def _decode_safe(stim: Stimulus) -> Instruction | None:
    """The golden instruction, or ``None`` for a word that names no valid
    opcode or that no instruction encodes (e.g. the immediate flag on an
    op that takes no immediate)."""
    try:
        return decode(EncodedInstruction(stim.word, stim.imm))
    except (IllegalInstructionError, AssemblerError):
        return None


def _field_usage(instr: Instruction | None) -> dict[str, bool]:
    if instr is None:
        return {}
    info = instr.info
    return {
        "dst": info.writes_reg and instr.dst != RZ,
        "src0": len(instr.srcs) >= 1,
        "src1": len(instr.srcs) >= 2,
        "src2": len(instr.srcs) >= 3,
        "pred": True,
        "pdst": info.writes_pred,
        "imm": instr.reads_immediate,
        "aux": instr.op in (Op.ISETP, Op.FSETP, Op.IMNMX, Op.FMNMX, Op.S2R,
                            Op.SEL) or info.is_mem,
    }


def _classify_reg_field(faulty_value: int) -> ErrorModel:
    return (ErrorModel.IRA if faulty_value < ARCH_REGS or faulty_value == RZ
            else ErrorModel.IVRA)


def _classify_opcode(faulty_opcode: int) -> ErrorModel:
    return ErrorModel.IOC if is_valid_opcode(faulty_opcode) else ErrorModel.IVOC


def _classify_aux(instr: Instruction | None) -> ErrorModel:
    if instr is None:
        return ErrorModel.IOC
    if instr.info.is_mem:
        return (ErrorModel.IMD if instr.op in (Op.GST, Op.STS)
                else ErrorModel.IMS)
    if instr.op in (Op.ISETP, Op.FSETP, Op.SEL):
        return ErrorModel.WV
    if instr.op is Op.S2R:
        return ErrorModel.IAT  # corrupting the read special register id
    return ErrorModel.IOC


@dataclass(frozen=True)
class StimulusContext:
    """One golden stimulus, decoded once.

    Every classification under a stimulus reads the same decoded
    instruction and the same field usage, so a campaign builds this once
    per stimulus instead of decoding the stimulus for every observation.
    """

    #: the golden instruction; ``None`` when the word does not decode
    instr: Instruction | None
    #: encoding field -> whether the golden instruction consumes it
    #: (empty for an undecodable word)
    usage: dict[str, bool]

    @classmethod
    def of(cls, stim: Stimulus) -> "StimulusContext":
        instr = _decode_safe(stim)
        return cls(instr, _field_usage(instr))

    def classify(self, semantic: str, golden_value: int,
                 faulty_value: int) -> set[ErrorModel]:
        """:func:`classify_output_diff` under this stimulus."""
        if golden_value == faulty_value:
            return set()
        usage = self.usage
        if semantic == "opcode":
            return {_classify_opcode(faulty_value & 0xFF)}
        if semantic == "opcode_ioc":
            # buffered-opcode corruption in the scheduler: a different
            # (still fetched-as-valid) operation is issued
            return {ErrorModel.IOC}
        if semantic == "liveness":
            # pure handshake outputs: hang detection only, no error model
            return set()
        if semantic == "opcode_valid":
            return {ErrorModel.IVOC}
        if semantic == "reg_dst":
            if not usage.get("dst"):
                return set()
            return {_classify_reg_field(faulty_value)}
        if semantic == "reg_src":
            if not (usage.get("src0") or usage.get("src1")
                    or usage.get("src2")):
                return set()
            return {_classify_reg_field(faulty_value)}
        if semantic == "reg_base":
            return {ErrorModel.IRA}
        if semantic == "imm":
            return {ErrorModel.IIO} if usage.get("imm") else set()
        if semantic == "ctrl_pred":
            return {ErrorModel.WV}
        if semantic == "aux":
            return {_classify_aux(self.instr)} if usage.get("aux") else set()
        if semantic == "mem_src":
            return {ErrorModel.IMS}
        if semantic == "mem_dst":
            return {ErrorModel.IMD}
        if semantic == "thread_mask":
            return {ErrorModel.IAT}
        if semantic == "warp":
            return {ErrorModel.IAW}
        if semantic == "cta":
            return {ErrorModel.IAC}
        if semantic == "lane":
            return {ErrorModel.IAL}
        if semantic == "parallel_param":
            return {ErrorModel.IPP}
        if semantic == "pc":
            # a different instruction gets fetched/executed
            return {ErrorModel.IOC}
        if semantic == "valid":
            # spurious or dropped issue: incorrect warp submission/detention
            return {ErrorModel.IAW}
        if semantic == "instr_word":
            return self._classify_instr_word(golden_value, faulty_value)
        raise KeyError(f"unknown output semantic {semantic!r}")

    def _classify_instr_word(self, golden: int,
                             faulty: int) -> set[ErrorModel]:
        """Decode which encoding fields differ in a corrupted fetched word."""
        models: set[ErrorModel] = set()
        usage = self.usage
        diff = golden ^ faulty

        def field_differs(spec) -> bool:
            lsb, width = spec
            return bool((diff >> lsb) & ((1 << width) - 1))

        if field_differs(FIELD_OPCODE):
            models.add(_classify_opcode(extract_field(faulty, *FIELD_OPCODE)))
        if field_differs(FIELD_DST) and usage.get("dst"):
            models.add(_classify_reg_field(extract_field(faulty, *FIELD_DST)))
        for i, spec in enumerate(FIELD_SRC):
            if field_differs(spec) and usage.get(f"src{i}"):
                models.add(_classify_reg_field(extract_field(faulty, *spec)))
        if field_differs(FIELD_PRED) or field_differs(FIELD_PRED_NEG):
            models.add(ErrorModel.WV)
        if field_differs(FIELD_PDST) and usage.get("pdst"):
            models.add(ErrorModel.WV)
        if field_differs(FIELD_USE_IMM):
            models.add(ErrorModel.IIO)
        if field_differs(FIELD_AUX) and usage.get("aux"):
            models.add(_classify_aux(self.instr))
        return models


def instruction_field_usage(stim: Stimulus) -> dict[str, bool]:
    """Which encoding fields the golden instruction actually consumes."""
    return StimulusContext.of(stim).usage


def classify_output_diff(
    semantic: str,
    stim: Stimulus,
    golden_value: int,
    faulty_value: int,
) -> set[ErrorModel]:
    """Error models manifested by one corrupted output bus observation."""
    if golden_value == faulty_value:
        return set()
    return StimulusContext.of(stim).classify(semantic, golden_value,
                                             faulty_value)
