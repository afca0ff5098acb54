"""Tests for error-model classification and descriptors."""

from __future__ import annotations

import pytest

from repro.common.exceptions import ConfigError
from repro.errormodels import (
    ErrorDescriptor,
    ErrorGroup,
    ErrorModel,
    GROUP_OF,
    MODELS_BY_GROUP,
    classify_output_diff,
    instruction_field_usage,
)
from repro.errormodels.classify import StimulusContext
from repro.errormodels.models import SW_INJECTABLE
from repro.gatelevel.units.base import ARCH_REGS, Stimulus
from repro.isa import Instruction, Op
from repro.isa.encoding import FIELD_USE_IMM
from repro.isa.opcodes import CmpOp, MemSpace


def _stim(instr: Instruction) -> Stimulus:
    return Stimulus.from_instruction(instr)


IADD = _stim(Instruction(Op.IADD, dst=3, srcs=(1, 2)))
LDS = _stim(Instruction(Op.LDS, dst=5, srcs=(4,), imm=16,
                        aux=int(MemSpace.SHARED)))
ISETP = _stim(Instruction(Op.ISETP, srcs=(1, 2), pdst=2, aux=int(CmpOp.LT)))


class TestTaxonomy:
    def test_thirteen_models(self):
        assert len(ErrorModel) == 13

    def test_four_groups(self):
        assert len(ErrorGroup) == 4
        assert set(GROUP_OF) == set(ErrorModel)

    def test_group_membership_matches_paper(self):
        op = MODELS_BY_GROUP[ErrorGroup.OPERATION]
        assert set(op) == {ErrorModel.IOC, ErrorModel.IVOC, ErrorModel.IRA,
                           ErrorModel.IVRA, ErrorModel.IIO}
        assert MODELS_BY_GROUP[ErrorGroup.CONTROL_FLOW] == [ErrorModel.WV]
        assert set(MODELS_BY_GROUP[ErrorGroup.PARALLEL_MGMT]) == {
            ErrorModel.IPP, ErrorModel.IAT, ErrorModel.IAW, ErrorModel.IAC}
        assert set(MODELS_BY_GROUP[ErrorGroup.RESOURCE_MGMT]) == {
            ErrorModel.IAL, ErrorModel.IMS, ErrorModel.IMD}

    def test_sw_injectable_is_11(self):
        # IPP delegated, IVOC deterministic DUE (paper Fig 10 shows 11)
        assert len(SW_INJECTABLE) == 11
        assert ErrorModel.IVOC not in SW_INJECTABLE
        assert ErrorModel.IPP not in SW_INJECTABLE


class TestFieldUsage:
    def test_iadd_usage(self):
        u = instruction_field_usage(IADD)
        assert u["dst"] and u["src0"] and u["src1"] and not u["src2"]
        assert not u["pdst"]

    def test_isetp_usage(self):
        u = instruction_field_usage(ISETP)
        assert u["pdst"] and not u["dst"]
        assert u["aux"]

    def test_mem_usage(self):
        u = instruction_field_usage(LDS)
        assert u["imm"] and u["aux"]


class TestClassification:
    def test_opcode_to_valid_is_ioc(self):
        got = classify_output_diff("opcode", IADD, int(Op.IADD), int(Op.IMUL))
        assert got == {ErrorModel.IOC}

    def test_opcode_to_invalid_is_ivoc(self):
        got = classify_output_diff("opcode", IADD, int(Op.IADD), 0xEE)
        assert got == {ErrorModel.IVOC}

    def test_register_in_bounds_is_ira(self):
        got = classify_output_diff("reg_dst", IADD, 3, ARCH_REGS - 1)
        assert got == {ErrorModel.IRA}

    def test_register_out_of_bounds_is_ivra(self):
        got = classify_output_diff("reg_dst", IADD, 3, ARCH_REGS + 5)
        assert got == {ErrorModel.IVRA}

    def test_unused_field_produces_no_error(self):
        # ISETP writes no destination register
        assert classify_output_diff("reg_dst", ISETP, 0, 9) == set()

    def test_no_diff_no_error(self):
        assert classify_output_diff("opcode", IADD, 5, 5) == set()

    def test_mask_warp_cta_lane(self):
        assert classify_output_diff("thread_mask", IADD, 0xFF, 0xFE) == \
            {ErrorModel.IAT}
        assert classify_output_diff("warp", IADD, 1, 2) == {ErrorModel.IAW}
        assert classify_output_diff("cta", IADD, 1, 2) == {ErrorModel.IAC}
        assert classify_output_diff("lane", IADD, 0xFF, 0x7F) == \
            {ErrorModel.IAL}

    def test_mem_semantics(self):
        assert classify_output_diff("mem_src", LDS, 1, 0) == {ErrorModel.IMS}
        assert classify_output_diff("mem_dst", LDS, 0, 1) == {ErrorModel.IMD}

    def test_aux_for_mem_load_is_ims(self):
        got = classify_output_diff("aux", LDS, int(MemSpace.SHARED),
                                   int(MemSpace.GLOBAL))
        assert got == {ErrorModel.IMS}

    def test_aux_for_setp_is_wv(self):
        got = classify_output_diff("aux", ISETP, int(CmpOp.LT), int(CmpOp.GE))
        assert got == {ErrorModel.WV}

    def test_imm_only_when_consumed(self):
        assert classify_output_diff("imm", LDS, 16, 20) == {ErrorModel.IIO}
        assert classify_output_diff("imm", IADD, 0, 4) == set()

    def test_pc_is_ioc(self):
        assert classify_output_diff("pc", IADD, 3, 4) == {ErrorModel.IOC}

    def test_liveness_classifies_to_nothing(self):
        assert classify_output_diff("liveness", IADD, 1, 0) == set()

    def test_instr_word_multifield(self):
        # flip opcode AND dst bits in the fetched word
        faulty = IADD.word ^ 0x01 ^ (0x4 << 8)
        got = classify_output_diff("instr_word", IADD, IADD.word, faulty)
        assert ErrorModel.IRA in got
        assert got & {ErrorModel.IOC, ErrorModel.IVOC}

    def test_unknown_semantic_rejected(self):
        with pytest.raises(KeyError):
            classify_output_diff("bogus", IADD, 0, 1)


#: opcode byte 0xEE names no instruction; GST with the immediate flag set
#: names one but no instruction encodes it
UNDECODABLE = Stimulus(word=0xEE | (3 << 8), imm=7, warp_id=1,
                       thread_mask=0xF, cta_id=2, opcode=0xEE)
NOT_ENCODABLE = Stimulus(word=IADD.word & ~0xFF | int(Op.GST)
                         | (1 << FIELD_USE_IMM[0]),
                         imm=0, warp_id=0, thread_mask=1, cta_id=0,
                         opcode=int(Op.GST))


class TestStimulusContext:
    def _semantics(self) -> set[str]:
        from repro.gatelevel.units import build_unit

        return {sem for u in ("wsc", "fetch", "decoder")
                for sem in build_unit(u).output_semantics.values()}

    def test_decodes_once_like_the_isa_decoder(self):
        from repro.isa.encoding import EncodedInstruction, decode

        for stim in (IADD, LDS, ISETP):
            ctx = StimulusContext.of(stim)
            assert ctx.instr == decode(EncodedInstruction(stim.word, stim.imm))
            assert ctx.usage == instruction_field_usage(stim)
        for stim in (UNDECODABLE, NOT_ENCODABLE):
            ctx = StimulusContext.of(stim)
            assert ctx.instr is None and ctx.usage == {}

    def test_same_models_as_classify_output_diff(self):
        import random

        sems = self._semantics()
        assert "instr_word" in sems and len(sems) >= 15
        r = random.Random(3)
        for stim in (IADD, LDS, ISETP, UNDECODABLE, NOT_ENCODABLE):
            ctx = StimulusContext.of(stim)   # one context, many calls
            for sem in sorted(sems):
                pairs = [(stim.word, stim.word ^ (1 << b)) for b in range(64)]
                pairs += [(r.getrandbits(64), r.getrandbits(64))
                          for _ in range(32)]
                pairs += [(5, 5), (0, 1 << FIELD_USE_IMM[0])]
                for g, f in pairs:
                    assert ctx.classify(sem, g, f) == \
                        classify_output_diff(sem, stim, g, f), (sem, g, f)

    def test_undecodable_stimulus_classifies_without_usage(self):
        ctx = StimulusContext.of(UNDECODABLE)
        # fields an unknown instruction may consume classify to nothing...
        assert ctx.classify("reg_dst", 3, 4) == set()
        assert ctx.classify("imm", 0, 4) == set()
        assert ctx.classify("aux", 0, 1) == set()
        # ...while usage-free fields still do
        assert ctx.classify("instr_word", UNDECODABLE.word,
                            UNDECODABLE.word ^ 0x01) == {ErrorModel.IVOC}
        assert ctx.classify("opcode", 0xEE, int(Op.IADD)) == {ErrorModel.IOC}
        assert ctx.classify("warp", 1, 2) == {ErrorModel.IAW}


class TestDescriptor:
    def test_matches_warp(self):
        d = ErrorDescriptor(model=ErrorModel.IAT, sm_id=0, subpartition=2,
                            warp_slots=frozenset({1, 3}))
        assert d.matches_warp(0, 2, 1)
        assert not d.matches_warp(0, 2, 2)
        assert not d.matches_warp(1, 2, 1)

    def test_empty_warps_matches_all(self):
        d = ErrorDescriptor(model=ErrorModel.IAT)
        assert d.matches_warp(0, 0, 7)

    def test_ioc_requires_replacement(self):
        with pytest.raises(ConfigError):
            ErrorDescriptor(model=ErrorModel.IOC)

    def test_validation(self):
        with pytest.raises(ConfigError):
            ErrorDescriptor(model=ErrorModel.IAT, err_oper_loc=9)
        with pytest.raises(ConfigError):
            ErrorDescriptor(model=ErrorModel.IAL, lane=9)


class TestManual:
    def test_manual_covers_all_models(self):
        from repro.errormodels.manual import error_models_manual

        text = error_models_manual()
        for m in ErrorModel:
            assert f"### {m.value} —" in text or f"### {m.value} " in text

    def test_docs_file_in_sync(self):
        from pathlib import Path

        from repro.errormodels.manual import error_models_manual

        p = Path(__file__).parent.parent / "docs" / "ERROR_MODELS.md"
        assert p.read_text() == error_models_manual()
