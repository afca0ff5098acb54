"""Static injection-site pruning: soundness rules and the campaign
equivalence property.

The load-bearing guarantee is that the analyzer changes *what is
simulated*, never *what is reported*: the accelerated EPR replay, which
classifies inert descriptors without simulating them, must produce
outcomes, DUE reasons and activation counts identical to ``--no-accel``.
"""

from __future__ import annotations

import pytest

from repro.campaign.engine import EngineConfig, execute
from repro.campaign.plans import get_spec
from repro.errormodels.descriptor import ErrorDescriptor
from repro.errormodels.models import ErrorModel
from repro.isa.instruction import RZ, Instruction
from repro.isa.opcodes import CmpOp, Op
from repro.isa.program import Program
from repro.staticanalysis import StaticPruner
from repro.swinjector.accel import behavior_key
from repro.swinjector.instrumentation import make_descriptor


def _prog(instrs, nregs=8, name="k", shared_words=0) -> Program:
    p = Program(name=name, instructions=list(instrs), nregs=nregs,
                shared_words=shared_words)
    p.validate()
    return p


def _store_and_exit(reg):
    return [Instruction(Op.GST, srcs=(reg, reg)), Instruction(Op.EXIT)]


class TestPruneRules:
    def test_r0_empty_thread_mask(self):
        prog = _prog([Instruction(Op.IADD, dst=1, srcs=(1,), imm=1,
                                  use_imm=True), *_store_and_exit(1)])
        pruner = StaticPruner([prog])
        d = ErrorDescriptor(model=ErrorModel.IIO, thread_mask=0)
        decision = pruner.classify(d)
        assert decision.masked and decision.rule == "R0"

    def test_r1_no_target_instruction(self):
        # IMD targets STS only; a kernel without shared stores never
        # activates it
        prog = _prog([Instruction(Op.IADD, dst=1, srcs=(1,), imm=1,
                                  use_imm=True), *_store_and_exit(1)])
        pruner = StaticPruner([prog])
        decision = pruner.classify(ErrorDescriptor(model=ErrorModel.IMD))
        assert decision.masked and decision.rule == "R1"

    def test_r2_dead_destination_iio(self):
        # the immediate-add result is never read -> corruption is inert
        # (R1 is zero-init and never written, so the IADD is the only
        # IIO target in the program)
        prog = _prog([
            Instruction(Op.IADD, dst=2, srcs=(1,), imm=1, use_imm=True),
            *_store_and_exit(1),
        ])
        decision = StaticPruner([prog]).classify(
            ErrorDescriptor(model=ErrorModel.IIO))
        assert decision.masked and decision.rule == "R2"

    def test_live_destination_not_pruned(self):
        prog = _prog([
            Instruction(Op.MOV32I, dst=1, imm=3),
            Instruction(Op.IADD, dst=2, srcs=(1,), imm=1, use_imm=True),
            *_store_and_exit(2),                    # result IS observed
        ])
        decision = StaticPruner([prog]).classify(
            ErrorDescriptor(model=ErrorModel.IIO))
        assert not decision.masked and decision.rule == "live"

    def test_wv_mask_without_bit0_is_identity(self):
        prog = _prog([
            Instruction(Op.ISETP, pdst=0, srcs=(1,), imm=0, use_imm=True,
                        aux=int(CmpOp.GT)),
            Instruction(Op.IADD, dst=1, srcs=(1,), imm=1, use_imm=True,
                        pred=0),
            *_store_and_exit(1),
        ])
        pruner = StaticPruner([prog])
        # the injector flips `wrong & 1`; bit 0 clear never flips anything
        masked = pruner.classify(
            ErrorDescriptor(model=ErrorModel.WV, bit_err_mask=0x2))
        live = pruner.classify(
            ErrorDescriptor(model=ErrorModel.WV, bit_err_mask=0x1))
        assert masked.masked and masked.rule == "R2"
        assert not live.masked

    def test_ial_enable_on_uniform_code_is_identity(self):
        prog = _prog([Instruction(Op.IADD, dst=1, srcs=(1,), imm=1,
                                  use_imm=True), *_store_and_exit(1)])
        pruner = StaticPruner([prog])
        enable = pruner.classify(ErrorDescriptor(
            model=ErrorModel.IAL, lane_enable_mode="enable"))
        assert enable.masked and enable.rule == "R2"

    def test_ial_enable_on_predicated_code_is_inert(self):
        # the forced lanes are victims, which lie in the exec mask: the
        # injector has no error function, whatever the guard
        prog = _prog([Instruction(Op.IADD, dst=1, srcs=(1,), imm=1,
                                  use_imm=True, pred=0), *_store_and_exit(1)])
        enable = StaticPruner([prog]).classify(ErrorDescriptor(
            model=ErrorModel.IAL, lane_enable_mode="enable"))
        assert enable.masked and enable.rule == "R2"

    def test_ial_disable_needs_dead_destination(self):
        live = _prog([Instruction(Op.IADD, dst=1, srcs=(1,), imm=1,
                                  use_imm=True), *_store_and_exit(1)])
        dead = _prog([
            Instruction(Op.MOV32I, dst=1, imm=3),
            Instruction(Op.IADD, dst=2, srcs=(1,), imm=1, use_imm=True),
            *_store_and_exit(1),
        ])
        d = ErrorDescriptor(model=ErrorModel.IAL, lane_enable_mode="disable")
        assert not StaticPruner([live]).classify(d).masked
        assert StaticPruner([dead]).classify(d).masked

    def test_ivra_never_pruned_beyond_r1(self):
        prog = _prog([
            Instruction(Op.MOV32I, dst=1, imm=3),
            Instruction(Op.IADD, dst=2, srcs=(1,), imm=1, use_imm=True),
            *_store_and_exit(1),                    # R2 dead: IRA would prune
        ])
        pruner = StaticPruner([prog])
        # the escaped register index raises InvalidRegisterError -> DUE
        d = ErrorDescriptor(model=ErrorModel.IVRA, bit_err_mask=0x40,
                            err_oper_loc=0)
        assert not pruner.classify(d).masked

    def test_ira_wrong_register_out_of_window_not_pruned(self):
        # a single reg-writing instruction with a dead destination; the
        # store uses RZ so nothing else is an IRA loc-0 target
        prog = _prog([
            Instruction(Op.IADD, dst=2, srcs=(RZ,), imm=1, use_imm=True),
            Instruction(Op.GST, srcs=(RZ, RZ)),
            Instruction(Op.EXIT),
        ], nregs=4)
        pruner = StaticPruner([prog])
        # dst=2 ^ 0x4 = 6 >= nregs: duplicate write raises -> DUE
        d = ErrorDescriptor(model=ErrorModel.IRA, bit_err_mask=0x4,
                            err_oper_loc=0)
        assert not pruner.classify(d).masked
        # dst=2 ^ 0x1 = 3 < nregs and dead -> prunable
        d2 = ErrorDescriptor(model=ErrorModel.IRA, bit_err_mask=0x1,
                             err_oper_loc=0)
        assert pruner.classify(d2).masked

    def test_ira_source_swap_on_memory_op_not_pruned(self):
        prog = _prog([
            Instruction(Op.MOV32I, dst=1, imm=0),
            Instruction(Op.GST, srcs=(1, 1)),
            Instruction(Op.EXIT),
        ])
        d = ErrorDescriptor(model=ErrorModel.IRA, bit_err_mask=0x1,
                            err_oper_loc=1)
        assert not StaticPruner([prog]).classify(d).masked

    def test_ioc_identity_replacement_pruned(self):
        prog = _prog([Instruction(Op.IADD, dst=1, srcs=(1,), imm=1,
                                  use_imm=True), *_store_and_exit(1)])
        pruner = StaticPruner([prog])
        same = ErrorDescriptor(model=ErrorModel.IOC, replacement_op=Op.IADD)
        assert pruner.classify(same).masked
        # BRA is not a computable replacement: illegal instruction -> DUE
        other = ErrorDescriptor(model=ErrorModel.IOC, replacement_op=Op.BRA)
        assert not pruner.classify(other).masked


class TestCampaignEquivalence:
    """The accelerated replay classifies inert descriptors (rule R2)
    without simulating them; its campaign must still agree with
    ``--no-accel`` item for item, activation counts included."""

    APPS = ["vectoradd", "mxm"]
    MODELS = ["WV", "IIO", "IRA", "IAL", "IMD"]

    def _run(self, accel: bool):
        spec = get_spec("epr")
        config = spec.default_config(
            apps=self.APPS, models=self.MODELS, injections_per_model=8,
            chunk=4, scale="tiny", accel=accel)
        plan = spec.build(config)
        results = execute(plan.units, EngineConfig(processes=2),
                          context=plan.context)
        return plan, results

    def test_accelerated_campaign_matches_no_accel(self):
        plan, fast = self._run(accel=True)
        _, cold = self._run(accel=False)
        skipped = never = 0
        for unit in plan.units:
            got = fast[unit.unit_id].value
            want = cold[unit.unit_id].value
            key = [(o["outcome"], o["due_reason"], o["activations"])
                   for o in got["outcomes"]]
            assert key == [(o["outcome"], o["due_reason"], o["activations"])
                           for o in want["outcomes"]], unit.unit_id
            skipped += got["accel"]["skipped"]
            # the never-activating runs the unit classified: one per
            # behavior key (collapsed twins share their representative)
            model = ErrorModel(unit.payload["model"])
            never += len({
                behavior_key(make_descriptor(model, unit.payload["seed"], i))
                for i, o in zip(unit.payload["indices"], want["outcomes"])
                if o["activations"] == 0})
        assert skipped > never, "the inert shortcut never fired"
