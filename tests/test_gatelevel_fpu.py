"""Tests for the gate-level FP32 datapath against its bit-exact model and
against IEEE float32 within truncation tolerance."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.bitops import bits_to_float, float_to_bits
from repro.gatelevel import LogicSim, netlist_area
from repro.gatelevel.fpu import (
    build_fp32_add,
    build_fp32_core,
    build_fp32_mul,
    fp32_add_model,
    fp32_mul_model,
)

normal_floats = st.floats(
    min_value=2.0**-100, max_value=2.0**100, allow_nan=False,
    allow_infinity=False, width=32,
).map(abs)
signed_floats = st.tuples(normal_floats, st.booleans()).map(
    lambda t: -t[0] if t[1] else t[0]
)


@pytest.fixture(scope="module")
def mul_sim():
    return LogicSim(build_fp32_mul())


@pytest.fixture(scope="module")
def add_sim():
    return LogicSim(build_fp32_add())


def _eval(sim, a, b, extra=None):
    inputs = {"a": float_to_bits(a), "b": float_to_bits(b)}
    if extra:
        inputs.update(extra)
    out = sim.cycle(inputs)
    return int(sim.lane_values(out["y"], 1)[0])


class TestFp32Mul:
    @given(signed_floats, signed_floats)
    @settings(max_examples=60, deadline=None)
    def test_matches_bit_model(self, mul_sim, x, y):
        got = _eval(mul_sim, x, y)
        want = fp32_mul_model(float_to_bits(x), float_to_bits(y))
        assert got == want

    @given(signed_floats, signed_floats)
    @settings(max_examples=40, deadline=None)
    def test_close_to_ieee(self, mul_sim, x, y):
        got = bits_to_float(_eval(mul_sim, x, y))
        want = np.float32(x) * np.float32(y)
        if np.isfinite(want) and want != 0:
            assert got == pytest.approx(float(want), rel=2e-7)

    def test_zero_operand(self, mul_sim):
        assert bits_to_float(_eval(mul_sim, 0.0, 123.5)) == 0.0

    def test_sign_rule(self, mul_sim):
        assert bits_to_float(_eval(mul_sim, -2.0, 3.0)) < 0
        assert bits_to_float(_eval(mul_sim, -2.0, -3.0)) > 0

    def test_overflow_to_inf(self, mul_sim):
        v = bits_to_float(_eval(mul_sim, 1e38, 1e38))
        assert np.isinf(v)


def _add_bound(x: float, y: float) -> float:
    """How far the truncating adder's sum of float32 *x* and *y* may be
    from the IEEE one: ``2u``, with ``u`` the ulp of the larger operand.

    The adder aligns the smaller significand with a right shift that drops
    its low bits, and no guard, round or sticky bit is kept. In units of
    ``u`` the significand sum or difference it forms is the exact one plus
    ``t``, ``-1 < t <= 0`` for a sum and ``0 <= t < 1`` for a difference.

    * A sum without carry is the exact sum truncated to a multiple of
      ``u``, its result ulp; IEEE rounds it to the nearest one: at most
      ``u`` apart.
    * A sum with carry is normalised by a right shift that drops one more
      bit: the exact sum truncated to a multiple of ``2u``, the result
      ulp, against IEEE's nearest multiple of ``2u``: at most ``2u``.
    * A difference is normalised by an exact left shift: it is the
      multiple of ``u`` just above the exact value, or equal to it. That
      multiple and the one below are representable, and IEEE's rounding
      lies between them: at most ``u``, however few bits survive the
      cancellation.

    The operands of these tests are normal with magnitudes in
    ``[2**-100, 2**100]``, so no result overflows or underflows."""
    return 2 * float(np.spacing(np.float32(max(abs(x), abs(y)))))


class TestFp32Add:
    @given(signed_floats, signed_floats)
    @settings(max_examples=60, deadline=None)
    def test_matches_bit_model(self, add_sim, x, y):
        got = _eval(add_sim, x, y)
        want = fp32_add_model(float_to_bits(x), float_to_bits(y))
        assert got == want

    @given(signed_floats, signed_floats)
    @settings(max_examples=40, deadline=None)
    def test_close_to_ieee(self, add_sim, x, y):
        got = bits_to_float(_eval(add_sim, x, y))
        want = float(np.float32(x) + np.float32(y))
        assert abs(got - want) <= _add_bound(x, y)

    def test_cancelling_pair(self, add_sim):
        # the larger operand's ulp is 16 ulps of the cancelled result: the
        # adder is 16 result ulps, but half an operand ulp, off IEEE
        x, y = -1.2133374166039941e+30, 1.2676506002282294e+30
        got = bits_to_float(_eval(add_sim, x, y))
        want = float(np.float32(x) + np.float32(y))
        assert abs(got - want) == 16 * float(np.spacing(np.float32(want)))
        assert abs(got - want) == _add_bound(x, y) / 4

    def test_exact_cancellation(self, add_sim):
        assert bits_to_float(_eval(add_sim, 5.5, -5.5)) == 0.0

    def test_identity_with_zero(self, add_sim):
        assert bits_to_float(_eval(add_sim, 0.0, 7.25)) == 7.25

    def test_commutative(self, add_sim):
        assert _eval(add_sim, 1.7, 9.25) == _eval(add_sim, 9.25, 1.7)


class TestFp32Core:
    def test_op_select(self):
        sim = LogicSim(build_fp32_core())
        add = _eval(sim, 1.5, 2.5, extra={"op": 0})
        mul = _eval(sim, 1.5, 2.5, extra={"op": 1})
        assert bits_to_float(add) == 4.0
        assert bits_to_float(mul) == 3.75

    def test_core_area_dominates_control_units(self):
        # Table 4 prerequisite: the FP32 core is the area yardstick
        area = netlist_area(build_fp32_core())
        assert area > 1000  # a real datapath, not a toy
