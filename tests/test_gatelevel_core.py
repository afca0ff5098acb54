"""Tests for the gate-level netlist, simulator, circuits and faults."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.exceptions import ConfigError, NetlistError
from repro.gatelevel import (
    CircuitBuilder,
    FaultBatch,
    GateType,
    LogicSim,
    StuckAtFault,
    collapse_faults,
    full_fault_list,
    netlist_area,
)
from repro.gatelevel.circuits import (
    array_multiplier,
    equals,
    equals_const,
    incrementer,
    leading_zero_count,
    less_than,
    mux_n,
    onehot_decoder,
    priority_encoder,
    register_bank,
    ripple_adder,
    rotate_left,
    shifter_left,
    shifter_right,
    subtractor,
)


def _comb_sim(build_fn, width_in, names=("a", "b")):
    """Build a 2-input combinational circuit and return an evaluator."""
    b = CircuitBuilder("t")
    buses = [b.input(n, width_in) for n in names]
    out = build_fn(b, *buses)
    b.output("y", out)
    sim = LogicSim(b.build())

    def ev(*vals):
        res = sim.cycle(dict(zip(names, vals)))
        return int(sim.lane_values(res["y"], 1)[0])

    return ev


class TestBuilderBasics:
    def test_simple_and(self):
        b = CircuitBuilder("t")
        a = b.input("a")
        c = b.input("b")
        b.output("y", a & c)
        sim = LogicSim(b.build())
        for x, y in ((0, 0), (0, 1), (1, 0), (1, 1)):
            out = sim.cycle({"a": x, "b": y})
            assert int(sim.lane_values(out["y"], 1)[0]) == (x & y)

    def test_duplicate_io_rejected(self):
        b = CircuitBuilder("t")
        b.input("a")
        with pytest.raises(NetlistError):
            b.input("a")

    def test_unconnected_dff_rejected(self):
        b = CircuitBuilder("t")
        b.dff(1)
        with pytest.raises(NetlistError):
            b.build()

    def test_width_mismatch_rejected(self):
        b = CircuitBuilder("t")
        a = b.input("a", 2)
        c = b.input("b", 3)
        with pytest.raises(NetlistError):
            _ = a & c

    def test_missing_input_at_sim(self):
        b = CircuitBuilder("t")
        a = b.input("a")
        b.output("y", ~a)
        sim = LogicSim(b.build())
        with pytest.raises(NetlistError):
            sim.cycle({})

    def test_counter_dff(self):
        b = CircuitBuilder("cnt")
        q = b.dff(4)
        b.connect_dff(q, incrementer(b, q))
        b.output("q", q)
        sim = LogicSim(b.build())
        seen = [int(sim.lane_values(sim.cycle({})["q"], 1)[0]) for _ in range(6)]
        assert seen == [0, 1, 2, 3, 4, 5]

    def test_register_bank_enable(self):
        b = CircuitBuilder("reg")
        en = b.input("en")
        d = b.input("d", 4)
        q = register_bank(b, 4, en[0], d)
        b.output("q", q)
        sim = LogicSim(b.build())
        sim.cycle({"en": 1, "d": 9})
        out = sim.cycle({"en": 0, "d": 3})
        assert int(sim.lane_values(out["q"], 1)[0]) == 9  # held

    def test_area_positive_and_dff_heavy(self):
        b = CircuitBuilder("t")
        a = b.input("a", 8)
        q = b.dff(8)
        b.connect_dff(q, a)
        b.output("q", q)
        nl = b.build()
        assert netlist_area(nl) > 0
        assert nl.num_dffs == 8


class TestCircuits:
    @given(st.integers(0, 255), st.integers(0, 255))
    @settings(max_examples=30)
    def test_ripple_adder(self, x, y):
        ev = _comb_sim(lambda b, a, c: ripple_adder(b, a, c)[0], 8)
        assert ev(x, y) == (x + y) & 0xFF

    @given(st.integers(0, 255), st.integers(0, 255))
    @settings(max_examples=30)
    def test_subtractor(self, x, y):
        ev = _comb_sim(lambda b, a, c: subtractor(b, a, c)[0], 8)
        assert ev(x, y) == (x - y) & 0xFF

    @given(st.integers(0, 255))
    @settings(max_examples=20)
    def test_incrementer(self, x):
        b = CircuitBuilder("t")
        a = b.input("a", 8)
        b.output("y", incrementer(b, a))
        sim = LogicSim(b.build())
        out = sim.cycle({"a": x})
        assert int(sim.lane_values(out["y"], 1)[0]) == (x + 1) & 0xFF

    @given(st.integers(0, 255), st.integers(0, 255))
    @settings(max_examples=30)
    def test_equals_and_less(self, x, y):
        b = CircuitBuilder("t")
        a = b.input("a", 8)
        c = b.input("b", 8)
        from repro.gatelevel.netlist import Bus

        b.output("eq", Bus(b, [equals(b, a, c)]))
        b.output("lt", Bus(b, [less_than(b, a, c)]))
        sim = LogicSim(b.build())
        out = sim.cycle({"a": x, "b": y})
        assert int(sim.lane_values(out["eq"], 1)[0]) == int(x == y)
        assert int(sim.lane_values(out["lt"], 1)[0]) == int(x < y)

    @given(st.integers(0, 255), st.integers(0, 255))
    @settings(max_examples=20)
    def test_multiplier(self, x, y):
        ev = _comb_sim(lambda b, a, c: array_multiplier(b, a, c, 16), 8)
        assert ev(x, y) == x * y

    @given(st.integers(0, 15))
    @settings(max_examples=16)
    def test_onehot_decoder(self, s):
        b = CircuitBuilder("t")
        sel = b.input("a", 4)
        b.output("y", onehot_decoder(b, sel))
        sim = LogicSim(b.build())
        out = sim.cycle({"a": s})
        assert int(sim.lane_values(out["y"], 1)[0]) == 1 << s

    @given(st.integers(0, 255), st.integers(0, 3))
    @settings(max_examples=30)
    def test_mux_n(self, x, s):
        b = CircuitBuilder("t")
        sel = b.input("s", 2)
        ins = [b.input(f"i{i}", 8) for i in range(4)]
        b.output("y", mux_n(b, sel, ins))
        sim = LogicSim(b.build())
        vals = {f"i{i}": (x + i) & 0xFF for i in range(4)}
        out = sim.cycle({"s": s, **vals})
        assert int(sim.lane_values(out["y"], 1)[0]) == (x + s) & 0xFF

    @given(st.integers(1, 255))
    @settings(max_examples=30)
    def test_priority_encoder(self, req):
        b = CircuitBuilder("t")
        r = b.input("r", 8)
        idx, any_ = priority_encoder(b, r)
        from repro.gatelevel.netlist import Bus

        b.output("idx", idx)
        b.output("any", Bus(b, [any_]))
        sim = LogicSim(b.build())
        out = sim.cycle({"r": req})
        lowest = (req & -req).bit_length() - 1
        assert int(sim.lane_values(out["idx"], 1)[0]) == lowest
        assert int(sim.lane_values(out["any"], 1)[0]) == 1

    def test_priority_encoder_idle(self):
        b = CircuitBuilder("t")
        r = b.input("r", 8)
        idx, any_ = priority_encoder(b, r)
        from repro.gatelevel.netlist import Bus

        b.output("any", Bus(b, [any_]))
        sim = LogicSim(b.build())
        out = sim.cycle({"r": 0})
        assert int(sim.lane_values(out["any"], 1)[0]) == 0

    @given(st.integers(0, 255), st.integers(0, 7))
    @settings(max_examples=30)
    def test_shifters_and_rotate(self, x, s):
        for fn, pyfn in (
            (shifter_left, lambda v, k: (v << k) & 0xFF),
            (shifter_right, lambda v, k: v >> k),
            (rotate_left, lambda v, k: ((v << k) | (v >> (8 - k))) & 0xFF
             if k else v),
        ):
            b = CircuitBuilder("t")
            a = b.input("a", 8)
            amt = b.input("s", 3)
            b.output("y", fn(b, a, amt))
            sim = LogicSim(b.build())
            out = sim.cycle({"a": x, "s": s})
            assert int(sim.lane_values(out["y"], 1)[0]) == pyfn(x, s)

    @given(st.integers(0, 255))
    @settings(max_examples=30)
    def test_leading_zero_count(self, x):
        b = CircuitBuilder("t")
        a = b.input("a", 8)
        b.output("y", leading_zero_count(b, a))
        sim = LogicSim(b.build())
        out = sim.cycle({"a": x})
        expected = 8 - x.bit_length()
        assert int(sim.lane_values(out["y"], 1)[0]) == expected

    def test_equals_const(self):
        b = CircuitBuilder("t")
        a = b.input("a", 4)
        from repro.gatelevel.netlist import Bus

        b.output("y", Bus(b, [equals_const(b, a, 9)]))
        sim = LogicSim(b.build())
        assert int(sim.lane_values(sim.cycle({"a": 9})["y"], 1)[0]) == 1
        assert int(sim.lane_values(sim.cycle({"a": 8})["y"], 1)[0]) == 0


class TestPatternParallel:
    def test_pack_unpack_roundtrip(self):
        b = CircuitBuilder("t")
        a = b.input("a", 8)
        b.output("y", b.buf(a))
        sim = LogicSim(b.build(), num_words=2)
        vals = np.arange(100, dtype=np.uint64)
        packed = sim.pack_patterns(vals, 8)
        out = sim.cycle({"a": packed})
        got = sim.lane_values(out["y"], 100)
        np.testing.assert_array_equal(got, vals & 0xFF)

    def test_adder_pattern_parallel_matches_serial(self):
        b = CircuitBuilder("t")
        a = b.input("a", 8)
        c = b.input("b", 8)
        b.output("y", ripple_adder(b, a, c)[0])
        sim = LogicSim(b.build(), num_words=1)
        rng = np.random.default_rng(7)
        xs = rng.integers(0, 256, 64).astype(np.uint64)
        ys = rng.integers(0, 256, 64).astype(np.uint64)
        out = sim.cycle({"a": sim.pack_patterns(xs, 8),
                         "b": sim.pack_patterns(ys, 8)})
        got = sim.lane_values(out["y"], 64)
        np.testing.assert_array_equal(got, (xs + ys) & 0xFF)

    def test_lane_values_keeps_bit_63_and_refuses_wider_buses(self):
        b = CircuitBuilder("t")
        b.output("y", b.buf(b.input("a", 64)))
        b.output("z", b.buf(b.input("c", 65)))
        sim = LogicSim(b.build(), num_words=1)
        vals = np.array([1 << 63, (1 << 64) - 1, 5], dtype=np.uint64)
        out = sim.cycle({"a": sim.pack_patterns(vals, 64), "c": 0})
        np.testing.assert_array_equal(sim.lane_values(out["y"], 3), vals)
        # a uint64 lane value cannot hold bit 64: refuse instead of
        # silently dropping it
        with pytest.raises(ConfigError, match="65-bit bus"):
            sim.lane_values(out["z"], 3)


class TestFaults:
    def _adder_sim(self, num_words=1):
        b = CircuitBuilder("t")
        a = b.input("a", 4)
        c = b.input("b", 4)
        s, _ = ripple_adder(b, a, c)
        b.output("y", s)
        return b.build()

    def test_zero_faults_equals_golden(self):
        nl = self._adder_sim()
        sim = LogicSim(nl, num_words=1)
        golden = sim.cycle({"a": 5, "b": 6})["y"]
        sim.set_faults(FaultBatch([], num_words=1))
        faulty = sim.cycle({"a": 5, "b": 6})["y"]
        np.testing.assert_array_equal(golden, faulty)

    def test_sa_on_input_flips_output(self):
        nl = self._adder_sim()
        input_net = nl.inputs["a"][0]  # LSB of a
        sim = LogicSim(nl, num_words=1)
        batch = FaultBatch([StuckAtFault(input_net, 1)], num_words=1)
        sim.set_faults(batch)
        out = sim.cycle({"a": 0, "b": 0})
        vals = sim.lane_values(out["y"], 2)
        assert vals[0] == 1  # faulty lane: a=1 -> sum=1
        assert vals[1] == 0  # untouched lane

    def test_parallel_fault_lanes_are_independent(self):
        nl = self._adder_sim()
        faults = [StuckAtFault(nl.inputs["a"][i], 1) for i in range(4)]
        sim = LogicSim(nl, num_words=1)
        sim.set_faults(FaultBatch(faults, num_words=1))
        out = sim.cycle({"a": 0, "b": 0})
        vals = sim.lane_values(out["y"], 5)
        np.testing.assert_array_equal(vals[:4], [1, 2, 4, 8])
        assert vals[4] == 0

    def test_parallel_matches_serial_fault_simulation(self):
        nl = self._adder_sim()
        faults = full_fault_list(nl)[:60]
        simp = LogicSim(nl, num_words=1)
        simp.set_faults(FaultBatch(faults, num_words=1))
        outs = simp.lane_values(simp.cycle({"a": 9, "b": 3})["y"], len(faults))
        for i, f in enumerate(faults):
            s = LogicSim(nl, num_words=1)
            s.set_faults(FaultBatch([f], num_words=1))
            v = s.lane_values(s.cycle({"a": 9, "b": 3})["y"], 1)[0]
            assert v == outs[i], f"fault {f} mismatch"

    def test_fault_on_dff_state(self):
        b = CircuitBuilder("cnt")
        q = b.dff(4)
        b.connect_dff(q, incrementer(b, q))
        b.output("q", q)
        nl = b.build()
        sim = LogicSim(nl, num_words=1)
        # stick the LSB DFF output at 0: counter counts 0,0? -> even pattern
        lsb = nl.outputs["q"][0]
        sim.set_faults(FaultBatch([StuckAtFault(lsb, 0)], num_words=1))
        seen = [int(sim.lane_values(sim.cycle({})["q"], 1)[0]) for _ in range(4)]
        assert all(v % 2 == 0 for v in seen)

    def test_capacity_enforced(self):
        with pytest.raises(Exception):
            FaultBatch([StuckAtFault(0, 0)] * 65, num_words=1)

    def test_full_fault_list_covers_both_polarities(self):
        nl = self._adder_sim()
        faults = full_fault_list(nl)
        nets = {f.net for f in faults}
        assert len(faults) == 2 * len(nets)

    def test_collapse_reduces_buffer_chains(self):
        b = CircuitBuilder("t")
        a = b.input("a")
        x = b.buf(a)
        y = b.buf(x)
        b.output("y", y)
        nl = b.build()
        faults = full_fault_list(nl)
        collapsed = collapse_faults(nl, faults)
        assert len(collapsed) < len(faults)
        assert len(collapsed) == 2  # all equivalent to input SA0/SA1

    def test_collapse_inverter_flips_polarity(self):
        b = CircuitBuilder("t")
        a = b.input("a")
        b.output("y", ~a)
        nl = b.build()
        collapsed = collapse_faults(nl, full_fault_list(nl))
        assert len(collapsed) == 2

    @given(st.integers(0, 15), st.integers(0, 15))
    @settings(max_examples=10)
    def test_faulty_machine_is_deterministic(self, x, y):
        nl = self._adder_sim()
        f = StuckAtFault(10, 1)
        outs = []
        for _ in range(2):
            sim = LogicSim(nl, num_words=1)
            sim.set_faults(FaultBatch([f], num_words=1))
            outs.append(sim.lane_values(sim.cycle({"a": x, "b": y})["y"], 1)[0])
        assert outs[0] == outs[1]
