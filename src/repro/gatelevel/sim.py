"""Levelized 64-way bit-parallel logic simulation with stuck-at injection.

Each net's value is a row of ``num_words`` uint64 words = ``64*num_words``
independent Boolean machines ("lanes"). Two usage modes:

* **pattern-parallel** (golden simulation): lane *j* carries pattern *j*;
* **fault-parallel** (campaigns): lane *j* has stuck-at fault *j* forced
  onto its net — the classic parallel single-fault propagation scheme.
  One simulation pass evaluates up to ``64*num_words`` faults
  simultaneously; the gate campaign also drives each lane with its own
  stimulus, so a pass carries ``(fault, stimulus)`` pairs.

Faults are applied after the level containing their net is evaluated, so
downstream logic sees the forced value while upstream logic is untouched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.exceptions import ConfigError, NetlistError
from repro.gatelevel.faults import StuckAtFault
from repro.gatelevel.netlist import GateType, Netlist

ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


def lane_bits(arr: np.ndarray, n_lanes: int) -> np.ndarray:
    """(rows, n_lanes) uint8 bit matrix of a (rows, W) word array: column
    *j* is lane *j* (word ``j // 64``, bit ``j % 64``)."""
    octets = np.ascontiguousarray(arr, dtype="<u8").view(np.uint8)
    return np.unpackbits(octets, axis=1, bitorder="little")[:, :n_lanes]


def bus_values(bits: np.ndarray) -> np.ndarray:
    """Integer per column of a (width, lanes) bit matrix, row 0 the LSB.
    The values are uint64, so a bus wider than 64 bits is refused."""
    width, n = bits.shape
    if width > 64:
        raise ConfigError(f"{width}-bit bus exceeds the 64-bit lane value")
    # eight bits per byte row, padded to the eight bytes of a uint64
    octets = np.zeros((8, n), dtype=np.uint8)
    octets[:(width + 7) // 8] = np.packbits(bits, axis=0, bitorder="little")
    return np.ascontiguousarray(octets.T).view("<u8")[:, 0]


#: gate type -> (two-input ufunc, or None for BUF/NOT; whether the
#: result is inverted)
_GATE_OPS = {
    GateType.BUF: (None, False),
    GateType.NOT: (None, True),
    GateType.AND: (np.bitwise_and, False),
    GateType.OR: (np.bitwise_or, False),
    GateType.XOR: (np.bitwise_xor, False),
    GateType.NAND: (np.bitwise_and, True),
    GateType.NOR: (np.bitwise_or, True),
    GateType.XNOR: (np.bitwise_xor, True),
}

#: ``_EARLIER[i, j]``: lane *j* precedes lane *i* in their word
_EARLIER = np.tri(64, k=-1, dtype=bool)
#: words per step of :meth:`FaultBatch.compile`
_COMPILE_WORDS = 4


def _pack_rows(bits: np.ndarray) -> np.ndarray:
    """(..., 64) bool -> (...) uint64 words, element *j* as bit *j*."""
    return np.packbits(bits, axis=-1, bitorder="little").view("<u8")[..., 0]


@dataclass
class FaultBatch:
    """Up to ``64*num_words`` faults packed one per lane: fault *i* sits
    on lane *i*, i.e. word ``i // 64``, bit ``i % 64``."""

    faults: list[StuckAtFault]
    num_words: int

    def __post_init__(self) -> None:
        if len(self.faults) > 64 * self.num_words:
            raise ConfigError(
                f"{len(self.faults)} faults exceed capacity "
                f"{64 * self.num_words}"
            )

    def compile(self, levels: np.ndarray):
        """Group per level: unique (net, word) rows with clear/set masks."""
        k = len(self.faults)
        if k == 0:
            return {}
        used = (k + 63) // 64
        nets = np.full(64 * used, -1, dtype=np.int64)
        nets[:k] = np.fromiter((f.net for f in self.faults), np.int64, k)
        sa1 = np.zeros(64 * used, dtype=bool)
        sa1[:k] = np.fromiter((f.stuck_at for f in self.faults), bool, k)
        nets, sa1 = nets.reshape(used, 64), sa1.reshape(used, 64)
        parts = []
        # a few words at a time: the comparison takes 4 KiB per word
        for w0 in range(0, used, _COMPILE_WORDS):
            n, s = nets[w0:w0 + _COMPILE_WORDS], sa1[w0:w0 + _COMPILE_WORDS]
            # same[w, i, j]: lanes i and j of word w force the same net, so
            # lane i's row of `same`, packed, is the clear mask of its row
            same = n[:, :, None] == n[:, None, :]
            # the first lane on a net in its word carries the row
            lead = ~(same & _EARLIER).any(axis=2) & (n >= 0)
            parts.append((n[lead], np.nonzero(lead)[0] + w0,
                          _pack_rows(same)[lead],
                          _pack_rows(same & s[:, None, :])[lead]))
        row_nets, row_words, clear, setm = (np.concatenate(p)
                                            for p in zip(*parts))
        # rows grouped by level, in row order within a level
        row_levels = levels[row_nets]
        compiled = {}
        for lvl in np.flatnonzero(np.bincount(row_levels)).tolist():
            at = row_levels == lvl
            compiled[lvl] = (row_nets[at], row_words[at], clear[at], setm[at])
        return compiled


class LogicSim:
    """Simulates one :class:`Netlist` cycle by cycle."""

    def __init__(self, netlist: Netlist, num_words: int = 1):
        self.netlist = netlist
        self.num_words = num_words
        self.levels = netlist.levelize()
        self.vals = np.zeros((netlist.num_nets, num_words), dtype=np.uint64)
        self._dff_nets = np.where(netlist.gate_type == GateType.DFF)[0]
        self._dff_d = netlist.fanin0[self._dff_nets]
        self._const0 = np.where(netlist.gate_type == GateType.CONST0)[0]
        self._const1 = np.where(netlist.gate_type == GateType.CONST1)[0]
        self.state = np.zeros((len(self._dff_nets), num_words), dtype=np.uint64)
        self._groups = self._compile_groups()
        self._fault_rows: dict[int, tuple] = {}
        self._max_level = int(self.levels.max()) if netlist.num_nets else 0
        self.reset()

    # ------------------------------------------------------------------
    def _compile_groups(self):
        """Per level, per gate-type evaluation: ``(idx, fanin0, fanin1,
        op, invert)`` (see :data:`_GATE_OPS`)."""
        nl = self.netlist
        groups: list[list[tuple]] = []
        max_level = int(self.levels.max()) if nl.num_nets else 0
        comb = ~np.isin(
            nl.gate_type,
            (GateType.INPUT, GateType.CONST0, GateType.CONST1, GateType.DFF),
        )
        for lvl in range(1, max_level + 1):
            sel = comb & (self.levels == lvl)
            lvl_groups = []
            for t, (op, invert) in _GATE_OPS.items():
                m = sel & (nl.gate_type == t)
                if m.any():
                    idx = np.where(m)[0]
                    lvl_groups.append((idx, nl.fanin0[idx], nl.fanin1[idx],
                                       op, invert))
            groups.append(lvl_groups)
        return groups

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Reset DFFs to their declared init values (all lanes)."""
        init = self.netlist.dff_init[self._dff_nets].astype(np.uint64)
        self.state[:] = np.where(init[:, None] > 0, ALL_ONES, np.uint64(0))

    def set_faults(self, batch: FaultBatch | None) -> None:
        """Install (or clear) the fault batch for subsequent cycles."""
        if batch is None:
            self._fault_rows = {}
            return
        if batch.num_words != self.num_words:
            raise ConfigError("fault batch word count mismatch")
        self._fault_rows = {}      # free the old rows before building new ones
        self._fault_rows = batch.compile(self.levels)

    # ------------------------------------------------------------------
    def broadcast(self, value: int, width: int) -> np.ndarray:
        """(width, W) input array with every lane carrying *value*."""
        out = np.zeros((width, self.num_words), dtype=np.uint64)
        # value is an arbitrary-precision int: its low *width* bits as
        # little-endian bytes, unpacked LSB-first in one vector op
        raw = (value & ((1 << width) - 1)).to_bytes((width + 7) // 8, "little")
        set_bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8),
                                 bitorder="little")[:width]
        out[set_bits.view(bool)] = ALL_ONES
        return out

    def pack_patterns(self, values, width: int) -> np.ndarray:
        """(width, W) input array; lane *j* carries ``values[j]``."""
        values = np.asarray(values, dtype=np.uint64)
        n = len(values)
        if n > 64 * self.num_words:
            raise ConfigError("too many patterns for lane capacity")
        out = np.zeros((width, self.num_words), dtype=np.uint64)
        if n == 0 or width == 0:
            return out
        bits = (np.arange(n) % 64).astype(np.uint64)
        shifts = np.arange(width, dtype=np.uint64)[:, None]
        # (width, n): bit i of pattern j, shifted to lane j's bit position
        bitmat = ((values[None, :] >> shifts) & np.uint64(1)) << bits[None, :]
        # lanes are laid out word-major, so OR-reduce contiguous 64-lane
        # runs into their word column in one reduceat
        used = (n + 63) // 64
        starts = np.arange(0, n, 64)
        out[:, :used] = np.bitwise_or.reduceat(bitmat, starts, axis=1)
        return out

    def lane_values(self, arr: np.ndarray, n_lanes: int) -> np.ndarray:
        """Integer value of the bus per lane (LSB-first); buses are at
        most 64 bits wide."""
        return bus_values(lane_bits(arr, n_lanes))

    # ------------------------------------------------------------------
    def cycle(self, inputs: dict[str, int | np.ndarray],
              sample: bool = True) -> dict[str, np.ndarray] | None:
        """Advance one clock cycle; returns {output_name: (width, W)}, or
        ``None`` without *sample* (the values stay readable in
        :attr:`vals` until the next cycle)."""
        nl = self.netlist
        vals = self.vals
        # 1. drive inputs
        for name, nets in nl.inputs.items():
            if name not in inputs:
                raise NetlistError(f"{nl.name}: missing input {name!r}")
            v = inputs[name]
            if isinstance(v, (int, np.integer)):
                v = self.broadcast(int(v), len(nets))
            vals[nets] = v
        # 2. constants and DFF outputs
        vals[self._const0] = 0
        vals[self._const1] = ALL_ONES
        if len(self._dff_nets):
            vals[self._dff_nets] = self.state
        # 3. level-0 faults (inputs, DFF Q, consts)
        self._apply_faults(0)
        # 4. combinational levels, each gate group evaluated in place in
        # its gathered first fanin
        for lvl, groups in enumerate(self._groups, start=1):
            for idx, f0, f1, op, invert in groups:
                a = vals[f0]
                if op is not None:
                    op(a, vals[f1], out=a)
                if invert:
                    np.invert(a, out=a)
                vals[idx] = a
            self._apply_faults(lvl)
        # 5. clock DFFs (D values already include any fault forcing)
        if len(self._dff_nets):
            self.state = vals[self._dff_d]
        # 6. sample outputs
        if sample:
            return {name: vals[nets] for name, nets in nl.outputs.items()}
        return None

    def _apply_faults(self, level: int) -> None:
        rows = self._fault_rows.get(level)
        if rows is None:
            return
        nets, words, clear, setm = rows
        cur = self.vals[nets, words]
        self.vals[nets, words] = (cur & ~clear) | setm

    # convenience -------------------------------------------------------
    def run(self, input_seq: list[dict]) -> list[dict[str, np.ndarray]]:
        """Run a multi-cycle transaction; returns outputs per cycle."""
        return [self.cycle(inp) for inp in input_seq]
