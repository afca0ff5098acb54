"""RTL injection-site inventories.

A site is a named bit of a microarchitectural structure. The five modules
match the paper's Figure 3 injection targets:

* ``fu_int`` / ``fu_fp32`` — per-lane functional-unit operand and result
  registers, plus *internal truncated* datapath bits (product extensions,
  alignment guards) that exist structurally but cannot reach the output of
  a truncating datapath. The FP32 unit has ~3x the internal sites of the
  INT unit (its area in Table 2 of the paper is >3x), which is exactly why
  the paper measures a lower AVF for FP32 instructions.
* ``fu_sfu`` — the two shared special-function units: input/output
  registers (shared by 16 threads each) and their sequencing control.
* ``scheduler`` — warp-wide state: the 32 active-thread mask bits, warp
  PC bits, and per-slot enable bits.
* ``pipeline`` — per-lane operand/result registers of the issue stage
  (the ~84% "data" part) plus the sub-group control registers (opcode,
  destination index, group mask, write-back enable, guard predicate —
  the ~16% "control" part).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

NUM_LANES = 8
NUM_SFUS = 2
MAX_WARPS = 4       # warp slots tracked for scheduler pc/enable sites
PC_BITS = 8

RTL_MODULES = ("fu_int", "fu_fp32", "fu_sfu", "scheduler", "pipeline")


@dataclass(frozen=True)
class RtlSite:
    """One stuck-at injection site: (module, kind, index, bit)."""

    module: str
    kind: str
    index: int   # lane / warp-slot / sfu id, kind-dependent
    bit: int

    @property
    def is_control(self) -> bool:
        return self.kind.startswith("ctl_") or self.kind in (
            "active_bit", "pc_bit", "warp_enable", "sfu_counter", "sfu_busy",
            "age_ctr", "rr_ptr", "ibuf_opcode",
        )

    def __str__(self) -> str:
        return f"{self.module}.{self.kind}[{self.index}].b{self.bit}"


NUM_FU_UNITS = 32  # dedicated per-thread ADD/MUL/MAD units (paper §4.2)


def _unit_reg_sites(module: str, kinds: tuple[str, ...], n_units: int,
                    bits: int = 32):
    out = []
    for kind in kinds:
        for unit in range(n_units):
            for bit in range(bits):
                out.append(RtlSite(module, kind, unit, bit))
    return out


def _lane_reg_sites(module: str, kinds: tuple[str, ...], bits: int = 32):
    return _unit_reg_sites(module, kinds, NUM_LANES, bits)


def fu_int_sites() -> list[RtlSite]:
    sites = _unit_reg_sites("fu_int", ("op_a", "op_b", "op_c", "res"),
                            NUM_FU_UNITS)
    # truncated internal product extension (high half of the 64-bit product)
    for unit in range(NUM_FU_UNITS):
        for bit in range(32):
            sites.append(RtlSite("fu_int", "internal", unit, bit))
    return sites


def fu_fp32_sites() -> list[RtlSite]:
    sites = _unit_reg_sites("fu_fp32", ("op_a", "op_b", "op_c", "res"),
                            NUM_FU_UNITS)
    # truncated partial products + alignment guards: FP32 is the big unit
    for unit in range(NUM_FU_UNITS):
        for bit in range(160):
            sites.append(RtlSite("fu_fp32", "internal", unit, bit))
    return sites


def fu_sfu_sites() -> list[RtlSite]:
    sites = []
    for sfu in range(NUM_SFUS):
        for bit in range(32):
            sites.append(RtlSite("fu_sfu", "sfu_in", sfu, bit))
            sites.append(RtlSite("fu_sfu", "sfu_out", sfu, bit))
        for bit in range(4):
            sites.append(RtlSite("fu_sfu", "sfu_counter", sfu, bit))
        sites.append(RtlSite("fu_sfu", "sfu_busy", sfu, 0))
    return sites


def scheduler_sites(num_warps: int = 16) -> list[RtlSite]:
    """Warp-scheduler state: shared thread-mask update logic (a fault
    there touches the same thread position of *every* warp), per-slot PC
    and enable state (only faults in resident slots activate), and
    priority/age bookkeeping whose corruption merely reorders issue."""
    sites = []
    for bit in range(32):
        sites.append(RtlSite("scheduler", "active_bit", 0, bit))
    # the WSC's per-issue instruction buffer: a stuck bit corrupts the
    # opcode of every issued instruction of every warp
    for bit in range(8):
        sites.append(RtlSite("scheduler", "ibuf_opcode", 0, bit))
    for slot in range(num_warps):
        for bit in range(PC_BITS):
            sites.append(RtlSite("scheduler", "pc_bit", slot, bit))
        sites.append(RtlSite("scheduler", "warp_enable", slot, 0))
        for bit in range(4):
            sites.append(RtlSite("scheduler", "age_ctr", slot, bit))
    for bit in range(4):
        sites.append(RtlSite("scheduler", "rr_ptr", 0, bit))
    return sites


def pipeline_sites() -> list[RtlSite]:
    sites = _lane_reg_sites("pipeline", ("op_a", "op_b", "op_c", "res"))
    # control registers exist per sub-group issue buffer (4 of them); some
    # are not refreshed until the next warp dispatch, so a corruption leaks
    # into the following sub-group as well (paper: ~18 threads affected)
    for grp in range(4):
        for bit in range(8):
            sites.append(RtlSite("pipeline", "ctl_opcode", grp, bit))
            sites.append(RtlSite("pipeline", "ctl_dest", grp, bit))
            sites.append(RtlSite("pipeline", "ctl_grpmask", grp, bit))
            sites.append(RtlSite("pipeline", "ctl_memflags", grp, bit))
        for bit in range(4):
            sites.append(RtlSite("pipeline", "ctl_pred", grp, bit))
        sites.append(RtlSite("pipeline", "ctl_wben", grp, 0))
    return sites


@functools.cache
def module_sites(module: str) -> tuple[RtlSite, ...]:
    """The full site list of one RTL module (built once per process)."""
    table = {
        "fu_int": fu_int_sites,
        "fu_fp32": fu_fp32_sites,
        "fu_sfu": fu_sfu_sites,
        "scheduler": scheduler_sites,
        "pipeline": pipeline_sites,
    }
    if module not in table:
        raise KeyError(f"unknown RTL module {module!r}; known: {RTL_MODULES}")
    return tuple(table[module]())


def control_fraction(module: str) -> float:
    """Fraction of a module's sites that are control (paper: pipeline ~16%)."""
    sites = module_sites(module)
    return sum(s.is_control for s in sites) / len(sites)
