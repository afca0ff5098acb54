"""t-MxM — the tile-based matrix-multiplication mini-app (paper §4.1).

An 8x8 tile product computed by 64 threads (2 warps), one output element
per thread, mirroring one tile of a CNN convolution lowered to GEMM. The
three paper input types are provided:

* **Max** — the tile with the highest sum of element values (interior of a
  feature map: large, similarly-valued activations);
* **Zero** — the tile with the most zeros (feature-map edge: padding);
* **Random** — an unbiased tile.

Tiles are produced by synthesizing LeNet/YOLO-style feature maps (conv ->
ReLU of a seeded random network on seeded inputs) and picking tiles by the
paper's criteria, rather than hard-coding values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.rng import make_rng
from repro.isa.builder import KernelBuilder
from repro.isa.opcodes import SpecialReg
from repro.isa.program import Program

TILE = 8
NTHREADS = TILE * TILE  # 64 threads = 2 warps

TILE_TYPES = ("max", "zero", "random")


def _synth_feature_map(rng: np.random.Generator, size: int = 24) -> np.ndarray:
    """A padded conv->ReLU feature map, as in LeNet/YOLO inference."""
    img = rng.uniform(0, 1, size=(size, size)).astype(np.float32)
    # positive-mean weights: interior activations mostly survive the ReLU,
    # padding-border tiles stay exactly zero (as in real feature maps)
    w = (rng.normal(size=(3, 3)) + 0.4).astype(np.float32)
    padded = np.pad(img, 6)  # wide padding: zero-rich border tiles
    out = np.zeros((size + 10, size + 10), dtype=np.float32)
    for dy in range(3):
        for dx in range(3):
            out += w[dy, dx] * padded[dy:dy + size + 10, dx:dx + size + 10]
    return np.maximum(out, 0.0).astype(np.float32)


def make_tile(tile_type: str, seed: int = 0, value_index: int = 0) -> np.ndarray:
    """Select an 8x8 tile from a synthesized feature map by paper criterion."""
    if tile_type not in TILE_TYPES:
        raise KeyError(f"unknown tile type {tile_type!r}; use {TILE_TYPES}")
    # the map depends only on (seed, value_index): max/zero/random tiles are
    # picked from the same feature map, as in the paper's tile profiling
    rng = make_rng(seed, "tmxm", value_index)
    fmap = _synth_feature_map(rng)
    h = fmap.shape[0] - TILE
    tiles = [
        fmap[y:y + TILE, x:x + TILE]
        for y in range(0, h, TILE)
        for x in range(0, h, TILE)
    ]
    if tile_type == "max":
        return max(tiles, key=lambda t: float(t.sum())).copy()
    if tile_type == "zero":
        return max(tiles, key=lambda t: int((t == 0).sum())).copy()
    interior = [t for t in tiles if (t == 0).sum() < 8]
    pick = interior[rng.integers(0, len(interior))] if interior else tiles[0]
    return pick.copy()


def build_tmxm_rowmajor_program() -> Program:
    """One thread per output element: C[i,j] by thread (tid.x = i, tid.y = j).

    The row index maps onto the physical lane (tid.x % 8), reproducing the
    FlexGrip lane assignment under which per-lane pipeline faults corrupt
    *rows* of the output tile — the dominant pipeline pattern of Table 3.
    """
    k = KernelBuilder("tmxm", nregs=32)
    i = k.s2r_tid_x()                       # row  (lane-persistent)
    j = k.s2r_new(SpecialReg.TID_Y)         # column
    a_ptr = k.load_param(0)
    b_ptr = k.load_param(1)
    c_ptr = k.load_param(2)
    acc = k.movf_new(0.0)
    t8 = k.mov32i_new(TILE)
    a_addr = k.reg()
    k.imul(a_addr, i, t8)
    k.shl(a_addr, a_addr, imm=2)
    k.iadd(a_addr, a_addr, a_ptr)
    b_addr = k.reg()
    k.shl(b_addr, j, imm=2)
    k.iadd(b_addr, b_addr, b_ptr)
    va, vb = k.reg(), k.reg()
    kk = k.reg()
    with k.for_range(kk, 0, t8):
        k.gld(va, a_addr)
        k.gld(vb, b_addr)
        k.ffma(acc, va, vb, acc)
        k.iadd(a_addr, a_addr, imm=4)
        k.iadd(b_addr, b_addr, imm=TILE * 4)
    out = k.reg()
    k.imad(out, i, t8, j)
    k.shl(out, out, imm=2)
    k.iadd(out, out, c_ptr)
    k.gst(out, acc)
    k.exit()
    return k.build()


@dataclass
class TMxM:
    """A t-MxM instance: program + the two input tiles."""

    tile_type: str
    a: np.ndarray
    b: np.ndarray
    program: Program

    @classmethod
    def create(cls, tile_type: str = "random", seed: int = 0,
               value_index: int = 0) -> "TMxM":
        a = make_tile(tile_type, seed, value_index)
        b = make_tile(tile_type, seed, value_index + 100)
        return cls(tile_type, a, b, build_tmxm_rowmajor_program())

    #: the output tile is FP32
    is_fp = True

    def run_golden(self, device, launcher=None) -> np.ndarray:
        from repro.workloads.base import default_launcher

        launch = launcher or default_launcher(device)
        pa = device.alloc_array(self.a)
        pb = device.alloc_array(self.b)
        pc = device.alloc(NTHREADS)
        launch(self.program, 1, (TILE, TILE), params=[pa, pb, pc])
        return device.read(pc, NTHREADS)

    def reference(self) -> np.ndarray:
        acc = np.zeros((TILE, TILE), dtype=np.float32)
        for kk in range(TILE):
            acc += np.float32(self.a[:, kk:kk + 1]) * self.b[kk:kk + 1, :]
        return acc
