"""Simulated memories: global, constant and per-CTA shared.

All memories are word (32-bit) granular, byte addressed, and enforce
alignment and bounds — an out-of-range or misaligned access raises
:class:`~repro.common.exceptions.MemoryFaultError`, which the campaigns
classify as a DUE (the dominant failure mode of the paper's Operation
errors: "incorrect memory addresses and illegal instructions ... 99% of the
total DUEs").
"""

from __future__ import annotations

import mmap

import numpy as np

from repro.common.exceptions import ConfigError, MemoryFaultError

_U32 = np.uint32
_TWO = _U32(2)
#: smallest written extent a memory tracks (words)
_MIN_EXTENT = 1024


def _addr_bits(nbytes: int) -> np.uint32:
    """Address bits that make an access misaligned or put it at or past
    byte *nbytes* (a power of two)."""
    return _U32((~(nbytes - 1) | 3) & 0xFFFFFFFF)


def _pow2_at_least(n: int) -> int:
    return 1 << max(n - 1, 0).bit_length()


class _WordMemory:
    """Bounds-checked word-addressable backing store.

    ``extent`` is a written-extent high-water mark: every word at or past
    it is zero. It is a power of two (at least ``_MIN_EXTENT``) capped at
    the size, so a kernel store tests it with the same single AND as its
    bounds check, and only a store past it takes the slow path that
    raises it. Host writes raise it too; code that writes ``data``
    directly calls :meth:`reach`. Snapshots trim and compare memory
    within ``[0, extent)`` instead of scanning the whole array.
    """

    kind = "memory"

    def __init__(self, num_words: int):
        if num_words <= 0:
            raise ConfigError(f"{self.kind}: size must be positive")
        self.num_words = num_words
        self.data = self._zeros(num_words)
        nbytes = 4 * num_words
        if nbytes & (nbytes - 1) == 0:
            # power-of-two size: misaligned or out of bounds <=> any of
            # these address bits is set
            self._bad_bits = _addr_bits(nbytes)
            self._limit = None
        else:
            self._bad_bits = _U32(3)
            self._limit = _U32(min(nbytes, 0xFFFFFFFF))
        self.set_extent(0)

    @staticmethod
    def _zeros(num_words: int) -> np.ndarray:
        return np.zeros(num_words, dtype=np.uint32)

    # -- written extent ------------------------------------------------
    def set_extent(self, words: int) -> None:
        """Set the extent to cover words ``[0, words)``; the caller
        guarantees every word past them is zero."""
        cap = min(max(_MIN_EXTENT, _pow2_at_least(words)),
                  _pow2_at_least(self.num_words))
        self.extent = min(cap, self.num_words)
        # stores at or past the extent (or misaligned / out of bounds)
        # set one of these bits
        self._store_bits = _addr_bits(4 * cap)

    def reach(self, words: int) -> None:
        """Note that words ``[0, words)`` may now be nonzero."""
        if words > self.extent:
            self.set_extent(words)

    # -- vectorized lane accessors ------------------------------------
    def _check(self, byte_addr: np.ndarray, mask: np.ndarray | None,
               bits: np.uint32) -> np.ndarray:
        """Validate the uint32 byte addresses of the lanes in *mask* (every
        lane when ``None``); return the word index of every lane.

        One pass over the active lanes tests alignment and bounds together
        (for a power-of-two size, out-of-bounds means a set bit at or above
        the size, so a single AND with *bits* covers both); only a faulting
        access pays for the exact message. Stores pass the extent's bits,
        which also catch a store past the extent: that one raises it.
        """
        act = byte_addr if mask is None else byte_addr[mask]
        if np.count_nonzero(act & bits) or (
                self._limit is not None
                and np.count_nonzero(act >= self._limit)):
            self._fault(act)
            self.reach(int(act.max()) // 4 + 1)
        return byte_addr >> _TWO

    def _fault(self, act: np.ndarray) -> None:
        """Raise for the first misaligned active lane, else the first
        out-of-bounds one; return when every lane is in bounds."""
        addr = act.astype(np.int64)
        misaligned = (addr & 3) != 0
        if misaligned.any():
            bad = int(addr[misaligned][0])
            raise MemoryFaultError(
                f"{self.kind}: misaligned access at byte 0x{bad:x}"
            )
        words = addr >> 2
        out = (words < 0) | (words >= self.num_words)
        if out.any():
            bad = int(addr[out][0])
            raise MemoryFaultError(
                f"{self.kind}: out-of-bounds access at byte 0x{bad:x} "
                f"(size {self.num_words * 4} bytes)"
            )

    def load(self, byte_addr: np.ndarray,
             mask: np.ndarray | None = None) -> np.ndarray:
        """Gather one word per lane of a uint32 address vector; lanes
        outside *mask* return 0 (``None`` = every lane is active)."""
        words = self._check(byte_addr, mask, self._bad_bits)
        if mask is None:
            return self.data[words]
        # inactive lanes may hold any address: gather word 0 for them
        return np.where(mask, self.data[words * mask], _U32(0))

    def store(self, byte_addr: np.ndarray, values: np.ndarray,
              mask: np.ndarray | None = None) -> None:
        """Scatter one word per active lane.

        Lanes writing the same address resolve in ascending lane order
        (last writer wins), matching the unspecified-but-deterministic
        behaviour real GPUs exhibit for intra-warp write conflicts.
        """
        words = self._check(byte_addr, mask, self._store_bits)
        if mask is None:
            self.data[words] = values
        else:
            self.data[words[mask]] = values[mask]

    # -- scalar host accessors -----------------------------------------
    def read_words(self, byte_addr: int, count: int) -> np.ndarray:
        start = self._host_index(byte_addr, count)
        return self.data[start:start + count].copy()

    def write_words(self, byte_addr: int, values: np.ndarray) -> None:
        values = np.ascontiguousarray(values)
        if values.dtype == np.float32 or values.dtype == np.int32:
            values = values.view(np.uint32)
        elif values.dtype != np.uint32:
            raise ConfigError(f"{self.kind}: host writes must be 32-bit typed")
        start = self._host_index(byte_addr, values.size)
        self.data[start:start + values.size] = values
        self.reach(start + values.size)

    def _host_index(self, byte_addr: int, count: int) -> int:
        if byte_addr % 4:
            raise MemoryFaultError(f"{self.kind}: misaligned host access")
        start = byte_addr // 4
        if start < 0 or start + count > self.num_words:
            raise MemoryFaultError(f"{self.kind}: host access out of bounds")
        return start


class GlobalMemory(_WordMemory):
    """Device global memory with a bump allocator."""

    kind = "global"

    def __init__(self, num_words: int):
        super().__init__(num_words)
        self._brk = 0

    @staticmethod
    def _zeros(num_words: int) -> np.ndarray:
        """The words in an anonymous mapping of their own: a page becomes
        resident when first touched and goes back to the OS with the
        array, whatever state malloc is in. (A multi-MiB ``np.zeros`` can
        be a reused heap chunk that calloc clears in full, making the
        whole device resident for a run that touches a few KiB.)"""
        return np.frombuffer(mmap.mmap(-1, 4 * num_words), dtype=np.uint32)

    def alloc(self, num_words: int, align_words: int = 32) -> int:
        """Allocate *num_words*; returns the byte address of the block."""
        if num_words <= 0:
            raise ConfigError("alloc: size must be positive")
        start = -(-self._brk // align_words) * align_words
        if start + num_words > self.num_words:
            raise MemoryFaultError("global memory exhausted")
        self._brk = start + num_words
        return start * 4

    def reset_allocator(self) -> None:
        self._brk = 0


class ConstantMemory(_WordMemory):
    """Constant memory; kernel parameters live at byte offset 0."""

    kind = "constant"

    def store(self, byte_addr, values, mask=None) -> None:
        raise MemoryFaultError("constant memory is not writable from kernels")


class SharedMemory(_WordMemory):
    """Per-CTA scratchpad."""

    kind = "shared"
