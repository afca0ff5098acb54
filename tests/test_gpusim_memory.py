"""Edge-case tests for the simulated memories and device API."""

from __future__ import annotations

import numpy as np
import pytest

from repro.common.exceptions import ConfigError, MemoryFaultError
from repro.gpusim import Device, DeviceConfig
from repro.gpusim.memory import ConstantMemory, GlobalMemory, SharedMemory


class TestGlobalMemory:
    def test_alloc_exhaustion(self):
        m = GlobalMemory(64)
        m.alloc(32, align_words=1)
        with pytest.raises(MemoryFaultError):
            m.alloc(64, align_words=1)

    def test_alloc_alignment(self):
        m = GlobalMemory(1024)
        m.alloc(3, align_words=32)
        b = m.alloc(3, align_words=32)
        assert (b // 4) % 32 == 0

    def test_alloc_zero_rejected(self):
        with pytest.raises(ConfigError):
            GlobalMemory(64).alloc(0)

    def test_lane_load_bounds(self):
        m = GlobalMemory(16)
        addr = np.array([0, 60, 64], dtype=np.uint32)  # 64 is OOB (16 words)
        mask = np.array([True, True, True])
        with pytest.raises(MemoryFaultError):
            m.load(addr, mask)

    def test_inactive_lanes_not_checked(self):
        m = GlobalMemory(16)
        addr = np.array([0, 9999], dtype=np.uint32)
        mask = np.array([True, False])
        out = m.load(addr, mask)
        assert out[1] == 0  # inactive lane reads nothing

    def test_store_conflict_last_lane_wins(self):
        m = GlobalMemory(16)
        addr = np.zeros(4, dtype=np.uint32)
        vals = np.arange(4, dtype=np.uint32)
        m.store(addr, vals, np.ones(4, dtype=bool))
        assert m.read_words(0, 1)[0] == 3

    def test_host_write_type_check(self):
        m = GlobalMemory(16)
        with pytest.raises(ConfigError):
            m.write_words(0, np.zeros(2, dtype=np.float64))

    def test_host_misaligned(self):
        with pytest.raises(MemoryFaultError):
            GlobalMemory(16).read_words(2, 1)

    def test_reset_allocator(self):
        m = GlobalMemory(64)
        a = m.alloc(8)
        m.reset_allocator()
        assert m.alloc(8) == a

    def test_words_live_in_their_own_mapping(self):
        # not in malloc's heap, where a reused chunk is cleared in full
        # (docs/PERFORMANCE.md, "Checkpoint epochs")
        import mmap

        m = GlobalMemory(1 << 20)
        assert isinstance(m.data.base.obj, mmap.mmap)
        assert m.data.dtype == np.uint32 and m.data.size == 1 << 20
        assert not m.data[::4096].any()
        m.write_words(4, np.array([7], dtype=np.uint32))
        assert m.read_words(4, 1)[0] == 7


class TestConstantMemory:
    def test_not_writable_from_kernels(self):
        m = ConstantMemory(16)
        with pytest.raises(MemoryFaultError):
            m.store(np.zeros(1, dtype=np.uint32),
                    np.ones(1, dtype=np.uint32),
                    np.ones(1, dtype=bool))

    def test_readable(self):
        m = ConstantMemory(16)
        m.write_words(0, np.array([42], dtype=np.uint32))
        out = m.load(np.zeros(1, dtype=np.uint32), np.ones(1, dtype=bool))
        assert out[0] == 42


class TestSharedMemory:
    def test_isolated_per_instance(self):
        a, b = SharedMemory(8), SharedMemory(8)
        a.write_words(0, np.array([7], dtype=np.uint32))
        assert b.read_words(0, 1)[0] == 0


class TestDeviceApi:
    def test_reset_memory_clears_everything(self, device):
        p = device.alloc_array(np.array([1, 2, 3], dtype=np.uint32))
        device.reset_memory()
        q = device.alloc(3)
        assert q == p  # allocator restarted
        np.testing.assert_array_equal(device.read(q, 3), 0)

    def test_read_dtype_views(self, device):
        p = device.alloc_array(np.array([1.5], dtype=np.float32))
        assert device.read(p, 1, np.float32)[0] == 1.5
        assert device.read(p, 1, np.uint32)[0] == 0x3FC00000

    def test_bad_launch_dims(self, device):
        from repro.isa import KernelBuilder

        k = KernelBuilder("t", nregs=4)
        k.exit()
        prog = k.build()
        with pytest.raises(ConfigError):
            device.launch(prog, grid=0, block=32)
        with pytest.raises(ConfigError):
            device.launch(prog, grid=(1, -1), block=32)

    def test_shared_words_limit(self):
        from repro.isa import KernelBuilder

        dev = Device(DeviceConfig(global_mem_words=1 << 12,
                                  max_shared_words_per_cta=16))
        k = KernelBuilder("t", nregs=4, shared_words=64)
        k.exit()
        with pytest.raises(ConfigError):
            dev.launch(k.build(), grid=1, block=32)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            DeviceConfig(warp_size=64)
        with pytest.raises(ConfigError):
            DeviceConfig(num_sms=0)
