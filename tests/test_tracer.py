"""Tracing is a step-table tool: :class:`repro.gpusim.executor.Tracer`.

The golden traces behind differential replay and the stimuli behind every
gate campaign are pinned to digests of the per-event hook the tracer
replaced, so any drift in what is recorded shows here.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.campaign.goldens import (
    DEFAULT_MEM_WORDS,
    cached_workload,
    reference_run,
)
from repro.common.exceptions import DeviceError, IllegalInstructionError
from repro.common.rng import DEFAULT_SEED
from repro.errormodels import ErrorDescriptor, ErrorModel
from repro.gpusim import Device, DeviceConfig
from repro.gpusim.executor import WARP_SIZE, Tracer, decode
from repro.isa import KernelBuilder, Op, SpecialReg
from repro.swinjector import NVBitPERfi
from repro.workloads.base import default_launcher
from repro.workloads.registry import EVALUATION_APPS

#: SHA-256 of each tiny EPR app's golden trace, traced with its app name
#: as key, without the CTA records (:func:`_pinned_digest`). Derived when
#: the trace still held checkpoints and post-launch snapshots, with each
#: launch's slot counters read from the snapshot after the launch before
#: it: the event arrays, launches and slot counters are those it held.
TRACE_DIGESTS = {
    "accl": "662820e06270ce9fab75919adba80a1e8d35fd5409a03b02866ee35bb91273b4",
    "bfs": "701c77b46cc12d53a24356f8c0419c520d454b8e05a372a7118ccfcfa56ea3d0",
    "cfd": "c14e4434f86bcf63023ac2259e5a299be34fae32ba2e51002f3274d3d220b64e",
    "gaussian": "d1ca96d4c566b305e822bf22f5316d85a6ac18969f0fea7a6ed621fe74d3c093",
    "gemm": "175117f705e70b697af1e91ada03757c4489855c22efd8678406d40644699c16",
    "hotspot": "aa47bfab9c69786adfdd66259395c82b8a3b425511a163ff1ad785d39009e39e",
    "lava": "c3cad4ceb74840688f403a20254db6443c297e239198cd91316d85967c0238aa",
    "lenet": "c25c7d70a6c5d2043926f794c9e91abb81765a5b4b0ba99217ee5c3330a17167",
    "lud": "457b2711fabe8a4f66c7decfb8be976ca917c15ab5091f414a004697f14c38d1",
    "mergesort": "597d9db83ba1e329ea601f5979eb8ea4f47e3bb0c65d39881a656892e813f013",
    "mxm": "cf57a61e377f8d19b1e1ae4906beac7d2ba3b61a8362742f36caaa11193cb8a5",
    "nw": "d99c56cd4d2aaefd7377c60e3a892cdce43600ac0aeb2601e1d48b03d61b374e",
    "quicksort": "1d6864f15c43d7d64db99fcb3a52ae03cdda6a6ea8f874d9cd9ec31364b0da44",
    "vectoradd": "8bb6b715070a559ced2d9bef3e115f020d970836e2391fc02e6a9d5530670f73",
    "yolov3": "8f29b6d5480797e3eb42820a85826588e8847557283b235bdf0f66f9a360a28a",
}

#: SHA-256 of each tiny EPR app's CTA records: every
#: :class:`~repro.campaign.goldens.CtaRecords` array, in field order, and
#: each launch's ``shared_words``
CTA_DIGESTS = {
    "vectoradd": "f6df0f951a1d04b3a1a18f363e3d52a52719aa5d2d411aeba2b398b2254a6082",
    "lava": "6c78ba0dd35bbe934b08d52cee9e4520ada2c74857f08132609af1983355185a",
    "mxm": "1fb66f9b9de5343647c50e0ebf593a8224302d7a19396dacc52873a42861e92b",
    "gemm": "4a36b8409b8630ca09be39ecd1d06ede82183c39cde3540a7bb31017f41a50bd",
    "hotspot": "3a479754eb0d88bf1fe0bafeb785bdcb1c0064826926a8b032d2ba28c54ca29a",
    "gaussian": "2e4d1c8f52e9db46b886ce91fbfcb9ba91bf0121974b93c5dd2700b327d5dca9",
    "bfs": "09b84009d2ba9448448b353ca218dc154be13b10b13dc077082afababc0c074f",
    "lud": "5d342f05b0673071bbc8a7c9e3d9a6c35c58c1e19bd0e54ff548cdaa6f99a91c",
    "accl": "90ff9a473846ea59ff66618315445e570f87cd10be08cefadd4c46f572d73010",
    "nw": "c681f447ead8529870f99d96ec03f162121a103290c383466c041b1ec52bfe59",
    "cfd": "6c6ef1c60456b3203eff93468bb4d1f29f1f2fc9d5e0f236902bd62cc71436d3",
    "quicksort": "bb09fa8f8a133a87f73aa25ebe3582a0127d391d7dbb49bbf46f3efa1f5ee7e0",
    "mergesort": "89ce8d543198927fba5c969e02992cf7261bd086c9c82a99947f46b0ef5aa11e",
    "lenet": "0a0fb7d755d031347999bc71a335be831a1b5b5444c3c4a6c10cebb631dabe16",
    "yolov3": "9d39cdc1dcb3e5b0c482ae91d7a7010f9d92f0da8608b09dbfe2646a71c40963",
}

#: SHA-256 of the field tuples of ``profile_stimuli("tiny", 48).stimuli``
STIMULI_DIGEST = \
    "02db78a14c78e7046352bb65792b966f992a78a23fa6f2283f29cde74806181c"


def _pinned_digest(trace) -> str:
    """SHA-256 of *trace*'s ``ev_pc``, ``ev_coord`` and ``ev_mask``, then
    of the ``repr`` of its key, coordinates, launches (each but its
    ``shared_words``, which :data:`CTA_DIGESTS` pins, with its slot
    counters last), total count and output digest."""
    h = hashlib.sha256()
    for a in (trace.ev_pc, trace.ev_coord, trace.ev_mask):
        h.update(np.ascontiguousarray(a).tobytes())
    launches = [(r.program, r.grid, r.block, r.num_ctas, r.warps_per_cta,
                 r.instructions_executed, r.start_index, r.slot_counters)
                for r in trace.launches]
    h.update(repr((trace.key, trace.coords, launches,
                   trace.total_instructions, trace.digest)).encode())
    return h.hexdigest()


def _cta_digest(trace) -> str:
    h = hashlib.sha256()
    for f in dataclasses.fields(trace.ctas):
        h.update(f.name.encode())
        h.update(np.ascontiguousarray(getattr(trace.ctas, f.name)).tobytes())
    h.update(repr([r.shared_words for r in trace.launches]).encode())
    return h.hexdigest()


class TestPinnedOutputs:
    def test_every_epr_app_is_pinned(self):
        assert set(TRACE_DIGESTS) == set(CTA_DIGESTS) == set(EVALUATION_APPS)

    @pytest.mark.parametrize("app", sorted(TRACE_DIGESTS))
    def test_golden_trace(self, app):
        w = cached_workload(app, "tiny", DEFAULT_SEED)
        _, trace = reference_run(w, DEFAULT_MEM_WORDS, traced_key=app)
        assert _pinned_digest(trace) == TRACE_DIGESTS[app]
        assert _cta_digest(trace) == CTA_DIGESTS[app]

    def test_profiled_stimuli(self):
        from repro.faultinjection.campaign import profile_stimuli

        stimuli = profile_stimuli("tiny", 48).stimuli
        wire = repr([dataclasses.astuple(s) for s in stimuli]).encode()
        assert hashlib.sha256(wire).hexdigest() == STIMULI_DIGEST


def _run(w, **launch_options):
    """``(output bits, instructions per launch)`` of *w* on a fresh
    device."""
    dev = Device(DeviceConfig(global_mem_words=DEFAULT_MEM_WORDS))
    launch = default_launcher(dev, **launch_options)
    counts = []

    def launcher(*args, **kwargs):
        res = launch(*args, **kwargs)
        counts.append(res.instructions_executed)
        return res

    return w.run(dev, launcher), counts


def _kernel(nregs=8):
    """``out[tid] = tid + 1``."""
    k = KernelBuilder("traced", nregs=nregs)
    ptr = k.load_param(0)
    t = k.s2r_new(SpecialReg.TID_X)
    v = k.reg()
    k.iadd(v, t, imm=1)
    addr = k.reg()
    k.shl(addr, t, imm=2)
    k.iadd(addr, addr, ptr)
    k.gst(addr, v)
    k.exit()
    return k.build()


class TestTracer:
    @pytest.mark.parametrize("app", sorted(EVALUATION_APPS))
    def test_tracing_changes_no_result(self, app):
        w = cached_workload(app, "tiny", DEFAULT_SEED)
        events = []
        plain_bits, plain_counts = _run(w)
        bits, counts = _run(w, instrumentation=Tracer(
            lambda warp, pc, instr, m: events.append(pc)))
        np.testing.assert_array_equal(bits, plain_bits)
        assert counts == plain_counts
        assert len(events) == sum(counts)

    def test_raising_step_leaves_no_event(self):
        program = _kernel()
        fail_pc = 2

        class Failing:
            def table(self, warp, decoded):
                steps = list(decoded.steps)
                _, guard, neg, instr = steps[fail_pc]

                def fail(w, m, active, top, env):
                    raise IllegalInstructionError("failing site")
                steps[fail_pc] = (fail, guard, neg, instr)
                return steps

        seen = []
        dev = Device(DeviceConfig())
        with pytest.raises(DeviceError):
            dev.launch(program, 1, WARP_SIZE, params=[dev.alloc(WARP_SIZE)],
                       instrumentation=Tracer(
                           lambda w, pc, instr, m: seen.append(pc),
                           Failing()))
        assert seen == list(range(fail_pc))

    def test_sees_the_fault_tools_sites(self):
        # IAT flips bit 1 of the TID the S2R reads on lanes 0-3; the
        # tracer runs after the site, so it sees the corrupted register
        program = _kernel()
        s2r = next(pc for pc, i in enumerate(program.instructions)
                   if i.op is Op.S2R)
        tool = NVBitPERfi(ErrorDescriptor(ErrorModel.IAT, thread_mask=0xF,
                                          bit_err_mask=2))
        dst = program.instructions[s2r].dst
        seen = {}

        def fn(w, pc, instr, m):
            if pc == s2r:
                seen[pc] = w.regs[:, dst].copy()

        dev = Device(DeviceConfig())
        dev.launch(program, 1, WARP_SIZE, params=[dev.alloc(WARP_SIZE)],
                   instrumentation=Tracer(fn, tool))
        want = np.arange(WARP_SIZE, dtype=np.uint32)
        want[:4] ^= 2
        np.testing.assert_array_equal(seen[s2r], want)
        assert tool.activations == 1

    def test_one_table_per_inner_table(self):
        decoded = decode(_kernel())

        class Warp:  # the decode table is all a tool-less tracer reads
            pass

        tracer = Tracer(lambda w, pc, instr, m: None)
        table = tracer.table(Warp(), decoded)
        assert tracer.table(Warp(), decoded) is table
        assert [s[1:] for s in table] == [s[1:] for s in decoded.steps]
        assert all(a[0] is not b[0] for a, b in zip(table, decoded.steps))
