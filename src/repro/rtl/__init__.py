"""RTL-level fault injection in the SM datapath (paper's AVF/syndrome study).

This package reproduces the paper's *RTL characterization* section
(Figures 3-8): stuck-at injections in the functional units (FP32, INT,
SFU), the warp scheduler state, and the pipeline registers while the SM
runs the 12 single-instruction micro-benchmarks and the t-MxM mini-app.

The model is structural-functional: every injection site is a named bit
of a real microarchitectural structure (per-lane operand/result registers,
per-subgroup control registers, shared-SFU input/output/control registers,
per-warp scheduler state), and the corruption is applied at the exact
pipeline moment the structure is used — compiled into the executor's step
table, as NVBit instruments a kernel when it compiles it. Structural sharing
is preserved: 8 execution lanes serve a 32-thread warp in 4 sub-groups,
two SFUs are shared by 16 threads each, scheduler state is warp-wide —
which is what makes multi-thread corruptions emerge where the paper sees
them.

Both studies run on the campaign engine as the ``rtl-avf`` and
``rtl-tmxm`` kinds of :mod:`repro.rtl.campaign`; :mod:`repro.rtl.avf` and
:mod:`repro.rtl.tmxm_campaign` hold their result types.
"""

from repro.rtl.sites import RtlSite, module_sites, RTL_MODULES
from repro.rtl.injector import RtlInjection, RtlOutcome, run_rtl_injection
from repro.rtl.avf import MicrobenchAvfCampaign, AvfRow
from repro.rtl.tmxm_campaign import TmxmCampaignResult
from repro.rtl.campaign import run_microbench_avf, run_tmxm_campaign

__all__ = [
    "RtlSite",
    "module_sites",
    "RTL_MODULES",
    "RtlInjection",
    "RtlOutcome",
    "run_rtl_injection",
    "MicrobenchAvfCampaign",
    "AvfRow",
    "run_microbench_avf",
    "TmxmCampaignResult",
    "run_tmxm_campaign",
]
