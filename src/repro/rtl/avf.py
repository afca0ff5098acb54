"""Micro-benchmark AVF results (Fig 3) and syndrome capture (Figs 4/5).

The campaign itself is the ``rtl-avf`` kind of :mod:`repro.rtl.campaign`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.rtl.injector import RtlTally
from repro.workloads.microbench import ARITH_FP, ARITH_INT, SFU_OPS

#: the functional unit each arithmetic micro-benchmark exercises; memory
#: and control benches leave the FUs idle (the paper skips them there)
_FU_MODULE = {**dict.fromkeys(ARITH_INT, "fu_int"),
              **dict.fromkeys(ARITH_FP, "fu_fp32"),
              **dict.fromkeys(SFU_OPS, "fu_sfu")}


def modules_for_bench(name: str) -> list[str]:
    """The paper's Fig 3 module set for one micro-benchmark."""
    fu = _FU_MODULE.get(name)
    return [fu, "scheduler", "pipeline"] if fu else ["scheduler", "pipeline"]


@dataclass
class AvfRow(RtlTally):
    """AVF of one (micro-benchmark, module) pair, averaged over inputs."""

    module: str
    bench: str
    input_range: str
    corrupted_thread_counts: list[int] = field(default_factory=list)

    @property
    def avf_sdc(self) -> float:
        return self.avf_sdc_single + self.avf_sdc_multi

    @property
    def mean_corrupted_threads(self) -> float:
        if not self.corrupted_thread_counts:
            return 0.0
        return float(np.mean(self.corrupted_thread_counts))


@dataclass
class MicrobenchAvfCampaign:
    """All rows plus the pooled syndromes of the RTL AVF study."""

    rows: list[AvfRow]
    #: (bench, module, input_range) -> concatenated relative errors
    syndromes: dict[tuple[str, str, str], np.ndarray]

    def row(self, module: str, bench: str,
            input_range: str | None = None) -> AvfRow:
        """Aggregate row; averaged over input ranges when none is given."""
        sel = [r for r in self.rows
               if r.module == module and r.bench == bench
               and (input_range is None or r.input_range == input_range)]
        if not sel:
            raise KeyError(f"no rows for {module}/{bench}/{input_range}")
        agg = AvfRow(module, bench, input_range or "avg")
        for r in sel:
            agg.n_injections += r.n_injections
            agg.n_sdc_single += r.n_sdc_single
            agg.n_sdc_multi += r.n_sdc_multi
            agg.n_due += r.n_due
            agg.corrupted_thread_counts.extend(r.corrupted_thread_counts)
        return agg

    def syndrome(self, bench: str, module: str,
                 input_range: str) -> np.ndarray:
        return self.syndromes.get((bench, module, input_range),
                                  np.empty(0))
