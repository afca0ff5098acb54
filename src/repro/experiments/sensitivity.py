"""S1 — EPR sensitivity to error-descriptor parameters (extension).

The paper fixes one descriptor distribution; this extension sweeps the
physically meaningful knobs and measures how the outcome mix responds:

* **IIO bit position** — corrupting low data bits vs high (address) bits
  moves outcomes from SDC toward DUE (the paper's "incorrect memory
  addresses are 98% of IIO DUEs" mechanism, made visible);
* **IAT victim-thread count** — more victims, fewer masked outcomes;
* **IAW index-bit level** — intra-warp permutations mask on data-parallel
  kernels, warp-level bits produce duplicated/missing work.
"""

from __future__ import annotations

from repro.analysis import ExperimentReport
from repro.campaign.goldens import DEFAULT_MEM_WORDS
from repro.common.rng import DEFAULT_SEED
from repro.errormodels import ErrorDescriptor, ErrorModel
from repro.swinjector.campaign import replay_injection
from repro.workloads import get_workload


def _outcome(workload, golden, desc) -> str:
    """Cold replay of *desc* (fixed 3M-instruction watchdog)."""
    return replay_injection(workload, desc, golden, 3_000_000,
                            DEFAULT_MEM_WORDS).outcome


def run_sensitivity_study(app: str = "vectoradd", scale: str = "tiny",
                          seed: int = DEFAULT_SEED) -> ExperimentReport:
    w = get_workload(app, scale=scale, seed=seed)
    golden = w.run_golden()
    rows = []

    # 1. IIO: corrupted bit position sweep
    for bit in (0, 4, 8, 16, 24, 30):
        desc = ErrorDescriptor(model=ErrorModel.IIO,
                               bit_err_mask=1 << bit)
        rows.append({"sweep": "IIO bit position", "value": bit,
                     "outcome": _outcome(w, golden, desc)})

    # 2. IAT: number of victim threads
    for nthreads in (1, 2, 8, 16, 31):
        mask = (1 << nthreads) - 1
        desc = ErrorDescriptor(model=ErrorModel.IAT, thread_mask=mask,
                               bit_err_mask=1 << 1)
        rows.append({"sweep": "IAT victim threads", "value": nthreads,
                     "outcome": _outcome(w, golden, desc)})

    # 3. IAW: index-bit level (intra-warp vs warp-level)
    for bit in (0, 2, 4, 5, 6):
        desc = ErrorDescriptor(model=ErrorModel.IAW,
                               bit_err_mask=1 << bit)
        rows.append({"sweep": "IAW index bit", "value": bit,
                     "outcome": _outcome(w, golden, desc)})

    return ExperimentReport(
        experiment_id="S1",
        title=f"EPR sensitivity to descriptor parameters ({app})",
        rows=rows,
        paper_expectation="high IIO bits hit addresses (DUE); IAT severity "
        "grows with victim count; IAW masks for intra-warp index bits on "
        "data-parallel kernels and corrupts for warp-level bits",
    )
