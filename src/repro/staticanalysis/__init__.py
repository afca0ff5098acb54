"""Static analysis of G80 kernels: CFG, liveness, lint, fault pruning.

Public surface:

* :func:`repro.staticanalysis.cfg.build_cfg` /
  :class:`repro.staticanalysis.cfg.CFG` — basic blocks, dominators,
  post-dominators, loops, divergence regions.
* :class:`repro.staticanalysis.liveness.Liveness` — backward register
  and predicate liveness, def-use chains, dead writes.
* :func:`repro.staticanalysis.lint.lint_program` — the rule-based
  kernel linter (``python -m repro.staticanalysis``).
* :class:`repro.staticanalysis.prune.StaticPruner` — ACE-style
  statically-Masked classification of error descriptors; the accelerated
  EPR replay consults it to classify injections whose every activation
  is inert without simulating them.
"""

from repro.staticanalysis.cfg import CFG, BasicBlock, build_cfg
from repro.staticanalysis.lint import Finding, lint_program, max_severity
from repro.staticanalysis.liveness import Liveness, analyze
from repro.staticanalysis.prune import PruneDecision, StaticPruner

__all__ = [
    "CFG",
    "BasicBlock",
    "build_cfg",
    "Finding",
    "lint_program",
    "max_severity",
    "Liveness",
    "analyze",
    "PruneDecision",
    "StaticPruner",
]
