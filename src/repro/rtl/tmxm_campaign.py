"""t-MxM RTL results: Fig 6 (AVF per tile type), Fig 7/Table 3 (spatial
patterns) and Fig 8 (per-element syndrome of row/block patterns).

The campaign itself is the ``rtl-tmxm`` kind of :mod:`repro.rtl.campaign`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.rtl.injector import RtlTally
from repro.syndrome.patterns import SpatialPattern, pattern_histogram

#: Fig 6 injects the scheduler and pipeline only (FU faults cause no
#: multi-thread corruption in t-MxM, as the paper argues)
TMXM_MODULES = ("scheduler", "pipeline")


@dataclass
class TmxmCell(RtlTally):
    """AVF counters for one (module, tile type)."""

    module: str
    tile_type: str
    patterns: list[SpatialPattern] = field(default_factory=list)
    #: (pattern, rel_errors) per multi-element SDC
    syndromes: list[tuple[SpatialPattern, np.ndarray]] = field(
        default_factory=list)

    @property
    def multi_fraction_of_sdcs(self) -> float:
        sdcs = self.n_sdc_single + self.n_sdc_multi
        return self.n_sdc_multi / sdcs if sdcs else 0.0


@dataclass
class TmxmCampaignResult:
    cells: dict[tuple[str, str], TmxmCell]

    def cell(self, module: str, tile_type: str) -> TmxmCell:
        return self.cells[(module, tile_type)]

    def pattern_distribution(self, module: str) -> dict[SpatialPattern, float]:
        """Table 3 row: % of multi-element patterns for one module."""
        return pattern_histogram([p for (m, _), cell in self.cells.items()
                                  if m == module for p in cell.patterns])

    def syndromes_by_pattern(self, module: str,
                             pattern: SpatialPattern) -> list[np.ndarray]:
        """Fig 8 data: per-injection element-wise relative errors."""
        return [rel for (m, _), cell in self.cells.items() if m == module
                for p, rel in cell.syndromes if p is pattern]
