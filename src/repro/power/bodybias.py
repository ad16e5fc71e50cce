"""Adaptive body biasing (ABB) — the DVS+ABB extension.

The paper fixes the body bias at ``Vbs = -0.7 V`` and cites the combined
DVS+ABB line of work (Martin et al., ICCAD 2002; Andrei et al., DATE
2004; Yan et al., ICCAD 2003) as the natural extension: when the supply
voltage is scaled down, re-optimising the body bias trades sub-threshold
leakage (more reverse bias -> higher Vth -> exponentially less leakage)
against speed (higher Vth -> lower frequency) and junction leakage
(``|Vbs| * Ij``).

:class:`ABBLadder` builds a DVS ladder in which every supply-voltage
step carries the *energy-per-cycle-optimal* body bias, chosen over a
discrete grid.  It is a drop-in replacement for
:class:`~repro.power.dvs.DVSLadder` in a
:class:`~repro.core.platform.Platform`, so every heuristic runs
unchanged on an ABB-capable processor — the basis of the DVS+ABB
ablation benchmark.
"""

from __future__ import annotations

import numpy as np

from .dvs import DVSLadder, _make_point
from .model import PowerModel
from .technology import TECH_70NM, Technology

__all__ = ["ABBLadder", "optimal_body_bias"]


def optimal_body_bias(tech: Technology, vdd: float, *,
                      vbs_min: float = -1.0, vbs_max: float = 0.0,
                      vbs_step: float = 0.05,
                      min_frequency_hz: float = 0.0) -> float:
    """Body bias minimising energy per cycle at supply ``vdd``.

    Searches the discrete grid ``[vbs_min, vbs_max]`` (ABB hardware
    offers a few discrete wells, not a continuum).  Biases at which the
    device no longer conducts (frequency 0) or falls below
    ``min_frequency_hz`` are excluded — pass the fixed-bias frequency to
    get *performance-neutral* ABB.

    Raises:
        ValueError: if no grid point satisfies the constraints, or the
            grid is empty/inverted.
    """
    if vbs_min > vbs_max:
        raise ValueError(f"vbs_min {vbs_min} above vbs_max {vbs_max}")
    if vbs_step <= 0:
        raise ValueError("vbs_step must be positive")
    model = PowerModel(tech)
    n = int(np.floor((vbs_max - vbs_min) / vbs_step)) + 1
    grid = vbs_min + vbs_step * np.arange(n)
    freq = np.asarray(model.frequency(np.full(n, vdd), grid))
    ok = (freq > 0.0) & (freq >= min_frequency_hz * (1.0 - 1e-9))
    if not np.any(ok):
        raise ValueError(
            f"no feasible body bias in [{vbs_min}, {vbs_max}] "
            f"at vdd={vdd} (min frequency {min_frequency_hz:g} Hz)")
    energy = np.asarray(model.energy_per_cycle(np.full(n, vdd), grid))
    energy = np.where(ok, energy, np.inf)
    return float(grid[int(np.argmin(energy))])


class ABBLadder(DVSLadder):
    """A DVS ladder with a per-step energy-optimal body bias.

    Construction mirrors :class:`DVSLadder` (supply steps of
    ``vdd_step`` from ``vdd_max`` down), but each point's body bias is
    chosen by :func:`optimal_body_bias` instead of being fixed at the
    technology's ``vbs``.  Note the resulting maximum frequency can
    differ from the fixed-bias ladder's: at full supply the optimal
    bias may trade a little speed for a lot of leakage.

    Args:
        tech: technology constants.
        vdd_step: supply-voltage step (default: the paper's 0.05 V).
        vdd_max: highest supply voltage (default ``tech.vdd0``).
        vbs_min, vbs_max, vbs_step: the body-bias grid.
        performance_neutral: when true, each step's bias may not reduce
            the frequency below the fixed-bias value at the same supply
            — the ladder keeps the paper's speed grid and only sheds
            leakage.
    """

    def __init__(self, tech: Technology = TECH_70NM, *,
                 vdd_step: float = 0.05, vdd_max: float | None = None,
                 vbs_min: float = -1.0, vbs_max: float = 0.0,
                 vbs_step: float = 0.05,
                 performance_neutral: bool = False) -> None:
        if vdd_step <= 0:
            raise ValueError(f"vdd_step must be positive, got {vdd_step}")
        self.tech = tech
        self.model = PowerModel(tech)
        self.vdd_step = vdd_step
        self.vbs_grid = (vbs_min, vbs_max, vbs_step)
        self.performance_neutral = performance_neutral
        vmax = tech.vdd0 if vdd_max is None else vdd_max
        points = []
        vdd = vmax
        while vdd > 0:
            floor = float(self.model.frequency(vdd)) \
                if performance_neutral else 0.0
            try:
                vbs = optimal_body_bias(tech, vdd, vbs_min=vbs_min,
                                        vbs_max=vbs_max,
                                        vbs_step=vbs_step,
                                        min_frequency_hz=floor)
            except ValueError:
                break  # no feasible bias left at this supply
            point = _make_point(self.model, vdd, vbs)
            if point.frequency <= 0.0:
                break
            points.append(point)
            vdd = round(vdd - vdd_step, 10)
        if not points:
            raise ValueError("no operating point has a positive frequency")
        points.sort(key=lambda p: p.frequency)
        self._set_points(points)
