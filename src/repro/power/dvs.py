"""Discrete dynamic voltage scaling (DVS) operating points.

The paper scales the supply voltage in discrete 0.05 V steps
(Section 4.3).  This module materialises that ladder as a tuple of
:class:`OperatingPoint` objects sorted by ascending frequency, and locates
the *critical* point — the frequency below which the energy per cycle
starts to increase again (Section 3.3; Fig. 2b).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .model import PowerModel
from .technology import TECH_70NM, Technology

__all__ = ["OperatingPoint", "DVSLadder", "continuous_critical_frequency"]


@dataclass(frozen=True, slots=True, order=True)
class OperatingPoint:
    """One (frequency, voltage) setting of the processor.

    Ordered by frequency so that a sorted container of points is a
    frequency ladder.  All power/energy figures are precomputed because the
    schedulers evaluate them in tight loops.
    """

    frequency: float          #: operating frequency (Hz)
    vdd: float                #: supply voltage (V)
    active_power: float       #: P_AC + P_DC + P_on while executing (W)
    idle_power: float         #: P_DC + P_on while idle-but-on (W)
    energy_per_cycle: float   #: active_power / frequency (J)
    vbs: float = -0.7         #: body-bias voltage (V); fixed except for ABB

    @property
    def normalized(self) -> float:
        """Frequency normalized to this ladder's technology maximum.

        Only meaningful relative to the ladder that produced the point;
        stored implicitly via :meth:`DVSLadder.normalized`.
        """
        raise AttributeError(
            "use DVSLadder.normalized(point); a point alone does not know fmax")


def _make_point(model: PowerModel, vdd: float,
                vbs: float | None = None) -> OperatingPoint:
    return OperatingPoint(
        frequency=float(model.frequency(vdd, vbs)),
        vdd=float(vdd),
        active_power=float(model.active_power(vdd, vbs)),
        idle_power=float(model.idle_power(vdd, vbs)),
        energy_per_cycle=float(model.energy_per_cycle(vdd, vbs)),
        vbs=model.tech.vbs if vbs is None else float(vbs),
    )


class DVSLadder(Sequence[OperatingPoint]):
    """The discrete set of DVS operating points of a technology.

    Points are built from ``vdd_max`` downwards in ``vdd_step`` decrements
    while the resulting frequency stays positive, then stored in
    *ascending frequency* order.  Iteration, ``len`` and indexing follow
    that order, so ``ladder[-1]`` is the full-speed point.

    Args:
        tech: technology constants (defaults to the 70 nm process).
        vdd_step: voltage step; the paper uses 0.05 V.
        vdd_max: highest supply voltage; defaults to ``tech.vdd0``.

    Example:
        >>> ladder = DVSLadder()
        >>> round(ladder.fmax / 1e9, 1)
        3.1
        >>> round(ladder.critical_point().vdd, 2)
        0.7
    """

    def __init__(self, tech: Technology = TECH_70NM, *,
                 vdd_step: float = 0.05, vdd_max: float | None = None) -> None:
        if vdd_step <= 0:
            raise ValueError(f"vdd_step must be positive, got {vdd_step}")
        self.tech = tech
        self.model = PowerModel(tech)
        self.vdd_step = vdd_step
        vmax = tech.vdd0 if vdd_max is None else vdd_max
        n_steps = int(np.floor((vmax - tech.min_vdd) / vdd_step)) + 1
        voltages = vmax - vdd_step * np.arange(n_steps)
        voltages = voltages[self.model.frequency(voltages) > 0.0]
        if voltages.size == 0:
            raise ValueError("no operating point has a positive frequency")
        self._set_points(
            [_make_point(self.model, v) for v in np.sort(voltages)])

    def _set_points(self, points: Sequence[OperatingPoint]) -> None:
        """Adopt ``points`` (ascending frequency) and index them."""
        self._points: tuple[OperatingPoint, ...] = tuple(points)
        # A tuple of Python floats: bisect on it costs a fraction of an
        # np.searchsorted call on a ladder this short.
        self._frequencies = tuple(p.frequency for p in self._points)
        self._critical = min(self._points, key=lambda p: p.energy_per_cycle)

    def _first_at_least(self, f_required: float) -> int:
        """Index of the first point with ``frequency >= f_required``.

        ``np.searchsorted(..., side="left")`` semantics, NaN included:
        it sorts NaN after every frequency, so a NaN requirement finds
        no point.
        """
        if f_required != f_required:
            return len(self._points)
        return bisect_left(self._frequencies, f_required)

    # -- Sequence protocol -------------------------------------------------
    def __len__(self) -> int:
        return len(self._points)

    def __getitem__(  # type: ignore[override]
            self, i: "int | slice"
    ) -> "OperatingPoint | Sequence[OperatingPoint]":
        return self._points[i]

    def __iter__(self) -> Iterator[OperatingPoint]:
        return iter(self._points)

    # -- Queries -----------------------------------------------------------
    @property
    def fmax(self) -> float:
        """Highest available frequency (Hz)."""
        return self._points[-1].frequency

    @property
    def fmin(self) -> float:
        """Lowest available (positive) frequency (Hz)."""
        return self._points[0].frequency

    @property
    def max_point(self) -> OperatingPoint:
        """The full-speed operating point."""
        return self._points[-1]

    def normalized(self, point: OperatingPoint) -> float:
        """Frequency of ``point`` normalized to this ladder's maximum."""
        return point.frequency / self.fmax

    def slowest_at_least(self, f_required: float) -> OperatingPoint:
        """Slowest point with ``frequency >= f_required``.

        This is the "stretch" primitive: given the minimum frequency that
        still meets the deadline, pick the most-scaled feasible setting.

        Raises:
            ValueError: if even the fastest point is too slow.
        """
        idx = self._first_at_least(f_required)
        if idx >= len(self._points):
            raise ValueError(
                f"required frequency {f_required/1e9:.3f} GHz exceeds "
                f"fmax {self.fmax/1e9:.3f} GHz")
        return self._points[idx]

    def at_or_above(self, f_required: float) -> tuple[OperatingPoint, ...]:
        """All feasible points (``frequency >= f_required``), ascending."""
        return self._points[self._first_at_least(f_required):]

    def critical_point(self) -> OperatingPoint:
        """The discrete point minimising energy per cycle (Fig. 2b).

        For the 70 nm ladder with 0.05 V steps this is ``vdd = 0.7 V``,
        i.e. a normalized frequency of 0.41 as the paper reports.
        Computed once, when the ladder is built.
        """
        return self._critical

    def best_point(self, f_required: float) -> OperatingPoint:
        """Most energy-efficient feasible point for a frequency floor.

        Returns the critical point when it is fast enough, otherwise the
        slowest feasible point (which is then also the most efficient
        feasible one, because energy/cycle decreases monotonically above
        the critical frequency).
        """
        crit = self.critical_point()
        if crit.frequency >= f_required:
            return crit
        return self.slowest_at_least(f_required)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"DVSLadder({len(self)} points, "
                f"{self.fmin/1e9:.3f}..{self.fmax/1e9:.3f} GHz, "
                f"step {self.vdd_step} V)")


def continuous_critical_frequency(tech: Technology = TECH_70NM,
                                  *, samples: int = 20001) -> float:
    """Critical frequency with a continuous voltage range (Hz).

    Located by a dense vectorized sweep of the energy-per-cycle curve —
    cheap (one numpy pass) and robust, since the curve is unimodal.  For
    the 70 nm constants this lands at ≈0.38 of the maximum frequency,
    matching Section 3.3.
    """
    model = PowerModel(tech)
    voltages = np.linspace(tech.min_vdd + 1e-6, tech.vdd0, samples)
    energy = np.asarray(model.energy_per_cycle(voltages))
    return float(model.frequency(voltages[int(np.argmin(energy))]))
