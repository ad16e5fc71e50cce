"""Core heuristics: S&S, LAMPS, the +PS variants, the LIMIT bounds, and
the :func:`schedule` facade.
"""

from .api import deadline_from_factor, evaluate_all, schedule
from .batch import ScheduleBatch, SweepRequest, batch_energy_sweep
from .energy import EnergyBreakdown, schedule_energy, schedule_energy_sweep
from .exhaustive import enumerate_schedules, optimal_single_frequency
from .lamps import energy_vs_processors, lamps, lamps_ps, lamps_search
from .limits import limit_mf, limit_sf
from .multifreq import MultiFreqResult, per_processor_stretch
from .pareto import FrontPoint, energy_deadline_front, knee_point
from .plans import PlanCache, PlannedSweep, sweep_energies
from .platform import Platform, default_platform
from .results import Heuristic, InfeasibleScheduleError, ScheduleResult
from .sns import schedule_and_stretch, sns, sns_ps
from .suite import paper_suite, paper_suite_batch

__all__ = [
    "schedule",
    "evaluate_all",
    "deadline_from_factor",
    "Heuristic",
    "ScheduleResult",
    "InfeasibleScheduleError",
    "EnergyBreakdown",
    "schedule_energy",
    "schedule_energy_sweep",
    "ScheduleBatch",
    "SweepRequest",
    "batch_energy_sweep",
    "PlanCache",
    "PlannedSweep",
    "sweep_energies",
    "Platform",
    "default_platform",
    "sns",
    "sns_ps",
    "schedule_and_stretch",
    "lamps",
    "lamps_ps",
    "lamps_search",
    "energy_vs_processors",
    "limit_sf",
    "limit_mf",
    "paper_suite",
    "paper_suite_batch",
    "MultiFreqResult",
    "per_processor_stretch",
    "optimal_single_frequency",
    "enumerate_schedules",
    "FrontPoint",
    "energy_deadline_front",
    "knee_point",
]
