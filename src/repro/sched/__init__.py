"""Scheduling substrate: list scheduling with pluggable priorities,
deadline assignment, schedule structures, and validation.
"""

from .deadlines import InfeasibleDeadlineError, task_deadlines
from .gantt import render_gantt
from .insertion import insertion_schedule
from .list_scheduler import list_schedule
from .priorities import PRIORITY_POLICIES, PriorityPolicy, priority_keys
from .schedule import Placement, Schedule
from .validate import ScheduleInvariantError, check_deadlines, validate_schedule

__all__ = [
    "Placement",
    "Schedule",
    "list_schedule",
    "insertion_schedule",
    "render_gantt",
    "task_deadlines",
    "InfeasibleDeadlineError",
    "priority_keys",
    "PriorityPolicy",
    "PRIORITY_POLICIES",
    "validate_schedule",
    "check_deadlines",
    "ScheduleInvariantError",
]
