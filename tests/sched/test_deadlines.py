"""Tests for ALAP deadline assignment."""

import math

import numpy as np
import pytest

from repro.graphs.generators import chain, independent_tasks
from repro.sched.deadlines import InfeasibleDeadlineError, task_deadlines


class TestBasic:
    def test_sink_gets_graph_deadline(self, diamond):
        d = task_deadlines(diamond, 10.0)
        assert d[diamond.index_of("d")] == 10.0

    def test_interior_propagation(self, diamond):
        d = task_deadlines(diamond, 10.0)
        # d must finish by 10, so b and c by 9, a by 9 - w(c) = 6.
        assert d[diamond.index_of("b")] == 9.0
        assert d[diamond.index_of("c")] == 9.0
        assert d[diamond.index_of("a")] == 6.0

    def test_chain(self):
        g = chain(3, weights=[2, 3, 4])
        d = task_deadlines(g, 20.0)
        assert list(d) == [13, 16, 20]

    def test_independent_all_get_deadline(self):
        g = independent_tasks(4)
        assert np.all(task_deadlines(g, 7.0) == 7.0)

    def test_non_positive_deadline_rejected(self, diamond):
        with pytest.raises(ValueError, match="positive"):
            task_deadlines(diamond, 0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_deadline_rejected(self, diamond, value):
        with pytest.raises(ValueError, match="finite"):
            task_deadlines(diamond, value)


class TestFeasibility:
    def test_deadline_below_cpl_raises(self, diamond):
        with pytest.raises(InfeasibleDeadlineError):
            task_deadlines(diamond, 4.0)

    def test_deadline_equal_cpl_ok(self, diamond):
        d = task_deadlines(diamond, 5.0)
        assert d[diamond.index_of("a")] == pytest.approx(1.0)

    def test_check_can_be_disabled(self, diamond):
        d = task_deadlines(diamond, 4.0, check_feasible=False)
        assert d[diamond.index_of("d")] == 4.0


class TestOverrides:
    def test_override_tightens_single_task(self, diamond):
        d = task_deadlines(diamond, 10.0, overrides={"b": 5.0})
        assert d[diamond.index_of("b")] == 5.0
        # and pulls its predecessor earlier: a by min(6, 5-2) = 3.
        assert d[diamond.index_of("a")] == 3.0

    def test_override_looser_than_deadline_clamped(self, diamond):
        d = task_deadlines(diamond, 10.0, overrides={"d": 99.0})
        assert d[diamond.index_of("d")] == 10.0

    def test_unknown_task_raises(self, diamond):
        with pytest.raises(KeyError):
            task_deadlines(diamond, 10.0, overrides={"zzz": 5.0})

    def test_non_positive_override_rejected(self, diamond):
        with pytest.raises(ValueError):
            task_deadlines(diamond, 10.0, overrides={"b": 0.0})

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_override_rejected(self, diamond, value):
        # min(d, nan) would silently keep d.
        with pytest.raises(ValueError, match="finite"):
            task_deadlines(diamond, 10.0, overrides={"b": value})

    def test_infeasible_override_detected(self, diamond):
        # b's earliest finish is 3 (a then b); the propagated deadline
        # chain (a by 0) is impossible too — either task may be named.
        with pytest.raises(InfeasibleDeadlineError, match="'[ab]'"):
            task_deadlines(diamond, 10.0, overrides={"b": 2.0})
