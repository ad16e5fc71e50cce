"""Tests for the public facade API."""

import math

import pytest

from repro.core.api import deadline_from_factor, evaluate_all, schedule
from repro.core.lamps import lamps_search
from repro.core.platform import Platform, default_platform
from repro.core.results import Heuristic
from repro.core.sns import schedule_and_stretch
from repro.core.suite import paper_suite
from repro.graphs.dag import TaskGraph
from repro.graphs.analysis import critical_path_length
from repro.power.dvs import DVSLadder
from repro.power.shutdown import SleepModel


@pytest.fixture
def coarse(fig4_graph):
    return fig4_graph.scaled(3.1e6)


class TestDeadlineFromFactor:
    def test_multiplies_cpl(self, coarse):
        assert deadline_from_factor(coarse, 2.0) == pytest.approx(
            2 * critical_path_length(coarse))

    def test_below_one_rejected(self, coarse):
        with pytest.raises(ValueError):
            deadline_from_factor(coarse, 0.5)


class TestScheduleFacade:
    def test_default_heuristic_is_lamps_ps(self, coarse):
        r = schedule(coarse, deadline_factor=2.0)
        assert r.heuristic is Heuristic.LAMPS_PS

    @pytest.mark.parametrize("h", list(Heuristic))
    def test_every_heuristic_dispatches(self, coarse, h):
        r = schedule(coarse, deadline_factor=2.0, heuristic=h)
        assert r.heuristic is h

    def test_string_heuristic_accepted(self, coarse):
        r = schedule(coarse, deadline_factor=2.0, heuristic="S&S")
        assert r.heuristic is Heuristic.SNS

    def test_unknown_heuristic_rejected(self, coarse):
        with pytest.raises(ValueError):
            schedule(coarse, deadline_factor=2.0, heuristic="MAGIC")

    def test_explicit_deadline(self, coarse):
        deadline = 2 * critical_path_length(coarse)
        r = schedule(coarse, deadline, heuristic="LAMPS")
        assert r.deadline_cycles == deadline

    def test_both_deadline_forms_rejected(self, coarse):
        with pytest.raises(ValueError, match="exactly one"):
            schedule(coarse, 1e9, deadline_factor=2.0)

    def test_neither_deadline_form_rejected(self, coarse):
        with pytest.raises(ValueError, match="exactly one"):
            schedule(coarse)

    def test_custom_platform_respected(self, coarse):
        # A platform whose ladder stops at 0.8 V cannot pick 1.0 V.
        plat = Platform(ladder=DVSLadder(vdd_max=0.8),
                        sleep=SleepModel())
        r = schedule(coarse, deadline_factor=2.0, heuristic="S&S",
                     platform=plat)
        assert r.point.vdd <= 0.8

    def test_policy_passthrough(self, coarse):
        r = schedule(coarse, deadline_factor=2.0, heuristic="S&S",
                     policy="hlfet")
        assert r.heuristic is Heuristic.SNS


class TestEvaluateAll:
    def test_all_heuristics_present(self, coarse):
        res = evaluate_all(coarse, deadline_factor=2.0)
        assert set(res) == set(Heuristic)

    def test_subset(self, coarse):
        res = evaluate_all(coarse, deadline_factor=2.0,
                           heuristics=(Heuristic.SNS, Heuristic.LAMPS))
        assert set(res) == {Heuristic.SNS, Heuristic.LAMPS}

    def test_results_keyed_correctly(self, coarse):
        res = evaluate_all(coarse, deadline_factor=2.0)
        for h, r in res.items():
            assert r.heuristic is h


class TestNonFiniteDeadlines:
    """NaN and infinite deadlines are rejected, not scheduled."""

    @pytest.mark.parametrize("search", [paper_suite, lamps_search])
    def test_nan_deadline_rejected(self, coarse, search):
        with pytest.raises(ValueError, match="finite"):
            search(coarse, math.nan)

    def test_nan_deadline_on_zero_weight_graph(self):
        g = TaskGraph({0: 0.0, 1: 0.0}, [(0, 1)], name="idle")
        with pytest.raises(ValueError, match="finite"):
            schedule_and_stretch(g, math.nan)

    @pytest.mark.parametrize("h", list(Heuristic))
    def test_infinite_deadline_rejected(self, coarse, h):
        with pytest.raises(ValueError, match="finite"):
            schedule(coarse, math.inf, heuristic=h)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_override_rejected(self, coarse, value):
        deadline = 2.0 * critical_path_length(coarse)
        with pytest.raises(ValueError, match="finite"):
            evaluate_all(coarse, deadline,
                         deadline_overrides={"T5": value})


class TestDefaultPlatform:
    def test_cached(self):
        assert default_platform() is default_platform()

    def test_units_roundtrip(self, platform):
        assert platform.reference_cycles(
            platform.seconds(1e9)) == pytest.approx(1e9)

    def test_fmax_matches_ladder(self, platform):
        assert platform.fmax == platform.ladder.fmax
