"""Tests for the discrete DVS ladder."""

import numpy as np
import pytest

from repro.power.bodybias import ABBLadder
from repro.power.dvs import DVSLadder, continuous_critical_frequency
from repro.power.model import PowerModel
from repro.power.technology import TECH_70NM


@pytest.fixture(scope="module")
def lad():
    return DVSLadder()


class TestConstruction:
    def test_default_has_14_points(self, lad):
        # 1.0 V down to 0.35 V in 0.05 V steps (0.30 V has f = 0).
        assert len(lad) == 14

    def test_points_ascend_in_frequency(self, lad):
        freqs = [p.frequency for p in lad]
        assert freqs == sorted(freqs)
        assert freqs[0] > 0

    def test_voltages_are_multiples_of_step(self, lad):
        for p in lad:
            steps = (TECH_70NM.vdd0 - p.vdd) / 0.05
            assert steps == pytest.approx(round(steps), abs=1e-9)

    def test_max_point_is_nominal_voltage(self, lad):
        assert lad.max_point.vdd == pytest.approx(1.0)
        assert lad.fmax == pytest.approx(3.1e9, rel=0.01)

    def test_indexing_and_iteration(self, lad):
        assert lad[-1] is lad.max_point
        assert list(lad)[0].frequency == lad.fmin

    def test_custom_step(self):
        fine = DVSLadder(vdd_step=0.01)
        assert len(fine) > len(DVSLadder())

    def test_bad_step_raises(self):
        with pytest.raises(ValueError, match="positive"):
            DVSLadder(vdd_step=0.0)

    def test_custom_vdd_max(self):
        lad = DVSLadder(vdd_max=0.8)
        assert lad.max_point.vdd == pytest.approx(0.8)

    def test_points_precompute_power(self, lad):
        model = PowerModel()
        p = lad[5]
        assert p.active_power == pytest.approx(model.active_power(p.vdd))
        assert p.idle_power == pytest.approx(model.idle_power(p.vdd))
        assert p.energy_per_cycle == pytest.approx(
            p.active_power / p.frequency)


class TestCriticalPoint:
    def test_discrete_critical_vdd_is_0_7(self, lad):
        # Paper: "the critical frequency is reached at a supply voltage
        # of 0.7 V, corresponding to a normalized frequency of 0.41".
        crit = lad.critical_point()
        assert crit.vdd == pytest.approx(0.7)
        assert lad.normalized(crit) == pytest.approx(0.41, abs=0.005)

    def test_continuous_critical_is_0_38(self):
        f_crit = continuous_critical_frequency()
        fmax = PowerModel().max_frequency
        assert f_crit / fmax == pytest.approx(0.38, abs=0.005)

    def test_critical_is_global_minimum(self, lad):
        crit = lad.critical_point()
        assert all(crit.energy_per_cycle <= p.energy_per_cycle for p in lad)


class TestQueries:
    def test_slowest_at_least_exact_hit(self, lad):
        p = lad[3]
        assert lad.slowest_at_least(p.frequency) is p

    def test_slowest_at_least_between_points(self, lad):
        f = 0.5 * (lad[3].frequency + lad[4].frequency)
        assert lad.slowest_at_least(f) is lad[4]

    def test_slowest_at_least_zero_gives_fmin(self, lad):
        assert lad.slowest_at_least(0.0) is lad[0]

    def test_slowest_at_least_above_fmax_raises(self, lad):
        with pytest.raises(ValueError, match="exceeds"):
            lad.slowest_at_least(lad.fmax * 1.01)

    def test_at_or_above_returns_suffix(self, lad):
        pts = lad.at_or_above(lad[5].frequency)
        assert pts == tuple(lad)[5:]

    def test_at_or_above_empty_when_impossible(self, lad):
        assert lad.at_or_above(lad.fmax * 2) == ()

    def test_best_point_prefers_critical_when_feasible(self, lad):
        crit = lad.critical_point()
        assert lad.best_point(0.0) is crit
        assert lad.best_point(crit.frequency) is crit

    def test_best_point_falls_back_to_slowest_feasible(self, lad):
        crit = lad.critical_point()
        f = crit.frequency * 1.5
        best = lad.best_point(f)
        assert best.frequency >= f
        assert best is lad.slowest_at_least(f)

    def test_normalized_of_max_is_one(self, lad):
        assert lad.normalized(lad.max_point) == pytest.approx(1.0)


def _probes(ladder):
    """Requirements at, one ulp around, between, below and above the
    ladder's frequencies, plus the non-finite ones."""
    freqs = np.array([p.frequency for p in ladder])
    probes = [0.0, -1.0, freqs[0] / 2, freqs[-1] * 2, np.inf, -np.inf]
    for f in freqs:
        probes += [f, np.nextafter(f, -np.inf), np.nextafter(f, np.inf)]
    probes += list(0.5 * (freqs[1:] + freqs[:-1]))
    return freqs, probes


class TestLookupsMatchSearchsorted:
    """The bisect lookups keep np.searchsorted's (side="left") answers."""

    @pytest.mark.parametrize("make", [
        DVSLadder, lambda: DVSLadder(vdd_step=0.1),
        lambda: ABBLadder(performance_neutral=True)])
    def test_every_probe(self, make):
        ladder = make()
        freqs, probes = _probes(ladder)
        for f in probes:
            idx = int(np.searchsorted(freqs, f, side="left"))
            assert ladder.at_or_above(f) == tuple(ladder)[idx:], f
            if idx < len(ladder):
                assert ladder.slowest_at_least(f) is ladder[idx], f
            else:
                with pytest.raises(ValueError, match="exceeds"):
                    ladder.slowest_at_least(f)

    def test_nan_finds_no_point(self, lad):
        """searchsorted sorts NaN last; bisect alone would answer 0."""
        freqs = np.array([p.frequency for p in lad])
        assert int(np.searchsorted(freqs, np.nan)) == len(lad)
        assert lad.at_or_above(np.nan) == ()
        with pytest.raises(ValueError, match="exceeds"):
            lad.slowest_at_least(float("nan"))

    def test_numpy_scalar_requirement(self, lad):
        f = np.float64(lad[4].frequency)
        assert lad.slowest_at_least(f) is lad[4]
        assert lad.slowest_at_least(np.nextafter(f, np.inf)) is lad[5]

    def test_critical_point_is_memoized(self, lad):
        assert lad.critical_point() is lad.critical_point()
        assert lad.critical_point() is min(
            lad, key=lambda p: p.energy_per_cycle)


class TestOperatingPointType:
    def test_ordering_by_frequency(self, lad):
        assert lad[0] < lad[1]

    def test_frozen(self, lad):
        with pytest.raises(AttributeError):
            lad[0].vdd = 0.9  # type: ignore[misc]

    def test_normalized_property_requires_ladder(self, lad):
        with pytest.raises(AttributeError, match="fmax"):
            _ = lad[0].normalized


class TestMonotonicity:
    def test_energy_per_cycle_unimodal(self, lad):
        e = np.array([p.energy_per_cycle for p in lad])
        k = int(np.argmin(e))
        assert np.all(np.diff(e[: k + 1]) <= 0)
        assert np.all(np.diff(e[k:]) >= 0)

    def test_idle_power_increases_with_frequency(self, lad):
        idle = [p.idle_power for p in lad]
        assert idle == sorted(idle)
