"""Tests for the extension experiments, on the reports the CLI prints."""

import pytest


def _increasing(values, *, strict=False):
    pairs = list(zip(values, values[1:]))
    return all(b > a if strict else b >= a for a, b in pairs)


class TestExtMultifreq:
    @pytest.fixture(scope="class")
    def report(self, cli_reports):
        return cli_reports["ext-multifreq"]

    def test_structure(self, report):
        assert report.experiment == "ext-multifreq"
        assert "realised" in report.text

    def test_gains_bounded(self, report):
        assert 0.0 <= report.data["mean_gain"] <= 1.0
        assert report.data["max_gain"] >= report.data["mean_gain"]
        assert report.data["max_gain"] < 0.15

    def test_papers_conjecture_holds(self, report):
        # "The actual benefit ... will probably be much less" — the
        # realised fraction of the LIMIT-MF headroom stays small.
        frac = report.data["mean_realised_fraction"]
        assert frac is not None and frac < 0.5


class TestExtAbb:
    @pytest.fixture(scope="class")
    def report(self, cli_reports):
        return cli_reports["ext-abb"]

    def test_structure(self, report):
        assert report.experiment == "ext-abb"
        assert "Vbs" in report.text

    def test_abb_saves_energy(self, report):
        means = report.data["mean_savings"]
        assert means[1.5] > 0.05
        assert means[4.0] > 0.10

    def test_looser_deadline_saves_more(self, report):
        means = report.data["mean_savings"]
        assert means[4.0] >= means[1.5]

    def test_abb_fmax_lower_than_fixed(self, report):
        # The energy-optimal full-supply bias trades peak speed.
        assert report.data["abb_fmax"] < report.data["fixed_fmax"]


class TestExtRuntime:
    @pytest.fixture(scope="class")
    def report(self, cli_reports):
        return cli_reports["ext-runtime"]

    def test_structure(self, report):
        assert report.experiment == "ext-runtime"
        assert "reclamation" in report.title

    def test_reclamation_ordering(self, report):
        m = report.data["mean_ratios"]
        assert m["leakage-aware"] <= m["greedy"] + 1e-9
        assert m["greedy"] <= m["none"] + 1e-9
        assert m["none"] < 1.0

    def test_no_deadline_misses(self, report):
        assert report.data["deadline_misses"] == 0


class TestExtComm:
    @pytest.fixture(scope="class")
    def report(self, cli_reports):
        return cli_reports["ext-comm"]

    def test_structure(self, report):
        assert report.experiment == "ext-comm"
        assert "CCR" in report.text

    def test_energy_monotone_in_ccr(self, report):
        e = report.data["mean_energy"]
        assert _increasing([e[c] for c in sorted(e)])

    def test_processors_never_increase(self, report):
        n = report.data["mean_processors"]
        ccrs = sorted(n)
        assert n[ccrs[-1]] <= n[ccrs[0]] + 1e-9


class TestExtTechnology:
    @pytest.fixture(scope="class")
    def report(self, cli_reports):
        return cli_reports["ext-technology"]

    def test_savings_grow_with_leakage(self, report):
        s = report.data["savings"]
        scales = sorted(s)
        assert _increasing([s[k] for k in scales], strict=True)
        # At the paper's node the saving is already substantial; in
        # the near-zero-leakage past it was well below the future's.
        assert s[1.0] > 0.2
        assert s[scales[0]] < s[scales[-1]] - 0.1

    def test_static_fraction_grows(self, report):
        f = report.data["static_fraction"]
        fractions = [f[k] for k in sorted(f)]
        assert _increasing(fractions, strict=True)
        assert 0.0 < fractions[0] and fractions[-1] < 1.0


class TestReportSerialization:
    def test_to_json_roundtrips(self):
        import json

        from repro.experiments import fig02_power_curves

        rep = fig02_power_curves.run(samples=5)
        data = json.loads(rep.to_json())
        assert data["experiment"] == "fig2"
        assert data["data"]["f_crit_discrete_vdd"] == pytest.approx(0.7)

    def test_save_json(self, tmp_path):
        import json

        from repro.experiments import fig03_breakeven

        rep = fig03_breakeven.run(samples=5)
        path = tmp_path / "fig3.json"
        rep.save_json(path)
        assert json.loads(path.read_text())["experiment"] == "fig3"

    def test_numpy_values_serializable(self):
        import json
        import numpy as np

        from repro.experiments.reporting import Report

        rep = Report("x", "t", "body",
                     {"a": np.float64(1.5), "b": [np.int64(2)],
                      "c": {"nested": np.bool_(True)}})
        data = json.loads(rep.to_json())
        assert data["data"] == {"a": 1.5, "b": [2], "c": {"nested": True}}


class TestExtHetero:
    @pytest.fixture(scope="class")
    def report(self, cli_reports):
        return cli_reports["ext-hetero"]

    def test_structure(self, report):
        assert report.experiment == "ext-hetero"
        assert "little" in report.text

    def test_loose_deadline_saves_more(self, report):
        s = report.data["savings"]
        savings = [s[f] for f in sorted(s)]
        assert _increasing(savings)
        # The search contains big-only configurations, so it never
        # loses; at generous slack the dividend nears the little cores'
        # efficiency gap (1 - m*c = 40%).
        assert savings[0] >= -1e-9
        assert savings[-1] > 0.25

    def test_little_share_grows(self, report):
        sh = report.data["little_share"]
        shares = [sh[f] for f in sorted(sh)]
        assert _increasing(shares)
        assert 0.0 <= shares[0] and shares[-1] <= 1.0


class TestExtMultifreqIslands:
    def test_island_gain_between_single_and_independent(self, cli_reports):
        rep = cli_reports["ext-multifreq"]
        # Two islands is a restriction of per-processor rails: its
        # mean gain cannot exceed the independent case's, and cannot
        # be negative (it contains the single-frequency base).
        assert -1e-9 <= rep.data["mean_island_gain"] \
            <= rep.data["mean_gain"] + 1e-9
