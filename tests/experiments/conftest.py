"""The reports ``python -m repro.experiments`` prints, built once per session.

Claim tests assert on the CLI's own runs — the quick (non-``--full``)
configuration of :func:`repro.experiments.__main__._experiments`, serial
and uncached — so the gate checks exactly what the command prints.
"""

import pytest

from repro.exec import ExecOptions
from repro.experiments.__main__ import _experiments


class _Reports(dict):
    """Experiment id -> report, each built on first use."""

    def __init__(self, table):
        super().__init__()
        self._table = table

    def __missing__(self, exp_id):
        report = self[exp_id] = self._table[exp_id]()
        return report


@pytest.fixture(scope="session")
def cli_reports():
    return _Reports(_experiments(False, ExecOptions(use_cache=False)))
