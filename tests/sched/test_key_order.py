"""A list schedule depends on its priority keys only through their order.

:class:`repro.core.plans.PlanCache` keys schedules by the stable-argsort
permutation of the priority keys, so a graph's schedules are shared by
every deadline whose ALAP key vector has the same order.  That is exact
only if the event loop reads the keys through ``(key, index)``
comparisons alone.  These properties hold both backends to it: two key
vectors with the same stable order — however their ties, signed zeros
and infinities fall — give byte-identical schedules on the ``heapq``
reference and on the fused C call.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.dag import TaskGraph
from repro.sched import ckernel
from repro.sched.eventloop import heapq_schedule
from repro.sched.schedule import Schedule

from .test_ckernel import small_dags

#: Distinct comparison classes, ascending; ``0.0`` stands for both
#: signed zeros, which compare equal.
_CLASSES = (-np.inf, -1e300, -3.0, -1.0, -2.0 ** -40, 0.0, 1e-300,
            2.0 ** -40, 1.0, 1.0 + 2.0 ** -52, 2.5, 7.0, 100.0, 1e300,
            np.inf)
#: What the first key vector draws from: ties, both zeros, infinities.
_KEY_POOL = [-np.inf, -1.0, -0.0, 0.0, 1.0, 1.0 + 2.0 ** -52, np.inf]


@st.composite
def same_order_keys(draw, n):
    """Two key vectors of length ``n`` with one stable-argsort order.

    The second vector walks the first one's permutation through
    ascending comparison classes.  It may tie two neighbours only when
    their indices already ascend (a tie breaks on the index), and must
    move up a class when they do not; which signed zero stands for the
    zero class is drawn per task.
    """
    keys = np.array(draw(st.lists(st.sampled_from(_KEY_POOL),
                                  min_size=n, max_size=n)))
    perm = np.argsort(keys, kind="stable")
    steps = [0] + [
        1 if perm[i] > perm[i + 1] else draw(st.integers(0, 1))
        for i in range(n - 1)]
    levels = np.cumsum(steps)
    start = draw(st.integers(0, len(_CLASSES) - 1 - int(levels[-1])))
    other = np.empty(n)
    for rank, task in enumerate(perm):
        value = _CLASSES[start + int(levels[rank])]
        if value == 0.0:
            value = draw(st.sampled_from([0.0, -0.0]))
        other[task] = value
    return keys, other


def _reference(graph, keys, n_procs):
    return Schedule.from_arrays(graph, n_procs, *heapq_schedule(
        keys.tolist(), graph.weights_list, graph.succ_indices,
        graph.in_degrees, n_procs))


def _fused(graph, keys, n_procs):
    return Schedule._adopt(graph, n_procs,
                           *ckernel.plan_schedule_c(graph, keys, n_procs))


def _arrays(s):
    return (s.start_times.tobytes(), s.finish_times.tobytes(),
            s.task_processors.tobytes())


_BACKENDS = [
    pytest.param(_reference, id="heapq"),
    pytest.param(_fused, id="ckernel", marks=pytest.mark.skipif(
        not ckernel.CKERNEL_ACTIVE,
        reason="C scheduler kernel unavailable (no compiler?)")),
]


@pytest.mark.parametrize("build", _BACKENDS)
class TestOrderDeterminesSchedule:
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_same_stable_order_same_bytes(self, build, data):
        g = data.draw(small_dags())
        keys, other = data.draw(same_order_keys(g.n))
        assert np.argsort(other, kind="stable").tobytes() == \
            np.argsort(keys, kind="stable").tobytes()
        n_procs = data.draw(st.integers(min_value=1, max_value=g.n + 2))
        assert _arrays(build(g, other, n_procs)) == \
            _arrays(build(g, keys, n_procs))

    def test_signed_zeros_tie_on_the_index(self, build):
        """-0.0 and 0.0 compare equal, so the lower index goes first."""
        g = TaskGraph({0: 2.0, 1: 3.0, 2: 1.0})
        base = _arrays(build(g, np.array([0.0, 0.0, 0.0]), 1))
        for keys in ([-0.0, 0.0, 0.0], [0.0, -0.0, -0.0],
                     [-0.0, -0.0, 0.0]):
            assert _arrays(build(g, np.array(keys), 1)) == base
        # A real order change moves the schedule.
        assert _arrays(build(g, np.array([0.0, -1.0, 0.0]), 1)) != base
