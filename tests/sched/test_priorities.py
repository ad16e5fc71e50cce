"""Tests for the list-scheduling priority policies."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.generators import stg_random_graph
from repro.sched import ckernel
from repro.sched.deadlines import task_deadlines
from repro.sched.list_scheduler import list_schedule
from repro.sched.priorities import PRIORITY_POLICIES, priority_keys, \
    random_policy
from repro.sched.schedule import same_kernel


class TestEdf:
    def test_keys_are_deadlines(self, diamond):
        d = task_deadlines(diamond, 10.0)
        keys = priority_keys(diamond, d, "edf")
        assert np.array_equal(keys, d)


class TestHlfet:
    def test_longest_path_first(self, diamond):
        keys = priority_keys(diamond, np.zeros(diamond.n), "hlfet")
        # a has bottom level 5 (longest), so the smallest key.
        order = np.argsort(keys)
        assert diamond.id_of(int(order[0])) == "a"


class TestFifo:
    def test_topological_ranks(self, diamond):
        keys = priority_keys(diamond, np.zeros(diamond.n), "fifo")
        topo = diamond.topological_order()
        for rank, v in enumerate(topo):
            assert keys[diamond.index_of(v)] == rank


class TestSizePolicies:
    def test_lpt_prefers_heavy(self, diamond):
        keys = priority_keys(diamond, np.zeros(diamond.n), "lpt")
        assert keys[diamond.index_of("c")] < keys[diamond.index_of("a")]

    def test_spt_prefers_light(self, diamond):
        keys = priority_keys(diamond, np.zeros(diamond.n), "spt")
        assert keys[diamond.index_of("a")] < keys[diamond.index_of("c")]


class TestRandom:
    def test_deterministic_per_seed(self, diamond):
        pol = random_policy(3)
        a = priority_keys(diamond, np.zeros(diamond.n), pol)
        b = priority_keys(diamond, np.zeros(diamond.n), pol)
        assert np.array_equal(a, b)

    def test_is_a_permutation(self, diamond):
        keys = priority_keys(diamond, np.zeros(diamond.n), random_policy(1))
        assert sorted(keys) == list(range(diamond.n))


class TestResolution:
    def test_registry_names_all_work(self, diamond):
        d = task_deadlines(diamond, 10.0)
        for name in PRIORITY_POLICIES:
            keys = priority_keys(diamond, d, name)
            assert keys.shape == (diamond.n,)

    def test_unknown_name_raises(self, diamond):
        with pytest.raises(KeyError):
            priority_keys(diamond, np.zeros(diamond.n), "bogus")

    def test_callable_policy(self, diamond):
        keys = priority_keys(diamond, np.zeros(diamond.n),
                             lambda g, d: np.arange(g.n, dtype=float))
        assert keys[0] == 0.0

    def test_wrong_shape_rejected(self, diamond):
        with pytest.raises(ValueError, match="shape"):
            priority_keys(diamond, np.zeros(diamond.n),
                          lambda g, d: np.zeros(2))


class TestNonFiniteKeys:
    """NaN breaks the ready queue's total order; ±inf does not."""

    @pytest.fixture(params=[True, False], ids=["ckernel", "heapq"])
    def backend(self, request, monkeypatch):
        import repro.sched.list_scheduler as ls

        if request.param and not ckernel.CKERNEL_ACTIVE:
            pytest.skip("C scheduler kernel unavailable")
        monkeypatch.setattr(ls, "CKERNEL_ACTIVE", request.param)

    def test_nan_key_rejected_naming_the_policy(self, diamond):
        def half_nan(graph, deadlines):
            return np.array([0.0, np.nan, 1.0, np.nan])

        with pytest.raises(ValueError, match="half_nan.*NaN.*index 1"):
            priority_keys(diamond, np.zeros(diamond.n), half_nan)

    def test_list_schedule_rejects_nan_keys(self, diamond, backend):
        with pytest.raises(ValueError, match="NaN"):
            list_schedule(diamond, 2, policy=lambda g, d: np.full(g.n,
                                                                  np.nan))

    def test_nan_deadlines_rejected_under_edf(self, diamond, backend):
        d = np.array([1.0, 2.0, np.nan, 4.0])
        with pytest.raises(ValueError, match="'edf'.*NaN"):
            list_schedule(diamond, 2, d)

    def test_infinite_keys_allowed(self, diamond):
        keys = priority_keys(diamond, np.zeros(diamond.n),
                             lambda g, d: np.array([np.inf, -np.inf,
                                                    np.inf, 0.0]))
        assert np.isinf(keys).sum() == 3

    @given(st.integers(min_value=0, max_value=10_000),
           st.integers(min_value=1, max_value=6))
    @settings(max_examples=40, deadline=None)
    def test_backends_agree_on_infinite_keys(self, seed, n_procs):
        import repro.sched.list_scheduler as ls

        if not ckernel.CKERNEL_ACTIVE:
            pytest.skip("C scheduler kernel unavailable")
        g = stg_random_graph(12, seed)
        rng = np.random.default_rng(seed)
        keys = rng.choice([-np.inf, 0.0, 1.0, np.inf], size=g.n)
        policy = lambda graph, d: keys  # noqa: E731
        built = []
        with pytest.MonkeyPatch.context() as mp:
            for active in (True, False):
                mp.setattr(ls, "CKERNEL_ACTIVE", active)
                built.append(list_schedule(g, n_procs, policy=policy))
        assert same_kernel(*built)
