"""Unit tests for the content-addressed result cache."""

import dataclasses
import hashlib
import json
import os
import pickle
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.platform import Platform, default_platform
from repro.core.suite import paper_suite
from repro.exec import cache as cache_mod
from repro.exec.cache import (
    CACHE_SCHEMA_VERSION,
    ResultCache,
    instance_digest,
    restore_results,
    summarize_results,
)
from repro.graphs.analysis import critical_path_length
from repro.graphs.dag import TaskGraph
from repro.graphs.datasets import load_bundled
from repro.graphs.generators import stg_random_graph
from repro.power.shutdown import SleepModel
from repro.sched.priorities import PRIORITY_POLICIES


@pytest.fixture
def instance():
    g = stg_random_graph(30, 7, name="rand30").scaled(3.1e6)
    return g, 2.0 * critical_path_length(g)


@pytest.fixture
def payload(instance, platform):
    g, deadline = instance
    return summarize_results(paper_suite(g, deadline, platform=platform))


class TestDigest:
    def test_equal_inputs_equal_keys(self, instance, platform):
        g, deadline = instance
        # A freshly rebuilt but identical graph must map to the same key.
        g2 = stg_random_graph(30, 7, name="rand30").scaled(3.1e6)
        assert instance_digest(g, deadline, platform, "edf") == \
            instance_digest(g2, deadline, platform, "edf")

    def test_key_covers_every_input(self, instance, platform):
        g, deadline = instance
        base = instance_digest(g, deadline, platform, "edf")
        assert instance_digest(g, deadline * 1.5, platform, "edf") != base
        assert instance_digest(g, deadline, platform, "hlfet") != base
        assert instance_digest(g.scaled(2.0), deadline, platform,
                               "edf") != base
        from repro.core.platform import Platform
        from repro.power.shutdown import SleepModel

        leaky = Platform(sleep=SleepModel(sleep_power=99e-6))
        assert instance_digest(g, deadline, leaky, "edf") != base

    def test_overrides_participate(self, instance, platform):
        g, deadline = instance
        node = g.node_ids[0]
        base = instance_digest(g, deadline, platform, "edf")
        tight = instance_digest(g, deadline, platform, "edf",
                                deadline_overrides={node: deadline / 2})
        assert tight != base

    def test_callable_policy_rejected(self, instance, platform):
        g, deadline = instance
        with pytest.raises(TypeError):
            instance_digest(g, deadline, platform, lambda g, d: d)

    def test_stable_across_process_restarts(self, instance, platform):
        """The key must not depend on the hash seed or process state."""
        g, deadline = instance
        code = (
            "from repro.graphs.generators import stg_random_graph\n"
            "from repro.core.platform import default_platform\n"
            "from repro.exec.cache import instance_digest\n"
            "g = stg_random_graph(30, 7, name='rand30').scaled(3.1e6)\n"
            f"print(instance_digest(g, {deadline!r}, default_platform(), "
            "'edf'))\n"
        )
        env = dict(os.environ, PYTHONHASHSEED="12345")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", env.get("PYTHONPATH", "")) if p)
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == \
            instance_digest(g, deadline, platform, "edf")


def reference_digest(graph, deadline, platform, policy, *,
                     deadline_overrides=None, schema=None):
    """The key as one ``json.dumps`` of the whole fingerprint.

    This is the rendering :func:`instance_digest` composes piecewise;
    it is kept here, verbatim, as the oracle the fast path must match
    byte for byte.
    """
    ladder = platform.ladder
    fingerprint = {
        "schema": CACHE_SCHEMA_VERSION if schema is None else schema,
        "graph": {
            "name": graph.name,
            "weights": graph.weights_array.tolist(),
            "edges": [[u, v] for u, succs in enumerate(graph.succ_indices)
                      for v in succs],
        },
        "deadline": float(deadline),
        "platform": {
            "technology": dataclasses.asdict(ladder.tech),
            "vdd_step": ladder.vdd_step,
            "points": [[p.frequency, p.vdd, p.vbs] for p in ladder],
            "sleep": dataclasses.asdict(platform.sleep),
        },
        "policy": policy,
        "deadline_overrides": None if deadline_overrides is None else
        sorted([graph.index_of(k), float(v)]
               for k, v in deadline_overrides.items()),
    }
    blob = json.dumps(fingerprint, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


#: Names that need escapes in JSON: quotes, backslashes, control
#: characters, non-ASCII (``ensure_ascii`` writes ``\uXXXX``,
#: surrogate pairs above the BMP), and the empty name.
NAMES = st.one_of(
    st.sampled_from(["", '"', "\\", "a\"b\\c", "\x00\x1f\n\t\x7f",
                     "café", "調度", "\U0001f600", "\u2028"]),
    st.text(max_size=12))

#: Weights whose text is easy to get wrong: a non-terminating binary
#: fraction, a float past 2**53 written in exponent form, the smallest
#: subnormal, negative zero, and whole numbers handed in as ints.
WEIGHTS = st.one_of(
    st.sampled_from([0.1, 1e16, 5e-324, -0.0, 0.0, 3, 1, 3.1e6]),
    st.integers(min_value=0, max_value=2 ** 60),
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False))


@st.composite
def digest_cases(draw):
    n = draw(st.integers(min_value=1, max_value=9))
    ids = draw(st.sampled_from([
        list(range(n)),                        # int ids in index order
        list(range(n))[::-1],                  # int ids, reversed
        [f"t{i}" for i in range(n)],           # str ids
    ]))
    weights = {v: draw(WEIGHTS) for v in ids}
    # Duplicate and unsorted input edges; u < v by index keeps the
    # graph acyclic.
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        .filter(lambda e: e[0] < e[1]), max_size=3 * n))
    edges = [(ids[u], ids[v]) for u, v in pairs]
    graph = TaskGraph(weights, edges, name=draw(NAMES))
    overrides = draw(st.one_of(st.none(), st.dictionaries(
        st.sampled_from(ids),
        st.one_of(st.integers(0, 10 ** 9),
                  st.floats(allow_nan=False, allow_infinity=False)),
        max_size=n)))
    return dict(
        graph=graph,
        deadline=draw(st.one_of(
            st.floats(min_value=1e-300, allow_nan=False,
                      allow_infinity=False),
            st.integers(1, 10 ** 12))),
        platform=draw(st.sampled_from(
            [default_platform(),
             Platform(sleep=SleepModel(sleep_power=99e-6))])),
        policy=draw(st.sampled_from(sorted(PRIORITY_POLICIES))),
        deadline_overrides=overrides,
        schema=draw(st.sampled_from([None, 1, CACHE_SCHEMA_VERSION])))


class TestDigestMatchesReference:
    """The piecewise key is the single ``json.dumps`` key, bytewise."""

    @given(digest_cases())
    def test_fast_path_matches_json_dumps(self, case):
        graph = case.pop("graph")
        args = (graph, case.pop("deadline"), case.pop("platform"),
                case.pop("policy"))
        want = reference_digest(*args, **case)
        assert instance_digest(*args, **case) == want
        # Again: the graph's fragment now comes from its memo.
        assert instance_digest(*args, **case) == want

    def test_empty_edge_list_and_one_task(self, platform):
        g = TaskGraph({0: 2}, name="solo")
        assert g.m == 0
        assert instance_digest(g, 4.0, platform, "edf") == \
            reference_digest(g, 4.0, platform, "edf")

    # Literal keys: a bug the oracle shared with the fast path (both
    # read the same graph accessors) would still change these.
    def test_pinned_bundled_graph(self, platform):
        g = load_bundled("robot")
        deadline = 2.0 * critical_path_length(g)
        assert deadline == 1090.0
        assert instance_digest(g, deadline, platform, "edf") == (
            "b653cc2d4b66e2421e70f592801276cc7f93e642badaa60ef39c4705efebd720")

    def test_pinned_one_task_graph(self, platform):
        g = TaskGraph({"solo": 3.1e6}, name="")
        assert instance_digest(g, 6.2e6, platform, "hlfet") == (
            "d3170e1d4d94c639294c0cd5d8c92ebfef36975ba77aa101bc64e775c72d7363")

    def test_pinned_overrides(self, platform):
        g = TaskGraph({"a": 1, "b": 0.1, "c": 5e-324, "d": 1e16},
                      [("c", "d"), ("a", "b"), ("a", "c"), ("a", "b")],
                      name='café "q" \\ \x01')
        key = instance_digest(g, 1e17, platform, "lpt",
                              deadline_overrides={"d": 5e16, "b": 2},
                              schema=1)
        assert key == (
            "288e630620df9f70feab3a0b592c3b295985dd9039a1966856f1539b991c2677")


class TestFragmentMemo:
    """The graph's key fragment is process-local: it never travels."""

    def test_pickle_is_unchanged_by_digesting(self, instance, platform):
        g, deadline = instance
        before = pickle.dumps(g)
        instance_digest(g, deadline, platform, "edf")
        assert g._fragment is not None
        assert pickle.dumps(g) == before

    def test_unpickled_graph_starts_empty(self, instance, platform):
        g, deadline = instance
        key = instance_digest(g, deadline, platform, "edf")
        clone = pickle.loads(pickle.dumps(g))
        assert clone._fragment is None
        assert instance_digest(clone, deadline, platform, "edf") == key


class TestRoundTrip:
    def test_summaries_restore_exactly(self, instance, platform, payload):
        g, deadline = instance
        results = paper_suite(g, deadline, platform=platform)
        # ... and through JSON text, which is what the cache stores.
        restored = restore_results(json.loads(json.dumps(payload)))
        assert list(restored) == list(results)
        for h, r in results.items():
            assert restored[h].total_energy == r.total_energy
            assert restored[h].energy == r.energy
            assert restored[h].point == r.point
            assert restored[h].n_processors == r.n_processors
            assert restored[h].meets_deadline == r.meets_deadline
            assert restored[h].schedule is None  # summaries only


class TestResultCache:
    def test_miss_then_hit(self, tmp_path, instance, platform, payload):
        g, deadline = instance
        cache = ResultCache(tmp_path)
        key = instance_digest(g, deadline, platform, "edf")
        assert cache.get(key) is None
        cache.put(key, payload)
        assert cache.get(key) == payload
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        assert cache.stats.bytes_read > 0
        assert cache.stats.bytes_written > 0
        assert cache.stats.hit_rate == 0.5

    def test_schema_version_changes_key(self, instance, platform):
        g, deadline = instance
        assert instance_digest(g, deadline, platform, "edf") != \
            instance_digest(g, deadline, platform, "edf",
                            schema=CACHE_SCHEMA_VERSION + 1)

    def test_schema_bump_orphans_pre_bump_entries(self, tmp_path, instance,
                                                  platform, payload):
        """Results cached before the Phase-1/plateau search fixes were
        computed by a (rarely) different search and must never be served
        again: the schema bump must both re-key the digest and reject a
        literal schema-1 entry found under the current key."""
        g, deadline = instance
        assert CACHE_SCHEMA_VERSION >= 2  # the bump actually happened
        assert instance_digest(g, deadline, platform, "edf", schema=1) != \
            instance_digest(g, deadline, platform, "edf")
        cache = ResultCache(tmp_path)
        key = instance_digest(g, deadline, platform, "edf")
        path = cache.path_for(key)
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps({"schema": 1, "results": payload}))
        assert cache.get(key) is None      # stale version is a miss...
        assert not path.exists()           # ...and the entry is dropped

    def test_schema_version_invalidates_entry(self, tmp_path, instance,
                                              platform, payload,
                                              monkeypatch):
        g, deadline = instance
        cache = ResultCache(tmp_path)
        key = instance_digest(g, deadline, platform, "edf")
        cache.put(key, payload)
        monkeypatch.setattr(cache_mod, "CACHE_SCHEMA_VERSION",
                            CACHE_SCHEMA_VERSION + 1)
        assert cache.get(key) is None          # stale entry is a miss...
        assert not cache.path_for(key).exists()  # ...and is dropped

    @pytest.mark.parametrize("corruption", [
        "", "{", '{"schema": 1, "results": ', "not json at all",
        '{"schema": 1}', '{"schema": 1, "results": 42}',
    ])
    def test_corrupt_entry_falls_back_to_recompute(
            self, tmp_path, instance, platform, payload, corruption):
        g, deadline = instance
        cache = ResultCache(tmp_path)
        key = instance_digest(g, deadline, platform, "edf")
        path = cache.path_for(key)
        path.parent.mkdir(parents=True)
        path.write_text(corruption)
        assert cache.get(key) is None
        assert not path.exists()
        cache.put(key, payload)  # recompute-and-store works afterwards
        assert cache.get(key) == payload

    def test_atomic_write_leaves_no_partial_files(
            self, tmp_path, instance, platform, payload):
        g, deadline = instance
        cache = ResultCache(tmp_path)
        key = instance_digest(g, deadline, platform, "edf")
        cache.put(key, payload)
        cache.put(key, payload)  # overwrite is atomic too
        files = [p for p in tmp_path.rglob("*") if p.is_file()]
        assert files == [cache.path_for(key)]
        json.loads(files[0].read_text())  # the surviving file is complete

    def test_binary_garbage_entry_is_a_miss(self, tmp_path, instance,
                                            platform, payload):
        """Non-UTF-8 bytes must count as a corrupt miss, not crash.

        ``read_text`` raises ``UnicodeDecodeError`` here, which is *not*
        an ``OSError`` — an implementation reading text would let it
        escape the miss handling and take down the caller."""
        g, deadline = instance
        cache = ResultCache(tmp_path)
        key = instance_digest(g, deadline, platform, "edf")
        path = cache.path_for(key)
        path.parent.mkdir(parents=True)
        path.write_bytes(b"\xff\xfe\x00garbage\x80\x81")
        assert cache.get(key) is None
        assert not path.exists()
        cache.put(key, payload)
        assert cache.get(key) == payload

    def test_corrupt_drop_revalidates_before_unlink(
            self, tmp_path, instance, platform, payload, monkeypatch):
        """A corrupt read that a concurrent put has since replaced must
        be served, not unlinked.

        The race: this process reads corrupt bytes; before it unlinks
        them, another process ``os.replace``\\ s a *valid* entry at the
        same path.  A blind unlink would destroy that fresh write.  The
        interleaving is simulated by handing ``_get`` corrupt bytes on
        the first read while the file on disk is already valid."""
        g, deadline = instance
        cache = ResultCache(tmp_path)
        key = instance_digest(g, deadline, platform, "edf")
        cache.put(key, payload)  # the concurrent put has already landed

        real_read = cache._read_entry
        raced = {"done": False}

        def corrupt_once(path):
            if not raced["done"]:
                raced["done"] = True
                return b"truncated garb"
            return real_read(path)

        monkeypatch.setattr(cache, "_read_entry", corrupt_once)
        # Served as a hit from the re-read under the shard lock...
        assert cache.get(key) == payload
        assert raced["done"]
        # ...and the valid entry was NOT destroyed.
        assert cache.path_for(key).exists()
        monkeypatch.undo()
        assert cache.get(key) == payload


class TestEviction:
    def _fill(self, cache, platform, instance, n, pad=2000):
        """Store ``n`` distinct keyed entries of ~``pad`` bytes each."""
        g, deadline = instance
        keys = []
        for i in range(n):
            key = instance_digest(g, deadline * (1 + i), platform, "edf")
            cache.put(key, [{"i": i, "pad": "x" * pad}])
            keys.append(key)
        return keys

    def test_unbounded_cache_never_evicts(self, tmp_path, instance,
                                          platform):
        cache = ResultCache(tmp_path)  # max_bytes=None
        keys = self._fill(cache, platform, instance, 8)
        assert cache.stats.evictions == 0
        assert all(cache.get(k) is not None for k in keys)

    def test_put_bounds_the_tree(self, tmp_path, instance, platform):
        cache = ResultCache(tmp_path, max_bytes=10_000)
        self._fill(cache, platform, instance, 20)
        assert cache.total_bytes() <= 10_000
        assert cache.stats.evictions > 0
        files = list(tmp_path.rglob("*.json"))
        assert 0 < len(files) < 20

    def test_eviction_is_least_recently_used(self, tmp_path, instance,
                                             platform):
        cache = ResultCache(tmp_path, max_bytes=1 << 30)
        keys = self._fill(cache, platform, instance, 6)
        # Age five entries far into the past; keep one recent.
        for key in keys[:-1]:
            os.utime(cache.path_for(key), (1.0, 1.0))
        cache.max_bytes = cache.path_for(keys[-1]).stat().st_size
        sweep = cache.evict()
        assert sweep.entries_removed == 5
        assert cache.get(keys[-1]) is not None  # the recent one survives
        assert all(cache.get(k) is None for k in keys[:-1])

    def test_hit_refreshes_recency(self, tmp_path, instance, platform):
        cache = ResultCache(tmp_path, max_bytes=1 << 30)
        keys = self._fill(cache, platform, instance, 6)
        for key in keys:
            os.utime(cache.path_for(key), (1.0, 1.0))
        assert cache.get(keys[0]) is not None  # the hit bumps atime
        cache.max_bytes = cache.path_for(keys[0]).stat().st_size
        cache.evict()
        assert cache.get(keys[0]) is not None
        assert all(cache.get(k) is None for k in keys[1:])

    def test_sweep_removes_aged_tmp_keeps_fresh(self, tmp_path, instance,
                                                platform):
        cache = ResultCache(tmp_path, max_bytes=None, tmp_ttl_seconds=60)
        self._fill(cache, platform, instance, 1)
        shard = next(p for p in tmp_path.iterdir() if p.is_dir())
        aged = shard / "dead-writer.tmp"
        aged.write_text("partial")
        os.utime(aged, (1.0, 1.0))
        fresh = shard / "live-writer.tmp"
        fresh.write_text("partial")
        sweep = cache.evict()  # unbounded: sweeps orphans only
        assert sweep.tmp_removed == 1
        assert sweep.entries_removed == 0
        assert not aged.exists()
        assert fresh.exists()
        assert cache.stats.tmp_swept == 1

    def test_total_bytes_counts_entries_only(self, tmp_path, instance,
                                             platform):
        cache = ResultCache(tmp_path)
        self._fill(cache, platform, instance, 3)
        want = sum(p.stat().st_size for p in tmp_path.rglob("*.json"))
        assert cache.total_bytes() == want
