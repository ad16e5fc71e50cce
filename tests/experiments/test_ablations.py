"""Ablations of the paper's design choices, each on a pool of 60-task
graphs: does the choice the paper made matter, and in which direction?"""

import numpy as np

from repro.core.energy import schedule_energy
from repro.core.lamps import lamps_search
from repro.core.limits import limit_sf
from repro.core.platform import Platform, default_platform
from repro.core.sns import schedule_and_stretch
from repro.core.stretch import required_frequency, stretch_point
from repro.graphs.analysis import critical_path_length, total_work
from repro.graphs.generators import stg_random_graph
from repro.graphs.transforms import linear_cluster
from repro.power.dvs import DVSLadder
from repro.power.shutdown import SleepModel
from repro.sched.deadlines import task_deadlines
from repro.sched.insertion import insertion_schedule
from repro.sched.list_scheduler import list_schedule


def _coarse(seed):
    return stg_random_graph(60, seed).scaled(3.1e6)


def test_linear_vs_greedy_phase2():
    """§4.2: a phase 2 that stops at the first energy increase can be
    trapped by Fig. 6's local minima; the linear search never is."""
    for seed in range(24):
        g = _coarse(seed)
        deadline = 2.0 * critical_path_length(g)
        linear = lamps_search(g, deadline, phase2="linear")
        greedy = lamps_search(g, deadline, phase2="greedy")
        assert greedy.total_energy >= linear.total_energy, g.name


def test_priority_policies():
    """§4.4: EDF leaves almost nothing on the table against LIMIT-SF,
    which no policy can beat."""
    policies = ("edf", "hlfet", "fifo", "lpt", "spt")
    excess = {p: [] for p in policies}
    for seed in range(12):
        g = _coarse(seed)
        deadline = 2.0 * critical_path_length(g)
        bound = limit_sf(g, deadline).total_energy
        for p in policies:
            r = lamps_search(g, deadline, shutdown=True, policy=p)
            excess[p].append(r.total_energy / bound - 1.0)
    mean = {p: float(np.mean(v)) for p, v in excess.items()}
    assert mean["edf"] < 0.06
    assert all(e >= -1e-9 for e in mean.values())
    assert mean["edf"] <= min(mean.values()) + 0.03


def test_voltage_step():
    """§4.3: nested ladders never hurt, and finer than the paper's
    0.05 V buys only a few percent."""
    steps = (0.2, 0.1, 0.05, 0.025, 0.01)
    platforms = {s: Platform(ladder=DVSLadder(vdd_step=s),
                             sleep=SleepModel()) for s in steps}
    energies = {s: [] for s in steps}
    for seed in range(8):
        g = _coarse(seed)
        # Off-grid factors: at round ones the stretch target often
        # lands on a coarse-grid point anyway, hiding the effect.
        for factor in (1.3, 1.7, 2.3):
            deadline = factor * critical_path_length(g)
            for s, plat in platforms.items():
                energies[s].append(lamps_search(
                    g, deadline, shutdown=True, platform=plat).total_energy)
    mean = {s: float(np.mean(v)) for s, v in energies.items()}
    # Each halving refines the previous grid (0.2 -> 0.1 -> 0.05 -> 0.025).
    assert mean[0.1] <= mean[0.2] + 1e-9
    assert mean[0.05] <= mean[0.1] + 1e-9
    assert mean[0.025] <= mean[0.05] + 1e-9
    assert mean[0.05] - min(mean.values()) < 0.05 * mean[0.05]
    assert mean[0.2] >= mean[0.05] - 1e-9


def test_shutdown_overhead():
    """§3.4: cheaper transitions never gain less from PS, and a 0.483 J
    overhead makes coarse-grain gaps stop sleeping."""
    scales = (0.01, 0.1, 1.0, 10.0, 1000.0)
    gains, shutdowns = {}, {}
    for scale in scales:
        plat = Platform(ladder=DVSLadder(),
                        sleep=SleepModel(overhead_energy=483e-6 * scale))
        per_graph = []
        for seed in range(8):
            g = _coarse(seed)
            deadline = 2.0 * critical_path_length(g)
            base = schedule_and_stretch(g, deadline, shutdown=False,
                                        platform=plat)
            ps = schedule_and_stretch(g, deadline, shutdown=True,
                                      platform=plat)
            per_graph.append((1.0 - ps.total_energy / base.total_energy,
                              ps.energy.n_shutdowns))
        gains[scale] = float(np.mean([gain for gain, _ in per_graph]))
        shutdowns[scale] = float(np.mean([n for _, n in per_graph]))
    ordered = [gains[s] for s in scales]
    assert all(a >= b - 1e-9 for a, b in zip(ordered, ordered[1:]))
    assert all(g >= -1e-9 for g in ordered)
    assert shutdowns[1000.0] < shutdowns[1.0]


def test_event_driven_vs_insertion_scheduling():
    """§4.4 again: a gap-inserting scheduler moves S&S+PS energies by
    only a few percent either way."""
    plat = default_platform()

    def energy_of(sched, d, seconds):
        f_req = required_frequency(sched, d, plat.fmax)
        if f_req > plat.fmax * (1 + 1e-9):
            return None
        point = stretch_point(plat.ladder, f_req)
        return schedule_energy(sched, point, seconds, sleep=plat.sleep).total

    deltas = []
    for seed in range(16):
        g = _coarse(seed)
        deadline = 2.0 * critical_path_length(g)
        d = task_deadlines(g, deadline)
        seconds = plat.seconds(deadline)
        e_evt = energy_of(list_schedule(g, 4, d), d, seconds)
        e_ins = energy_of(insertion_schedule(g, 4, d), d, seconds)
        if e_evt and e_ins:
            deltas.append(e_ins / e_evt - 1.0)
    assert abs(float(np.mean(deltas))) < 0.05


def test_linear_clustering_of_fine_grain_graphs():
    """A negative result: clustering fine-grain chains does not recover
    PS gains (the trailing gap dominates), but it does shrink the
    scheduling problem at identical CPL and work."""
    gains_raw, gains_clu, sizes = [], [], []
    for seed in range(10):
        g = stg_random_graph(60, seed).scaled(3.1e4)
        c = linear_cluster(g)
        assert critical_path_length(c) == critical_path_length(g)
        assert total_work(c) == total_work(g)
        deadline = 4.0 * critical_path_length(g)

        def ps_gain(graph):
            base = schedule_and_stretch(graph, deadline, shutdown=False)
            ps = schedule_and_stretch(graph, deadline, shutdown=True)
            return 1.0 - ps.total_energy / base.total_energy

        gains_raw.append(ps_gain(g))
        gains_clu.append(ps_gain(c))
        sizes.append((g.n, c.n))
    assert abs(np.mean(gains_clu) - np.mean(gains_raw)) < 0.01
    assert all(clustered <= raw for raw, clustered in sizes)
    assert sum(clustered < raw for raw, clustered in sizes) >= len(sizes) / 2
