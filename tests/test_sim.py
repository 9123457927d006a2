"""Event-driven simulator: determinism, exact integration, independent references."""
import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aoinet import sim
from aoinet.analytic import aoi_multi_source_n2
from aoinet.model import NetworkConfig, QueueDiscipline, load_config
from aoinet.shs import ShsModel, solve_age
from aoinet.sim import (
    _ENGINES,
    SimParams,
    SimResult,
    _Arrivals,
    _Fcfs,
    _LcfsS,
    _LcfsW,
    _Sawtooth,
    _stream,
    replicate,
    simulate,
)

DATA = Path(__file__).parent / "data"


def cfg(m=1, n=1, rates=None, mus=None, disc="lcfs-s"):
    if rates is None:
        rates = [[1.0] * n for _ in range(m)]
    if mus is None:
        mus = [1.0] * n
    return NetworkConfig(m, n, rates, mus, disc)


def close_enough(value, target, ci):
    return abs(value - target) <= max(4.0 * ci, 0.02 * target)


def integrate(dt, dg, warmup, horizon, batches, ends=()):
    """The statistics of a `_Sawtooth` given the deliveries in windows that end
    at each of `ends` (increasing, below the horizon), then at the horizon."""
    sawtooth = _Sawtooth(warmup, horizon, batches)
    dt, dg = np.asarray(dt, dtype=float), np.asarray(dg, dtype=float)
    cut = np.searchsorted(dt, ends, side="right")
    for t, g, end in zip(np.split(dt, cut), np.split(dg, cut), [*ends, horizon]):
        sawtooth.add(t, g, end)
    return sawtooth.stats()


def test_integrate_source_hand_case():
    # delivery at t=1 (gen 0.5), t=2 (gen 1.8), t=3 (gen 1.0, stale)
    aoi, ci, nd, nu = integrate(
        np.array([1.0, 2.0, 3.0]),
        np.array([0.5, 1.8, 1.0]),
        0.0,
        4.0,
        2,
    )
    # piecewise integral: 0.5 + 1.0 + 0.7 + 1.7 over four unit stretches
    assert aoi == pytest.approx(3.9 / 4.0, rel=1e-12)
    assert nd == 3
    assert nu == 2
    # batch means are 0.75 and 1.2
    assert ci == pytest.approx(1.96 * 0.225, rel=1e-9)


def test_integrate_source_warmup_window():
    aoi, _, nd, nu = integrate(
        np.array([1.0, 2.0, 3.0]),
        np.array([0.5, 1.8, 1.0]),
        2.0,
        4.0,
        2,
    )
    # window (2, 4]: age runs from 0.2 to 2.2 on generation 1.8
    assert aoi == pytest.approx(2.4 / 2.0, rel=1e-12)
    assert nd == 1  # only the stale t=3 delivery falls in the window
    assert nu == 0


@pytest.mark.parametrize(
    "ends",
    [[2.0], [3.0], [2.0, 3.0], [1.0, 2.5, 3.0], [0.5, 1.5, 2.0, 3.5]],
    ids=["on-warmup", "on-batch-edge", "on-both", "on-delivery", "between"],
)
def test_integrate_source_window_edges(ends):
    # window (2, 4] in two batches, with an edge at 3; the deliveries at 2 and
    # 3 fall on the warmup and on the batch edge
    dt, dg = [1.0, 2.0, 3.0], [0.5, 1.8, 2.5]
    aoi, ci, nd, nu = integrate(dt, dg, 2.0, 4.0, 2, ends)
    assert (aoi, ci, nd, nu) == integrate(dt, dg, 2.0, 4.0, 2)
    # batch sums 0.7 on (2, 3] at generation 1.8 and 1.0 on (3, 4] at 2.5
    assert aoi == pytest.approx(1.7 / 2.0, rel=1e-12)
    assert ci == pytest.approx(1.96 * 0.15, rel=1e-9)
    assert (nd, nu) == (1, 1)


def sorted_integrate_source(dt, dg, warmup, horizon, batches):
    """Reference integrator: sorts the batch edges in among the useful deliveries
    and finds each segment's level and batch by binary search."""
    prev = np.maximum.accumulate(np.concatenate(([0.0], dg)))[:-1]
    useful = dg > prev
    in_window = dt > warmup
    n_deliveries = int(in_window.sum())
    n_useful = int((useful & in_window).sum())

    t_useful = dt[useful]
    g_useful = dg[useful]
    edges = warmup + (horizon - warmup) * np.arange(batches + 1) / batches
    inner = (t_useful > warmup) & (t_useful < horizon)
    cuts = np.sort(np.concatenate([edges, t_useful[inner]]))
    left = cuts[:-1]
    right = cuts[1:]
    level_t = np.concatenate(([0.0], t_useful))
    level_g = np.concatenate(([0.0], g_useful))
    g = level_g[np.searchsorted(level_t, left, side="right") - 1]
    contrib = 0.5 * ((right - g) ** 2 - (left - g) ** 2)
    bidx = np.clip(np.searchsorted(edges, left, side="right") - 1, 0, batches - 1)
    per_batch = np.bincount(bidx, weights=contrib, minlength=batches)
    width = (horizon - warmup) / batches
    means = per_batch / width
    aoi = float(per_batch.sum() / (horizon - warmup))
    ci = float(1.96 * means.std(ddof=1) / math.sqrt(batches))
    return aoi, ci, n_deliveries, n_useful


# (gap to the previous delivery, its age at delivery); halves make deliveries at
# one instant, on batch edges and at the horizon common, and age spread makes
# stale deliveries
_delivery_rows = st.lists(
    st.tuples(st.integers(0, 6).map(lambda k: 0.5 * k), st.integers(0, 8).map(lambda k: 0.5 * k)),
    max_size=40,
)


# window ends; halves put them on deliveries, batch edges and the warmup
_window_ends = st.lists(
    st.one_of(st.integers(1, 48).map(lambda k: 0.5 * k), st.floats(1e-3, 30.0)), max_size=4
)


def window_ends(ends, horizon):
    return sorted({e for e in ends if e < horizon})


@settings(derandomize=True, max_examples=400, deadline=None)
@given(
    rows=_delivery_rows,
    warmup=st.one_of(st.integers(0, 8).map(lambda k: 0.5 * k), st.floats(0.0, 10.0)),
    span=st.one_of(st.integers(1, 24).map(lambda k: 0.5 * k), st.floats(1e-3, 20.0)),
    batches=st.integers(2, 64),
    ends=_window_ends,
)
@example(rows=[], warmup=0.0, span=4.0, batches=2, ends=[])  # empty stream
# all at or before warmup
@example(rows=[(0.5, 0.5), (1.0, 0.0), (0.5, 2.0)], warmup=2.0, span=2.0, batches=4, ends=[2.0])
# on a batch edge
@example(rows=[(1.5, 1.0), (0.5, 0.5)], warmup=1.0, span=2.0, batches=2, ends=[2.0])
@example(rows=[(1.0, 0.5), (3.0, 1.0)], warmup=0.0, span=4.0, batches=2, ends=[])  # at the horizon
# same instant
@example(rows=[(1.0, 0.5), (0.0, 0.0), (1.0, 2.0)], warmup=0.5, span=3.0, batches=3, ends=[1.0])
# stale
@example(rows=[(1.0, 0.0), (0.5, 2.0), (0.5, 0.5), (0.5, 3.0)], warmup=0.0, span=3.0, batches=2,
         ends=[1.25, 2.0])
@example(rows=[(0.5, 0.5)] * 30, warmup=1.0, span=14.0, batches=64, ends=[1.0, 7.0, 7.25])
# many windows, each reaching a few of many batches
@example(rows=[(0.5, 1.0), (0.5, 3.0)] * 200, warmup=1.0, span=199.0, batches=50_000,
         ends=[2.5 * k for k in range(1, 80)])
# rounding puts the last edge 2 ulp below the horizon, with a delivery in between
@example(rows=[(20.192999999999994, 1.0)], warmup=2.176, span=18.017, batches=31, ends=[20.0])
@example(rows=[(20.192999999999998, 1.0)], warmup=2.176, span=18.017, batches=31,
         ends=[20.192999999999994])  # and one at it
def test_integrate_source_matches_sorted_reference(rows, warmup, span, batches, ends):
    horizon = warmup + span
    dt = np.cumsum([gap for gap, _ in rows], dtype=float)
    dg = np.maximum(dt - np.array([age for _, age in rows], dtype=float), 0.0)
    # kernels deliver nothing after the horizon
    keep = dt <= horizon
    dt, dg = dt[keep], dg[keep]
    expected = sorted_integrate_source(dt, dg, warmup, horizon, batches)
    ends = window_ends(ends, horizon)
    assert repr(integrate(dt, dg, warmup, horizon, batches, ends)) == repr(expected)


def test_same_seed_bitwise_identical():
    p = SimParams(cfg(n=2), 3000.0, seed=42)
    a, b = simulate(p), simulate(p)
    assert a.aoi == b.aoi
    assert a.ci_half_width == b.ci_half_width
    assert (a.deliveries, a.useful_deliveries, a.discarded_stale) == (
        b.deliveries,
        b.useful_deliveries,
        b.discarded_stale,
    )


def test_different_seeds_differ():
    a = simulate(SimParams(cfg(), 3000.0, seed=1))
    b = simulate(SimParams(cfg(), 3000.0, seed=2))
    assert a.aoi != b.aoi


def test_counters_add_up():
    r = simulate(SimParams(cfg(m=2, n=2, rates=[[0.4, 0.4], [0.7, 0.7]]), 5000.0))
    assert r.deliveries == r.useful_deliveries + r.discarded_stale
    assert 0 < r.useful_deliveries <= r.deliveries


def test_parallel_servers_produce_stale_deliveries():
    r = simulate(SimParams(cfg(n=2), 10000.0, seed=7))
    assert r.discarded_stale > 0


def test_single_server_never_stale():
    # one preemptive server delivers in generation order
    for disc in ("lcfs-s", "lcfs-w", "fcfs"):
        rates = [[0.5]]
        r = simulate(SimParams(cfg(rates=rates, disc=disc), 5000.0, seed=3))
        assert r.discarded_stale == 0


def test_warmup_defaults_to_one_percent():
    r = simulate(SimParams(cfg(), 1000.0))
    assert r.warmup == pytest.approx(10.0)
    assert r.replications == 1


def test_validation_errors():
    with pytest.raises(ValueError, match="horizon"):
        simulate(SimParams(cfg(), 0.0))
    with pytest.raises(ValueError, match="warmup"):
        simulate(SimParams(cfg(), 100.0, warmup=100.0))
    with pytest.raises(ValueError, match="warmup"):
        simulate(SimParams(cfg(), 100.0, warmup=-1.0))
    with pytest.raises(ValueError, match="batches"):
        simulate(SimParams(cfg(), 100.0, batches=1))
    with pytest.raises(ValueError, match="service_rates"):
        simulate(SimParams(cfg(mus=[0.0]), 100.0))


def test_fcfs_stability_guard():
    with pytest.raises(ValueError, match="unstable under fcfs"):
        simulate(SimParams(cfg(disc="fcfs"), 100.0))
    # per-server load includes every source
    bad = cfg(m=2, n=1, rates=[[0.6], [0.6]], disc="fcfs")
    with pytest.raises(ValueError, match="server 0 is unstable"):
        simulate(SimParams(bad, 100.0))


def test_replicate_one_is_simulate():
    p = SimParams(cfg(), 2000.0, seed=9)
    assert replicate(p, 1) == simulate(p)


def test_replicate_pools_counters_and_tightens():
    p = SimParams(cfg(), 50000.0, seed=11)
    r4 = replicate(p, 4)
    r16 = replicate(p, 16)
    assert r4.replications == 4
    assert r16.deliveries > r4.deliveries
    assert r16.ci_half_width[0] < r4.ci_half_width[0]


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    m=st.integers(1, 2),
    n=st.integers(1, 2),
    disc=st.sampled_from(["lcfs-s", "lcfs-w", "fcfs"]),
    seed=st.integers(0, 2**32),
    horizon=st.floats(20.0, 200.0),
    k=st.integers(1, 4),
)
def test_replicate_counters_are_additive(m, n, disc, seed, horizon, k):
    # rates low enough that fcfs is stable with every source on one server
    p = SimParams(cfg(m, n, [[0.3] * n] * m, [1.0] * n, disc), horizon, seed=seed, batches=4)
    runs = [simulate(replace(p, seed=seed + r)) for r in range(k)]
    pooled = replicate(p, k)
    assert pooled.deliveries == sum(r.deliveries for r in runs)
    assert pooled.useful_deliveries == sum(r.useful_deliveries for r in runs)
    assert pooled.discarded_stale == sum(r.discarded_stale for r in runs)
    mean = np.mean([r.aoi for r in runs], axis=0)
    assert pooled.aoi == pytest.approx(tuple(mean), rel=1e-12)
    assert (pooled.seed, pooled.horizon, pooled.replications) == (seed, horizon, k)


def test_replicate_validation():
    p = SimParams(cfg(), 100.0)
    with pytest.raises(ValueError, match="replications"):
        replicate(p, 0)


def test_fcfs_single_server_reference():
    # M/M/1 first-come-first-served average age has a textbook closed form
    lam, mu = 0.5, 1.0
    rho = lam / mu
    target = (1.0 / mu) * (1.0 + 1.0 / rho + rho * rho / (1.0 - rho))
    r = replicate(SimParams(cfg(rates=[[lam]], disc="fcfs"), 200000.0, seed=5), 4)
    assert close_enough(r.aoi[0], target, r.ci_half_width[0])


class StubService:
    """Given service draws, handed out in the order a kernel asks for them: one
    per arrival for lcfs-s and fcfs, a (first-tick, second-tick) offset pair per
    arrival for lcfs-w. Draws past the given ones are never reached."""

    def __init__(self, *times):
        self.times = list(times)

    def exponential(self, scale, size):
        count = int(np.prod(size))
        out, self.times = (self.times + [1e9] * count)[:count], self.times[count:]
        return np.array(out, dtype=float).reshape(size)


def run_kernel(kernel, t, draws, horizon, ends=()):
    """(done, who) of a kernel on arrivals t with the given service draws, sent
    in windows that end at each of `ends` (increasing, below the horizon), then
    at the horizon. Each arrival's source label is its index, so who holds the
    indices of the delivered arrivals."""
    labels = np.arange(len(t))
    server = kernel(StubService(*draws), 1.0, labels)
    index = np.split(labels, np.searchsorted(t, ends, side="right"))
    out = [server.deliver(t[k], k, end) for k, end in zip(index, [*ends, horizon])]
    done, gen, who = (np.concatenate(x) for x in zip(*out))
    np.testing.assert_array_equal(gen, t[who])
    assert done.dtype == np.float64 and who.dtype.kind == "i"
    return done, who


@pytest.mark.parametrize(
    "arrivals, services, horizon, delivered",
    [
        pytest.param([], [], 10.0, [], id="no-arrivals"),
        # the completion at 2 comes first, so the arrival at 2 finds the server idle
        pytest.param([0.0, 2.0], [2.0, 9.0, 1.0, 9.0], 10.0, [(2.0, 0.0), (3.0, 2.0)],
                     id="completion-at-arrival"),
        # the waiter from 1 is promoted at 2 before the arrival at 2 can displace it
        pytest.param([0.0, 1.0, 2.0], [5.0, 9.0, 1.0, 9.0, 1.0, 0.5], 10.0,
                     [(2.0, 0.0), (3.0, 1.0), (3.5, 2.0)],
                     id="completion-at-arrival-promotes-waiter"),
        pytest.param([1.0], [2.0, 9.0], 3.0, [(3.0, 1.0)], id="completion-at-horizon"),
        pytest.param([0.0, 1.0], [5.0, 9.0, 5.0, 9.0], 4.0, [], id="waiter-pending-at-horizon"),
        pytest.param([0.0, 1.0, 2.0], [5.0, 9.0, 5.0, 9.0, 1.0, 1.0], 10.0,
                     [(3.0, 0.0), (4.0, 2.0)], id="newer-waiter-displaces-older"),
    ],
)
def test_lcfs_w_deliveries_hand_cases(arrivals, services, horizon, delivered):
    t = np.array(arrivals, dtype=float)
    done, who = run_kernel(_LcfsW, t, services, horizon)
    expected_done = [d for d, _ in delivered]
    expected_gen = [g for _, g in delivered]
    np.testing.assert_array_equal(done, np.array(expected_done, dtype=float))
    np.testing.assert_array_equal(t[who], np.array(expected_gen, dtype=float))
    np.testing.assert_array_equal(who, np.searchsorted(t, expected_gen))


def assert_kernel_matches(kernel, t, draws, horizon, expected, ends=()):
    """Check the kernel's (done, who) on arrivals t, windowed at `ends`, against
    the event loop's (delivery time, arrival index) pairs, and return it."""
    done, who = run_kernel(kernel, t, draws, horizon, ends)
    assert done.tolist() == [d for d, _ in expected]
    assert who.tolist() == [k for _, k in expected]
    return done, who


def lcfs_w_event_loop(t, draws, horizon):
    """(delivery time, arrival index) pairs of the uniformized lcfs-w model, one
    event at a time: arrival k, then the first two clock ticks of its gap, at
    the offsets draws[2k] and draws[2k + 1]."""
    n = len(t)
    out = []
    serving = waiting = None
    for k in range(n):
        if serving is None:
            serving = k
        else:
            waiting = k  # displaces any older waiter
        end = t[k + 1] if k + 1 < n else horizon
        tick = t[k]
        for offset in draws[2 * k : 2 * k + 2]:
            tick += offset
            if serving is None or tick > end:
                break
            out.append((tick, serving))
            serving, waiting = waiting, None
    return out


# (gap to the previous arrival, first-tick offset, second-tick offset) per arrival;
# halves and zeros make repeated arrivals and ticks on arrivals common
_half = st.integers(0, 8).map(lambda k: 0.5 * k)


def arrivals_and_horizon(gaps, tail):
    t = np.cumsum([g[0] for g in gaps], dtype=float)
    return t, float(t[-1] if gaps else 0.0) + tail + (0.0 if gaps else 1.0)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(gaps=st.lists(st.tuples(_half, _half, _half), max_size=10), tail=_half, ends=_window_ends)
# repeated times, then a tick on an arrival
@example(gaps=[(0.0, 1.0, 1.0), (0.0, 1.0, 1.0), (1.0, 0.5, 0.5)], tail=1.0, ends=[])
@example(gaps=[(0.0, 1.0, 9.0), (1.0, 1.0, 0.5), (0.5, 2.0, 0.5)], tail=2.0, ends=[])
@example(gaps=[(1.0, 9.0, 9.0), (2.0, 0.0, 0.0)], tail=0.0, ends=[])  # arrival at the horizon
@example(gaps=[], tail=0.0, ends=[0.5])  # no arrivals
# window ends on a tick, in a waiting gap and between the two ticks of a gap
@example(gaps=[(0.0, 1.0, 9.0), (0.5, 1.0, 0.5), (0.5, 2.0, 0.5)], tail=2.0, ends=[0.5, 1.0, 2.25])
def test_lcfs_w_kernel_matches_event_loop(gaps, tail, ends):
    t, horizon = arrivals_and_horizon(gaps, tail)
    draws = [d for _, first, second in gaps for d in (first, second)]
    expected = lcfs_w_event_loop(t.tolist(), draws, horizon)
    ends = window_ends(ends, horizon)
    done, who = assert_kernel_matches(_LcfsW, t, draws, horizon, expected, ends)
    assert np.all(np.diff(done) >= 0)
    assert np.unique(who).size == who.size
    assert np.all((t[who] <= done) & (done <= horizon))


def lcfs_s_event_loop(t, draws, horizon):
    """(delivery time, arrival index) pairs of a preemptive server, one event at a
    time: each arrival preempts the update in service, and a completion at the
    instant of an arrival comes first."""
    out = []
    serving = finish = None
    for k, arrival in enumerate(t):
        if serving is not None and finish <= arrival:
            out.append((finish, serving))
        serving, finish = k, arrival + draws[k]
    if serving is not None and finish <= horizon:
        out.append((finish, serving))
    return out


def fcfs_event_loop(t, draws, horizon):
    """(delivery time, arrival index) pairs of a first-come-first-served server:
    each arrival starts service once it and every earlier arrival are in."""
    out = []
    free = -math.inf
    for k, arrival in enumerate(t):
        free = max(arrival, free) + draws[k]
        if free <= horizon:
            out.append((free, k))
    return out


@pytest.mark.parametrize(
    "kernel, event_loop",
    [(_LcfsS, lcfs_s_event_loop), (_Fcfs, fcfs_event_loop)],
    ids=["lcfs-s", "fcfs"],
)
@settings(derandomize=True, max_examples=300, deadline=None)
@given(gaps=st.lists(st.tuples(_half, _half), max_size=10), tail=_half, ends=_window_ends)
@example(gaps=[], tail=0.0, ends=[])  # no arrivals
@example(gaps=[(0.0, 1.0), (0.0, 1.0), (1.0, 0.5)], tail=1.0, ends=[])  # repeated times
@example(gaps=[(1.0, 1.0), (1.0, 0.5), (0.5, 1.0)], tail=0.5, ends=[])  # completion on an arrival
@example(gaps=[(1.0, 2.0)], tail=2.0, ends=[])  # completion at the horizon
# window ends at an arrival, at a completion and between the two
@example(gaps=[(1.0, 2.0), (1.0, 0.5), (0.5, 1.0)], tail=1.0, ends=[1.0, 1.5, 2.5])
def test_one_draw_kernels_match_event_loop(kernel, event_loop, gaps, tail, ends):
    # (gap to the previous arrival, service draw) per arrival
    t, horizon = arrivals_and_horizon(gaps, tail)
    draws = [d for _, d in gaps]
    expected = event_loop(t.tolist(), draws, horizon)
    assert_kernel_matches(kernel, t, draws, horizon, expected, window_ends(ends, horizon))


@pytest.mark.parametrize(
    "kernel, arrivals, draws, ends, delivered",
    [
        # the edge at 2 falls between the arrival at 1 and its completion at 3,
        # which comes before the next arrival...
        pytest.param(_LcfsS, [1.0, 4.0], [2.0, 1.0], [2.0], [(3.0, 0), (5.0, 1)],
                     id="lcfs-s-in-service"),
        # ...or after it, when the next window's first arrival preempts it
        pytest.param(_LcfsS, [1.0, 2.5], [2.0, 1.0], [2.0], [(3.5, 1)],
                     id="lcfs-s-preempted"),
        # the arrival at 1 waits through the edge at 1.5; tick 1 at 2 completes
        # the one at 0 and promotes it, and the edge at 2.5 comes before tick 2
        pytest.param(_LcfsW, [0.0, 1.0], [5.0, 9.0, 1.0, 1.0], [1.5, 2.5],
                     [(2.0, 0), (3.0, 1)], id="lcfs-w-waiting-gap"),
        # a waiter promoted before the edge at 2.5 completes after it
        pytest.param(_LcfsW, [0.0, 1.0], [5.0, 9.0, 1.0, 5.0], [2.5],
                     [(2.0, 0), (7.0, 1)], id="lcfs-w-promoted-waiter"),
        # a busy period from 0 to 3 spans the edges at 1.2 and 2
        pytest.param(_Fcfs, [0.0, 0.5, 1.0], [1.0, 1.0, 1.0], [1.2, 2.0],
                     [(1.0, 0), (2.0, 1), (3.0, 2)], id="fcfs-busy-period"),
    ],
)
def test_kernel_window_edge_hand_cases(kernel, arrivals, draws, ends, delivered):
    t = np.array(arrivals)
    assert_kernel_matches(kernel, t, draws, 10.0, delivered, ends)
    assert_kernel_matches(kernel, t, draws, 10.0, delivered)


def lcfs_w_reference_model(lam, mu):
    """Hand-built chain for one non-preemptive server with a single waiting slot.

    States: idle, serving, serving with a waiter. Coordinates: monitor age,
    in-service update age, waiting update age.
    """
    fresh_service = [0, -1, -1]
    new_waiter = [0, 1, -1]
    deliver_to_idle = [1, -1, -1]
    deliver_promote = [1, 2, -1]
    return ShsModel(
        3,
        3,
        source=[0, 1, 1, 2, 2],
        target=[1, 2, 0, 2, 1],
        rate=[lam, lam, mu, lam, mu],
        take=[fresh_service, new_waiter, deliver_to_idle, new_waiter, deliver_promote],
        growth=[[1, 0, 0], [1, 1, 0], [1, 1, 1]],
    )


def test_lcfs_w_single_server_reference():
    for lam, mu in ((1.0, 1.0), (2.0, 1.3), (0.2, 1.0), (3.0, 1.0), (0.5, 5.0)):
        target = solve_age(lcfs_w_reference_model(lam, mu)).aoi
        r = replicate(
            SimParams(cfg(rates=[[lam]], mus=[mu], disc="lcfs-w"), 200000.0, seed=3), 4
        )
        assert close_enough(r.aoi[0], target, r.ci_half_width[0])


def test_lcfs_w_known_value():
    # at equal rates the reference chain gives exactly 29/12
    assert solve_age(lcfs_w_reference_model(1.0, 1.0)).aoi == pytest.approx(
        29.0 / 12.0, rel=1e-12
    )


def test_lcfs_s_two_servers_reference():
    r = replicate(SimParams(cfg(n=2), 200000.0, seed=13), 4)
    assert close_enough(r.aoi[0], 1.25, r.ci_half_width[0])


def test_two_sources_split_evenly():
    shared = cfg(m=2, n=2, rates=[[0.5, 0.5], [0.5, 0.5]])
    r = replicate(SimParams(shared, 200000.0, seed=21), 4)
    target = aoi_multi_source_n2(0.5, 1.0, 1.0)
    for i in range(2):
        assert close_enough(r.aoi[i], target, r.ci_half_width[i])


def test_result_type_round_trip():
    r = simulate(SimParams(cfg(), 1000.0, seed=2))
    assert isinstance(r, SimResult)
    assert len(r.aoi) == 1 and len(r.ci_half_width) == 1
    assert r.seed == 2 and r.horizon == 1000.0


def mask_split_simulate(params):
    """Reference for the windows and the source split: the whole horizon as one
    window, one global time sort of every delivery, then one boolean mask per
    source."""
    config = params.config
    m, n, seed, horizon = config.sources, config.servers, params.seed, params.horizon
    warmup = 0.01 * horizon
    engine = _ENGINES[config.discipline]
    dt, dg, ds = [], [], []
    for j in range(n):
        times = [
            _Arrivals(_stream(seed, i * n + j), config.arrival_rates[i][j], horizon, 1)
            .until(horizon)
            for i in range(m)
        ]
        t = np.concatenate(times)
        s = np.repeat(np.arange(m), [x.size for x in times])
        order = np.argsort(t, kind="stable")
        server = engine(_stream(seed, m * n + j), config.service_rates[j], s)
        d, g, src = server.deliver(t[order], s[order], horizon)
        dt.append(d)
        dg.append(g)
        ds.append(src)
    dt, dg, ds = np.concatenate(dt), np.concatenate(dg), np.concatenate(ds)
    order = np.argsort(dt, kind="stable")
    dt, dg, ds = dt[order], dg[order], ds[order]
    return [
        sorted_integrate_source(dt[ds == i], dg[ds == i], warmup, horizon, params.batches)
        for i in range(m)
    ]


@pytest.mark.parametrize(
    "config",
    [
        pytest.param(cfg(rates=[[0.7]], disc="lcfs-w"), id="1-source"),
        # labels of 300 sources need more than 8 bits
        pytest.param(
            cfg(m=300, n=3, rates=[[0.002 * (1 + (i + j) % 5) for j in range(3)] for i in range(300)]),
            id="300-sources",
        ),
    ],
)
def test_source_split_matches_mask_reference(monkeypatch, config):
    # a few windows against the reference's one (300 sources: 4 windows of
    # at least 16 arrivals per source)
    monkeypatch.setattr(sim, "_WINDOW_ARRIVALS", 64)
    params = SimParams(config, 3000.0, seed=5)
    result = simulate(params)
    expected = mask_split_simulate(params)
    assert result.aoi == tuple(a for a, _, _, _ in expected)
    assert result.ci_half_width == tuple(c for _, c, _, _ in expected)
    assert result.deliveries == sum(nd for _, _, nd, _ in expected)
    assert result.useful_deliveries == sum(nu for _, _, _, nu in expected)


@pytest.mark.parametrize(
    "rows, useful",
    [
        # a tie across servers: server 0's generation 1 goes before server 1's 3
        pytest.param({1.0: [(5, 1), (6, 4), (6, 2)], 2.0: [(5, 3)]}, 3, id="server-order"),
        # a tie within a server: generation 3 goes before 2, as delivered
        pytest.param({1.0: [(5, 1), (6, 3), (6, 2)], 2.0: [(7, 4)]}, 3, id="delivery-order"),
    ],
)
def test_tied_deliveries_merge_in_server_then_delivery_order(monkeypatch, rows, useful):
    # real delivery times never tie, so a fake kernel delivers fixed
    # (time, generation) rows of the one source, picked by the server's mu

    class Fixed:
        def __init__(self, svc_rng, mu, labels):
            self.rows, self.label = rows[mu], labels[:1]

        def deliver(self, t, s, end):
            (done, gen), self.rows = np.array(self.rows, dtype=float).reshape(-1, 2).T, []
            return done, gen, np.repeat(self.label, done.size)

    monkeypatch.setitem(sim._ENGINES, QueueDiscipline.LCFS_S, Fixed)
    result = simulate(SimParams(cfg(n=2, mus=[1.0, 2.0]), 10.0, warmup=1.0, batches=2))
    assert (result.deliveries, result.useful_deliveries) == (4, useful)


def test_lcfs_w_results_do_not_depend_on_the_window(monkeypatch):
    config = load_config((DATA / "simulate_3x3_lcfs-w.config.json").read_text())
    params = SimParams(config, 20000.0, seed=7)
    whole = simulate(params)
    for window in (64, 1000):
        monkeypatch.setattr(sim, "_WINDOW_ARRIVALS", window)
        assert simulate(params) == whole


def traced_peak(params):
    tracemalloc.start()
    try:
        simulate(params)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("discipline", ["lcfs-s", "lcfs-w", "fcfs"])
def test_peak_memory_is_flat_in_the_horizon(monkeypatch, discipline):
    # 2 sources on 3 servers; at 64 arrivals a window the base horizon is
    # 12 windows, and four times it 47
    monkeypatch.setattr(sim, "_WINDOW_ARRIVALS", 64)
    config = cfg(m=2, n=3, rates=[[0.5] * 3, [0.25] * 3], disc=discipline)
    base = SimParams(config, 1000.0, seed=1)
    # the first run in a process allocates once what later runs reuse
    simulate(base)
    assert traced_peak(replace(base, horizon=4000.0)) <= 1.25 * traced_peak(base)
