"""Event-driven simulator: determinism, exact integration, independent references."""
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aoinet.analytic import aoi_multi_source_n2
from aoinet.model import NetworkConfig
from aoinet.shs import ShsModel, solve_age
from aoinet.sim import (
    _ENGINES,
    SimParams,
    SimResult,
    _deliveries_fcfs,
    _deliveries_lcfs_s,
    _deliveries_lcfs_w,
    _integrate_source,
    _poisson_times,
    _stream,
    replicate,
    simulate,
)


def cfg(m=1, n=1, rates=None, mus=None, disc="lcfs-s"):
    if rates is None:
        rates = [[1.0] * n for _ in range(m)]
    if mus is None:
        mus = [1.0] * n
    return NetworkConfig(m, n, rates, mus, disc)


def close_enough(value, target, ci):
    return abs(value - target) <= max(4.0 * ci, 0.02 * target)


def test_integrate_source_hand_case():
    # delivery at t=1 (gen 0.5), t=2 (gen 1.8), t=3 (gen 1.0, stale)
    aoi, ci, nd, nu = _integrate_source(
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
    aoi, _, nd, nu = _integrate_source(
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


@settings(derandomize=True, max_examples=400, deadline=None)
@given(
    rows=_delivery_rows,
    warmup=st.one_of(st.integers(0, 8).map(lambda k: 0.5 * k), st.floats(0.0, 10.0)),
    span=st.one_of(st.integers(1, 24).map(lambda k: 0.5 * k), st.floats(1e-3, 20.0)),
    batches=st.integers(2, 64),
)
@example(rows=[], warmup=0.0, span=4.0, batches=2)  # empty stream
@example(rows=[(0.5, 0.5), (1.0, 0.0), (0.5, 2.0)], warmup=2.0, span=2.0, batches=4)  # all at or before warmup
@example(rows=[(1.5, 1.0), (0.5, 0.5)], warmup=1.0, span=2.0, batches=2)  # on a batch edge
@example(rows=[(1.0, 0.5), (3.0, 1.0)], warmup=0.0, span=4.0, batches=2)  # at the horizon
@example(rows=[(1.0, 0.5), (0.0, 0.0), (1.0, 2.0)], warmup=0.5, span=3.0, batches=3)  # same instant
@example(rows=[(1.0, 0.0), (0.5, 2.0), (0.5, 0.5), (0.5, 3.0)], warmup=0.0, span=3.0, batches=2)  # stale
@example(rows=[(0.5, 0.5)] * 30, warmup=1.0, span=14.0, batches=64)
# rounding puts the last edge 2 ulp below the horizon, with a delivery in between
@example(rows=[(20.192999999999994, 1.0)], warmup=2.176, span=18.017, batches=31)
@example(rows=[(20.192999999999998, 1.0)], warmup=2.176, span=18.017, batches=31)  # and one at it
def test_integrate_source_matches_sorted_reference(rows, warmup, span, batches):
    horizon = warmup + span
    dt = np.cumsum([gap for gap, _ in rows], dtype=float)
    dg = np.maximum(dt - np.array([age for _, age in rows], dtype=float), 0.0)
    # kernels deliver nothing after the horizon
    keep = dt <= horizon
    dt, dg = dt[keep], dg[keep]
    expected = sorted_integrate_source(dt, dg, warmup, horizon, batches)
    assert repr(_integrate_source(dt, dg, warmup, horizon, batches)) == repr(expected)


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
    """Given service draws, in the kernel's layout: one per arrival for lcfs-s and
    fcfs; for lcfs-w every gap's first-tick offset, then every gap's second-tick
    offset. Draws past the given ones are never reached."""

    def __init__(self, *times):
        self.times = list(times)

    def exponential(self, scale, size):
        return np.array((self.times + [1e9] * size)[:size])


@pytest.mark.parametrize(
    "arrivals, services, horizon, delivered",
    [
        pytest.param([], [], 10.0, [], id="no-arrivals"),
        # the completion at 2 comes first, so the arrival at 2 finds the server idle
        pytest.param([0.0, 2.0], [2.0, 1.0, 9.0, 9.0], 10.0, [(2.0, 0.0), (3.0, 2.0)],
                     id="completion-at-arrival"),
        # the waiter from 1 is promoted at 2 before the arrival at 2 can displace it
        pytest.param([0.0, 1.0, 2.0], [5.0, 1.0, 1.0, 9.0, 9.0, 0.5], 10.0,
                     [(2.0, 0.0), (3.0, 1.0), (3.5, 2.0)],
                     id="completion-at-arrival-promotes-waiter"),
        pytest.param([1.0], [2.0, 9.0], 3.0, [(3.0, 1.0)], id="completion-at-horizon"),
        pytest.param([0.0, 1.0], [5.0, 5.0, 9.0, 9.0], 4.0, [], id="waiter-pending-at-horizon"),
        pytest.param([0.0, 1.0, 2.0], [5.0, 5.0, 1.0, 9.0, 9.0, 1.0], 10.0,
                     [(3.0, 0.0), (4.0, 2.0)], id="newer-waiter-displaces-older"),
    ],
)
def test_lcfs_w_deliveries_hand_cases(arrivals, services, horizon, delivered):
    t = np.array(arrivals, dtype=float)
    done, who = _deliveries_lcfs_w(t, StubService(*services), 1.0, horizon)
    expected_done = [d for d, _ in delivered]
    expected_gen = [g for _, g in delivered]
    np.testing.assert_array_equal(done, np.array(expected_done, dtype=float))
    np.testing.assert_array_equal(t[who], np.array(expected_gen, dtype=float))
    np.testing.assert_array_equal(who, np.searchsorted(t, expected_gen))
    assert done.dtype == np.float64 and who.dtype.kind == "i"


def assert_kernel_matches(kernel, t, draws, horizon, expected):
    """Check the kernel's (done, who) on arrivals t against the event loop's
    (delivery time, arrival index) pairs, and return it."""
    done, who = kernel(t, StubService(*draws), 1.0, horizon)
    assert done.tolist() == [d for d, _ in expected]
    assert who.tolist() == [k for _, k in expected]
    assert done.dtype == np.float64 and who.dtype.kind == "i"
    return done, who


def lcfs_w_event_loop(t, draws, horizon):
    """(delivery time, arrival index) pairs of the uniformized lcfs-w model, one
    event at a time: arrival k, then the first two clock ticks of its gap."""
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
        for offset in (draws[k], draws[n + k]):
            tick += offset
            if serving is None or tick > end:
                break
            out.append((tick, serving))
            serving, waiting = waiting, None
    return out


# (gap to the previous arrival, first-tick offset, second-tick offset) per arrival;
# halves and zeros make repeated arrivals and ticks on arrivals common
_half = st.integers(0, 8).map(lambda k: 0.5 * k)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(gaps=st.lists(st.tuples(_half, _half, _half), max_size=10), tail=_half)
@example(gaps=[(0.0, 1.0, 1.0), (0.0, 1.0, 1.0), (1.0, 0.5, 0.5)], tail=1.0)  # repeated times
@example(gaps=[(0.0, 1.0, 9.0), (1.0, 1.0, 0.5), (0.5, 2.0, 0.5)], tail=2.0)  # tick on arrival
@example(gaps=[(1.0, 9.0, 9.0), (2.0, 0.0, 0.0)], tail=0.0)  # arrival at the horizon
@example(gaps=[], tail=0.0)  # no arrivals
def test_lcfs_w_kernel_matches_event_loop(gaps, tail):
    t = np.cumsum([g for g, _, _ in gaps], dtype=float)
    draws = [d for _, d, _ in gaps] + [d for _, _, d in gaps]
    horizon = float(t[-1] if gaps else 0.0) + tail + (0.0 if gaps else 1.0)
    expected = lcfs_w_event_loop(t.tolist(), draws, horizon)
    done, who = assert_kernel_matches(_deliveries_lcfs_w, t, draws, horizon, expected)
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
    [(_deliveries_lcfs_s, lcfs_s_event_loop), (_deliveries_fcfs, fcfs_event_loop)],
    ids=["lcfs-s", "fcfs"],
)
@settings(derandomize=True, max_examples=300, deadline=None)
@given(gaps=st.lists(st.tuples(_half, _half), max_size=10), tail=_half)
@example(gaps=[], tail=0.0)  # no arrivals
@example(gaps=[(0.0, 1.0), (0.0, 1.0), (1.0, 0.5)], tail=1.0)  # repeated times
@example(gaps=[(1.0, 1.0), (1.0, 0.5), (0.5, 1.0)], tail=0.5)  # completion on an arrival
@example(gaps=[(1.0, 2.0)], tail=2.0)  # completion at the horizon
def test_one_draw_kernels_match_event_loop(kernel, event_loop, gaps, tail):
    # (gap to the previous arrival, service draw) per arrival
    t = np.cumsum([g for g, _ in gaps], dtype=float)
    draws = [d for _, d in gaps]
    horizon = float(t[-1] if gaps else 0.0) + tail + (0.0 if gaps else 1.0)
    expected = event_loop(t.tolist(), draws, horizon)
    assert_kernel_matches(kernel, t, draws, horizon, expected)


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
    """Reference for the source split: one global time sort of every delivery,
    then one boolean mask per source."""
    config = params.config
    m, n, seed, horizon = config.sources, config.servers, params.seed, params.horizon
    warmup = 0.01 * horizon
    engine = _ENGINES[config.discipline]
    dt, dg, ds = [], [], []
    for j in range(n):
        times = [
            _poisson_times(_stream(seed, i * n + j), config.arrival_rates[i][j], horizon)
            for i in range(m)
        ]
        t = np.concatenate(times)
        s = np.repeat(np.arange(m), [x.size for x in times])
        order = np.argsort(t, kind="stable")
        t, s = t[order], s[order]
        d, who = engine(t, _stream(seed, m * n + j), config.service_rates[j], horizon)
        dt.append(d)
        dg.append(t[who])
        ds.append(s[who])
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
def test_source_split_matches_mask_reference(config):
    params = SimParams(config, 3000.0, seed=5)
    result = simulate(params)
    expected = mask_split_simulate(params)
    assert result.aoi == tuple(a for a, _, _, _ in expected)
    assert result.ci_half_width == tuple(c for _, c, _, _ in expected)
    assert result.deliveries == sum(nd for _, _, nd, _ in expected)
    assert result.useful_deliveries == sum(nu for _, _, _, nu in expected)
