"""Model builders checked against hand-written resets and balance identities."""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aoinet.analytic import aoi_lcfs_homogeneous
from aoinet.builders import (
    build_heterogeneous_single_source,
    build_multi_source_homogeneous,
    build_single_source_homogeneous,
)
from aoinet.shs import ShsModel, solve_age, stationary_distribution

_RATE = st.floats(0.1, 10.0)


def transition_key(t):
    return (round(t.rate, 12), t.source, t.target, tuple(t.take.tolist()))


def test_single_source_shape():
    for n in range(1, 6):
        m = build_single_source_homogeneous(n, 0.7, 1.3)
        assert m.num_states == 1
        assert m.age_dim == n + 1
        assert len(m.transitions) == 2 * n
        assert np.all(m.growth == 1.0)


def test_single_source_one_server_value():
    # age renews at rate mu after waiting 1/lam for a fresh update
    sol = solve_age(build_single_source_homogeneous(1, 0.4, 2.5))
    assert sol.aoi == pytest.approx(1 / 0.4 + 1 / 2.5, rel=1e-12)


def test_single_source_two_server_resets():
    lam, mu = 0.3, 1.7
    m = build_single_source_homogeneous(2, lam, mu)
    arrivals = [t for t in m.transitions if t.rate == lam]
    deliveries = [t for t in m.transitions if t.rate == mu]
    assert len(arrivals) == 2 and len(deliveries) == 2
    # fresh update displacing the freshest in-flight copy, then the stalest
    assert np.array_equal(arrivals[0].take, [0, -1, 2])
    assert np.array_equal(arrivals[1].take, [0, -1, 1])
    # delivery of the freshest copy, then of the stalest
    assert np.array_equal(deliveries[0].take, [1, 1, 1])
    assert np.array_equal(deliveries[1].take, [2, 1, 2])


def test_single_source_rejects_bad_args():
    with pytest.raises(ValueError, match="positive integer"):
        build_single_source_homogeneous(0, 1.0, 1.0)
    with pytest.raises(ValueError, match="lam"):
        build_single_source_homogeneous(2, 0.0, 1.0)
    with pytest.raises(ValueError, match="mu"):
        build_single_source_homogeneous(2, 1.0, float("inf"))


def test_multi_source_single_source_reduction():
    # with one source the two builders must emit identical transition sets
    for n in (1, 2, 4):
        a = build_single_source_homogeneous(n, 0.9, 1.2)
        b = build_multi_source_homogeneous(n, 0, [0.9], 1.2)
        assert sorted(map(transition_key, a.transitions)) == sorted(
            map(transition_key, b.transitions)
        )


def test_multi_source_zero_others_reduction():
    # sources with zero rate contribute nothing, not even displacement moves
    a = build_multi_source_homogeneous(2, 1, [0.0, 0.8, 0.0], 1.0)
    b = build_single_source_homogeneous(2, 0.8, 1.0)
    assert sorted(map(transition_key, a.transitions)) == sorted(
        map(transition_key, b.transitions)
    )


def test_multi_source_transition_count():
    m = build_multi_source_homogeneous(3, 0, [0.5, 0.7], 1.0)
    # n own arrivals + n displacements + n deliveries, all self-loops
    assert len(m.transitions) == 9
    assert all(t.source == t.target == 0 for t in m.transitions)


def test_multi_source_displacement_reset():
    m = build_multi_source_homogeneous(2, 0, [0.5, 0.7], 1.0)
    disp = [t for t in m.transitions if t.rate == pytest.approx(0.7)]
    assert len(disp) == 2
    # other-source update bumps the occupant of the slot; a copy that would
    # only re-deliver the monitor's current age appears as the stalest entry
    assert np.array_equal(disp[0].take, [0, 2, 0])
    assert np.array_equal(disp[1].take, [0, 1, 0])


def _arrival_take(d, slot):
    """Fresh update enters as the new slot-th freshest age (slot >= 1).

    The monitor keeps its age, fresher coordinates shift down one slot, the
    previous occupant of `slot` is dropped, staler coordinates are untouched.
    """
    return np.r_[0, -1, 1:slot, slot + 1 : d]


def _displacement_take(d, slot):
    """Another source's update drops the occupant of `slot`.

    Staler slots move one slot fresher, and the displaced server's
    monitor-age content is appended as the stalest coordinate.
    """
    return np.r_[0:slot, slot + 1 : d, 0]


def _delivery_take(d, k):
    """The k-th freshest update reaches the monitor.

    The monitor takes age x_k; coordinates k..n all take x_k (synthetic
    refresh of the stale servers); fresher coordinates are untouched.
    """
    return np.r_[k, 1:k, [k] * (d - k)]


def exchangeable_oracle(n, tracked, rates, mu):
    """The exchangeable-server chain written one reset map per slot.

    Kept as the reference for the array builder: the same rows in the same
    order (n arrivals, n displacements when other sources send, n deliveries).
    """
    lam_i = rates[tracked]
    lam_bar = sum(r for i, r in enumerate(rates) if i != tracked)
    d = n + 1
    slots = range(1, n + 1)
    rate = [lam_i] * n
    take = [_arrival_take(d, slot) for slot in slots]
    if lam_bar > 0:
        rate += [lam_bar] * n
        take += [_displacement_take(d, slot) for slot in slots]
    rate += [mu] * n
    take += [_delivery_take(d, k) for k in slots]
    state = np.zeros(len(rate), dtype=np.intp)
    return ShsModel(1, d, state, state, np.array(rate), np.array(take), np.ones((1, d)))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    st.integers(1, 64),
    st.lists(st.one_of(st.just(0.0), _RATE), max_size=3).flatmap(
        lambda others: st.tuples(st.just(others), st.integers(0, len(others)))
    ),
    _RATE,
    _RATE,
)
def test_exchangeable_matches_the_per_slot_oracle(n, case, lam, mu):
    # other sources' rates are zero or positive; the tracked one is inserted
    # at any index
    others, tracked = case
    rates = others[:tracked] + [lam] + others[tracked:]
    got = build_multi_source_homogeneous(n, tracked, rates, mu)
    want = exchangeable_oracle(n, tracked, rates, mu)
    assert (got.num_states, got.age_dim) == (want.num_states, want.age_dim)
    for field in ("source", "target", "rate", "take"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and np.array_equal(a, b), field
    if n <= 8:
        assert repr(solve_age(got).aoi) == repr(solve_age(want).aoi)


def reduced_age_equations(n, lam_i, lam_bar, mu, v):
    """Residuals of the freshness-slot balance equations for one tracked source.

    v has length n+2: monitor expectation v[0], slot expectations v[1..n],
    and v[n+1] aliases v[0] because a displaced stalest slot carries
    monitor-age content.
    """
    lam = lam_i + lam_bar
    vv = list(v) + [v[0]]
    eqs = [n * mu * vv[0] - 1.0 - mu * sum(vv[1 : n + 1])]
    eqs.append(vv[1] * (lam_bar + n * lam_i) - 1.0 - lam_bar * vv[2])
    for i in range(2, n + 1):
        rhs = (
            1.0
            + (i - 1) * lam_i * vv[i]
            + (n - i + 1) * lam_i * vv[i - 1]
            + i * lam_bar * vv[i + 1]
            + (n - i) * lam_bar * vv[i]
            + mu * sum(vv[1:i])
            + (n - i + 1) * mu * vv[i]
        )
        eqs.append(n * (lam + mu) * vv[i] - rhs)
    return eqs


def test_multi_source_balance_equations():
    # the solved ages must satisfy the slot equations assembled independently
    rng = np.random.default_rng(23)
    for n in range(2, 7):
        for _ in range(4):
            lam_i = float(rng.uniform(0.1, 2.0))
            lam_bar = float(rng.uniform(0.0, 2.0))
            mu = float(rng.uniform(0.2, 2.0))
            m = build_multi_source_homogeneous(n, 0, [lam_i, lam_bar], mu)
            v = solve_age(m).v[0]
            for resid in reduced_age_equations(n, lam_i, lam_bar, mu, v):
                assert abs(resid) < 1e-10


def test_multi_source_validation():
    with pytest.raises(ValueError, match="tracked"):
        build_multi_source_homogeneous(2, 2, [0.5, 0.5], 1.0)
    with pytest.raises(ValueError, match="tracked source rate"):
        build_multi_source_homogeneous(2, 0, [0.0, 0.5], 1.0)
    with pytest.raises(ValueError, match=">= 0"):
        build_multi_source_homogeneous(2, 0, [0.5, -0.1], 1.0)
    # with no rates, no index is in range
    with pytest.raises(ValueError, match="tracked"):
        build_multi_source_homogeneous(2, 0, [], 1.0)


def test_hetero_two_server_transitions():
    lam1, lam2, mu1, mu2 = 0.3, 0.7, 1.1, 1.9
    m = build_heterogeneous_single_source([lam1, lam2], [mu1, mu2])
    assert m.num_states == 2
    assert len(m.transitions) == 8
    expected = [
        # arrivals renew a server and move it to the freshest rank; the maps
        # act on ranks, so they depend on the server's rank, not its label
        (lam1, 0, 0, (0, -1, 2)),
        (lam1, 1, 0, (0, -1, 1)),
        (lam2, 0, 1, (0, -1, 1)),
        (lam2, 1, 1, (0, -1, 2)),
        # deliveries refresh the monitor and every rank at or below the sender
        (mu1, 0, 0, (1, 1, 1)),
        (mu1, 1, 1, (2, 1, 2)),
        (mu2, 0, 0, (2, 1, 2)),
        (mu2, 1, 1, (1, 1, 1)),
    ]
    got = sorted(map(transition_key, m.transitions))
    assert got == sorted((round(r, 12), s, t, take) for r, s, t, take in expected)


def test_hetero_two_server_age_identities():
    lam1, lam2, mu1, mu2 = 0.6, 1.4, 0.9, 2.2
    m = build_heterogeneous_single_source([lam1, lam2], [mu1, mu2])
    total = lam1 + lam2
    pi = stationary_distribution(m)
    assert pi[0] == pytest.approx(lam1 / total, rel=1e-12)
    assert pi[1] == pytest.approx(lam2 / total, rel=1e-12)
    v = solve_age(m).v
    # coordinate 1 is the freshest rank, held by the lam1 server in state 0
    # and the lam2 server in state 1; it has been idle-free since its last
    # arrival
    assert v[0, 1] == pytest.approx(pi[0] / total, rel=1e-10)
    assert v[1, 1] == pytest.approx(pi[1] / total, rel=1e-10)
    # a server at the stale rank additionally waits out the other's activity
    assert v[0, 2] == pytest.approx(
        pi[0] * (1 / total + 1 / (lam2 + mu1)), rel=1e-10
    )
    assert v[1, 2] == pytest.approx(
        pi[1] * (1 / total + 1 / (lam1 + mu2)), rel=1e-10
    )


def test_hetero_three_server_shape_and_pi():
    lams = [0.5, 1.0, 1.5]
    mus = [1.0, 2.0, 0.7]
    m = build_heterogeneous_single_source(lams, mus)
    assert m.num_states == 6
    assert len(m.transitions) == 36
    l1, l2, l3 = lams
    total = sum(lams)
    pi = stationary_distribution(m)
    # renewal orderings: each rank holds a server in proportion to its
    # arrival rate among the servers at that rank or staler
    want = [
        l1 * l2 / ((l2 + l3) * total),
        l1 * l3 / ((l2 + l3) * total),
        l2 * l1 / ((l1 + l3) * total),
        l2 * l3 / ((l1 + l3) * total),
        l3 * l1 / ((l1 + l2) * total),
        l3 * l2 / ((l1 + l2) * total),
    ]
    assert np.allclose(pi, want, rtol=1e-12)


def test_hetero_three_server_fresh_rank_ages():
    lams = [0.8, 1.1, 0.4]
    mus = [1.3, 0.9, 1.6]
    m = build_heterogeneous_single_source(lams, mus)
    total = sum(lams)
    pi = stationary_distribution(m)
    v = solve_age(m).v
    # freshest-rank server in each ordering, always coordinate 1: age
    # expectation pi_q / total
    for q in range(6):
        assert v[q, 1] == pytest.approx(pi[q] / total, rel=1e-10)


def test_hetero_service_transitions_are_self_loops():
    lams = [0.5, 1.0, 1.5]
    mus = [1.9, 2.3, 0.7]
    m = build_heterogeneous_single_source(lams, mus)
    for t in m.transitions:
        if round(t.rate, 12) in {round(x, 12) for x in mus}:
            assert t.source == t.target


def test_hetero_symmetric_matches_homogeneous():
    for n in (1, 2, 3):
        het = solve_age(build_heterogeneous_single_source([0.8] * n, [1.3] * n)).aoi
        hom = solve_age(build_single_source_homogeneous(n, 0.8, 1.3)).aoi
        assert het == pytest.approx(hom, rel=1e-10)


def test_hetero_at_the_server_cap():
    # n = 6: 720 orderings, 5040 age unknowns, the largest chain the builder allows
    lam, mu = 0.8, 1.3
    het = solve_age(build_heterogeneous_single_source([lam] * 6, [mu] * 6)).aoi
    assert het == pytest.approx(aoi_lcfs_homogeneous(6, lam, mu), rel=1e-9)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            st.lists(st.tuples(_RATE, _RATE), min_size=n, max_size=n),
            st.permutations(range(n)),
        )
    )
)
def test_hetero_relabeling_invariance(case):
    # permuting the (lambda_j, mu_j) pairs only renumbers the servers
    pairs, perm = case
    base = solve_age(build_heterogeneous_single_source(*zip(*pairs))).aoi
    shuffled = [pairs[i] for i in perm]
    relabeled = solve_age(build_heterogeneous_single_source(*zip(*shuffled))).aoi
    assert relabeled == pytest.approx(base, rel=1e-12)


def test_hetero_rate_scaling():
    lams = [0.5, 1.0]
    mus = [1.0, 2.0]
    base = solve_age(build_heterogeneous_single_source(lams, mus)).aoi
    k = 3.0
    scaled = solve_age(
        build_heterogeneous_single_source([k * x for x in lams], [k * x for x in mus])
    ).aoi
    assert scaled == pytest.approx(base / k, rel=1e-10)


def test_hetero_validation():
    with pytest.raises(ValueError, match="equal length"):
        build_heterogeneous_single_source([1.0, 2.0], [1.0])
    for n in (7, 9):
        with pytest.raises(ValueError, match="at most 6 servers"):
            build_heterogeneous_single_source([1.0] * n, [1.0] * n)
    with pytest.raises(ValueError, match="arrival_rates\\[1\\]"):
        build_heterogeneous_single_source([1.0, 0.0], [1.0, 1.0])


def test_hetero_needs_a_server():
    with pytest.raises(ValueError, match="^need at least one server$"):
        build_heterogeneous_single_source([], [])


def hetero_oracle(lams, mus):
    """The distinct-server chain written one transition row at a time.

    A plain loop over orderings and servers, kept as the reference for the
    array builder: same states, same transitions, same order. Coordinate
    r + 1 is the age at the server of freshness rank r.
    """
    n = len(lams)
    states = list(itertools.permutations(range(n)))
    index = {p: q for q, p in enumerate(states)}
    d = n + 1
    rows = []
    for q, perm in enumerate(states):
        for j in range(n):
            # server j's age resets to zero at the freshest rank, and the
            # ranks fresher than j's old one move one rank staler
            rank = perm.index(j)
            take = np.arange(d)
            take[1] = -1
            take[2 : rank + 2] = np.arange(1, rank + 1)
            target = index[(j,) + tuple(k for k in perm if k != j)]
            rows.append((q, target, lams[j], take))
        for rank, j in enumerate(perm):
            # the monitor and every rank at or staler than j's take its age
            take = np.arange(d)
            take[0] = rank + 1
            take[rank + 1 :] = rank + 1
            rows.append((q, q, mus[j], take))
    source, target, rate, take = zip(*rows)
    return ShsModel(len(states), d, source, target, rate, take, np.ones((len(states), d)))


@pytest.mark.parametrize("n", range(1, 6))
def test_hetero_matches_the_per_transition_oracle(n):
    rng = np.random.default_rng(100 + n)
    lams = rng.uniform(0.1, 5.0, n).tolist()
    mus = rng.uniform(0.1, 5.0, n).tolist()
    got = build_heterogeneous_single_source(lams, mus)
    want = hetero_oracle(lams, mus)
    assert (got.num_states, got.age_dim) == (want.num_states, want.age_dim)
    # the same rows in the same order, so every sum rounds the same way
    for field in ("source", "target", "rate", "take"):
        assert np.array_equal(getattr(got, field), getattr(want, field)), field
    a, b = solve_age(got), solve_age(want)
    assert a.pi.tobytes() == b.pi.tobytes()
    assert a.v.tobytes() == b.v.tobytes()


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(st.tuples(_RATE, _RATE), min_size=n, max_size=n)
    )
)
def test_hetero_stationary_is_the_product_form(pairs):
    # P(order) = prod_k lam_{j_k} / sum_{r >= k} lam_{j_r}: each rank holds a
    # server in proportion to its arrival rate among the servers not fresher,
    # whatever the service rates
    lams, mus = zip(*pairs)
    pi = stationary_distribution(build_heterogeneous_single_source(lams, mus))
    want = [
        np.prod([lams[j] / sum(lams[i] for i in order[k:]) for k, j in enumerate(order)])
        for order in itertools.permutations(range(len(lams)))
    ]
    assert np.max(np.abs(pi - want)) < 1e-12
