"""Generic chain-plus-ages solver: linear algebra, ergodicity gates, known solutions."""
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aoinet import builders, shs
from aoinet.analytic import aoi_hetero_n3
from aoinet.builders import (
    build_heterogeneous_single_source,
    build_multi_source_homogeneous,
    build_single_source_homogeneous,
)
from aoinet.shs import (
    NegativeSolutionError,
    NonErgodicError,
    ShsModel,
    ShsPlan,
    _age_terms,
    _stack,
    _strongly_connected,
    age_residual,
    balance_residual,
    solve_age,
    stationary_distribution,
)


def two_state_cycle(r01=1.0, r10=2.0):
    return ShsModel(2, 2, [0, 1], [1, 0], [r01, r10], [[0, 1], [0, 1]], np.ones((2, 2)))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    st.integers(1, 8).flatmap(
        lambda d: st.tuples(
            st.lists(st.integers(-1, d - 1), min_size=d, max_size=d),
            st.lists(st.floats(-1e6, 1e6), min_size=d, max_size=d),
        )
    )
)
def test_reset_matrix_applies_the_map(case):
    take, x = (np.array(a) for a in case)
    t = ShsModel(1, take.size, [0], [0], [1.0], [take], np.ones((1, take.size))).transitions[0]
    assert np.array_equal(x @ t.reset, np.where(take >= 0, x[take], 0.0))


def test_model_rejects_out_of_range_state():
    with pytest.raises(ValueError, match="out of range"):
        ShsModel(1, 2, [0], [1], [1.0], [[0, 1]], np.ones((1, 2)))


def test_model_rejects_bad_growth_shape():
    with pytest.raises(ValueError, match="growth"):
        ShsModel(2, 2, [], [], [], np.zeros((0, 2), dtype=int), np.ones((2, 3)))


def test_model_rejects_reset_shape_mismatch():
    with pytest.raises(ValueError, match="shape"):
        ShsModel(1, 3, [0], [0], [1.0], [[0, 1]], np.ones((1, 3)))


def array_model(**change):
    """A two-state model written as arrays, with some of the arrays replaced."""
    arrays = dict(source=[0, 1], target=[1, 0], rate=[1.0, 2.0], take=[[0, 1], [0, -1]])
    arrays.update(change)
    return ShsModel(2, 2, **{k: np.array(v) for k, v in arrays.items()}, growth=np.ones((2, 2)))


@pytest.mark.parametrize(
    "change, message",
    [
        (dict(rate=[1.0, 0.0]), "transition rate must be finite and > 0"),
        (dict(rate=[1.0, np.nan]), "transition rate must be finite and > 0"),
        (dict(take=[[0, 2], [0, 1]]),
         "take must be a (transitions, age_dim) integer array in [-1, age_dim)"),
        (dict(take=[[0, -2], [0, 1]]),
         "take must be a (transitions, age_dim) integer array in [-1, age_dim)"),
        (dict(take=[[0.0, 1.0], [0.0, 1.0]]),
         "take must be a (transitions, age_dim) integer array"),
        (dict(take=[[True, False], [False, True]]),
         "take must be a (transitions, age_dim) integer array"),
        (dict(source=[0, 2]), "transition state index out of range"),
        (dict(target=[-1, 0]), "transition state index out of range"),
        (dict(source=[0.0, 1.0]), "transition state index out of range"),
        (dict(take=[[0, 1, 2], [0, 1, 2]]), "take must have shape (transitions, age_dim)"),
        (dict(rate=[1.0]), "one entry per row of take"),
        (dict(take=[0, 1]), "one entry per row of take"),
        (dict(take=np.zeros((2, 2, 2), dtype=int)), "one entry per row of take"),
    ],
    ids=[
        "zero-rate", "nan-rate", "map-past-end", "map-below-minus-one", "float-map", "bool-map",
        "source-past-end", "negative-target", "float-source", "map-width", "short-rate",
        "flat-take", "3-d-take",
    ],
)
def test_model_validates_its_arrays(change, message):
    # out of range, non-integer (never truncated), or not one map per row
    with pytest.raises(ValueError, match=re.escape(message)):
        array_model(**change)


@pytest.mark.parametrize(
    "num_states, growth, message",
    [(0, np.ones((0, 2)), "num_states and age_dim must be >= 1"),
     (2, [[1, 2], [1, 1]], "growth entries must be 0 or 1")],
    ids=["no-states", "growth-of-2"],
)
def test_model_checks_its_states_and_growth(num_states, growth, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        ShsModel(num_states, 2, [0, 1], [1, 0], [1.0, 2.0], [[0, 1], [0, -1]], growth)


def test_transitions_view_yields_the_packed_records():
    m = array_model(source=[0, 1, 1], target=[1, 0, 1], rate=[1.0, 2.0, 0.5],
                    take=[[0, 1], [0, -1], [-1, 0]])
    assert len(m.transitions) == 3
    for k, t in enumerate(m.transitions):
        assert (t.source, t.target, t.rate) == (m.source[k], m.target[k], m.rate[k])
        assert [type(x) for x in (t.source, t.target, t.rate)] == [int, int, float]
        assert np.array_equal(t.take, m.take[k])


def loop_reference(model):
    """Exit rates, balance matrix, strong connectivity and the age system's
    diagonal and terms, one transition at a time."""
    s = model.num_states
    exit_rates = np.zeros(s)
    for t in model.transitions:
        exit_rates[t.source] += t.rate
    m = np.diag(exit_rates)
    for t in model.transitions:
        m[t.target, t.source] -= t.rate
    fwd = {(t.source, t.target) for t in model.transitions}

    def reaches_all(edges):
        seen, stack = {0}, [0]
        while stack:
            q = stack.pop()
            for a, b in edges:
                if a == q and b not in seen:
                    seen.add(b)
                    stack.append(b)
        return len(seen) == s

    connected = reaches_all(fwd) and reaches_all({(b, a) for a, b in fwd})
    d = model.age_dim
    age_diag, age_terms = np.zeros(s * d), []
    for c in [*range(1, d), 0]:
        for t in model.transitions:
            if t.source == t.target and t.take[c] == c:
                continue  # a self-copy: its term would only cancel its diagonal rate
            age_diag[t.source * d + c] += t.rate
            if t.take[c] >= 0:
                age_terms.append((t.target * d + c, t.source * d + int(t.take[c]), t.rate))
    return exit_rates, m, connected, age_diag, age_terms


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    st.tuples(st.integers(1, 6), st.integers(1, 4)).flatmap(
        lambda sd: st.tuples(
            st.just(sd),
            st.lists(
                st.tuples(
                    st.integers(0, sd[0] - 1),
                    st.integers(0, sd[0] - 1),
                    st.floats(1e-3, 1e3),
                    st.lists(st.integers(-1, sd[1] - 1), min_size=sd[1], max_size=sd[1]),
                ),
                max_size=4 * sd[0],
            ),
        )
    )
)
def test_vectorized_sums_match_the_transition_loop(case):
    # np.bincount and np.subtract.at add in row order, as the loop does, so
    # the results are equal to the bit; age terms come by coordinate in block
    # order, each in transition order
    (s, d), edges = case
    source, target, rate, take = zip(*edges) if edges else ((), (), (), ())
    m = ShsModel(s, d, np.array(source, dtype=int), np.array(target, dtype=int), rate,
                 np.array(take, dtype=int).reshape(-1, d), np.ones((s, d)))
    exit_rates, balance, connected, age_diag, age_terms = loop_reference(m)
    assert m.exit_rates().tobytes() == exit_rates.tobytes()
    place = m.target * s + m.source
    assert _stack(m.exit_rates()[None], place, m.rate)[0].tobytes() == balance.tobytes()
    assert _strongly_connected(m) == connected
    diag, terms, _ = _age_terms(m)
    assert diag.tobytes() == age_diag.tobytes()
    assert list(zip(*(a.tolist() for a in terms))) == age_terms


def test_exit_rates_sum_per_state():
    m = two_state_cycle(0.5, 1.5)
    assert np.allclose(m.exit_rates(), [0.5, 1.5])


def test_stationary_single_state():
    m = ShsModel(1, 2, [0], [0], [3.0], [[0, 1]], np.ones((1, 2)))
    assert np.allclose(stationary_distribution(m), [1.0])


def test_stationary_two_state_cycle():
    pi = stationary_distribution(two_state_cycle(1.0, 2.0))
    # flow balance: pi0 * 1 = pi1 * 2
    assert np.allclose(pi, [2.0 / 3.0, 1.0 / 3.0])
    assert balance_residual(two_state_cycle(1.0, 2.0), pi) < 1e-12


def test_stationary_rejects_reducible_chain():
    m = ShsModel(2, 1, [0, 1], [1, 1], [1.0, 1.0], [[0], [0]], np.ones((2, 1)))
    with pytest.raises(NonErgodicError, match="irreducible"):
        stationary_distribution(m)


def test_balance_residual_is_termwise():
    # opposing flows that cancel to ~0 must not inflate the relative residual
    m = ShsModel(1, 2, [0, 0, 0], [0, 0, 0], [1.3, 0.7, 2.0], [[0, 1]] * 3, np.ones((1, 2)))
    assert balance_residual(m, np.array([1.0])) < 1e-15


def test_age_residual_flags_wrong_solution():
    m = build_single_source_homogeneous(2, 1.0, 1.0)
    pi = stationary_distribution(m)
    sol = solve_age(m)
    assert age_residual(m, pi, sol.v) < 1e-12
    assert age_residual(m, pi, sol.v + 0.1) > 1e-3


def count_term_builds(monkeypatch):
    """The models whose age terms are built (`_age_index`), in order."""
    calls = []

    def counting(model):
        calls.append(model)
        return real(model)

    real = shs._age_index
    monkeypatch.setattr(shs, "_age_index", counting)
    return calls


def test_solve_age_flattens_the_resets_once(monkeypatch):
    # one term build per plan: the age system is assembled and checked from
    # one set of copy terms. Distinct-server models of one n share their
    # builder's plan, so two solves build the terms once; a hand-made model
    # is planned on every solve
    builders._orderings.cache_clear()
    calls = count_term_builds(monkeypatch)
    for lams in ([0.5, 1.0, 1.5], [2.0, 0.7, 1.1]):
        solve_age(build_heterogeneous_single_source(lams, [1.0, 2.0, 3.0]))
    assert len(calls) == 1
    model = build_single_source_homogeneous(3, 1.0, 1.0)
    solve_age(model)
    solve_age(model)
    assert len(calls) == 3


def count_plans(monkeypatch):
    """The models planned (`ShsPlan.__init__`), in order."""
    calls = []

    def counting(self, model):
        calls.append(model)
        real(self, model)

    real = ShsPlan.__init__
    monkeypatch.setattr(ShsPlan, "__init__", counting)
    return calls


def test_each_solve_plans_at_most_once(monkeypatch):
    # one plan serves the balance and the age system: a hand-made model is
    # planned once per solve, and a builder's cached n never again
    builders._orderings.cache_clear()
    calls = count_plans(monkeypatch)
    model = build_single_source_homogeneous(3, 1.0, 1.0)
    solve_age(model)
    assert calls == [model]
    solve_age(model)
    assert len(calls) == 2
    solve_age(build_heterogeneous_single_source([0.5, 1.0, 1.5], [1.0, 2.0, 3.0]))
    assert len(calls) == 3
    solve_age(build_heterogeneous_single_source([2.0, 0.7, 1.1], [3.0, 1.0, 0.4]))
    assert len(calls) == 3


def test_a_plan_that_does_not_fit_is_not_used():
    # another chain of as many states, and the same chain in other arrays
    model = two_state_cycle(1.0, 2.0)
    other = build_heterogeneous_single_source([0.5, 1.0], [1.0, 2.0])
    assert other.num_states == model.num_states
    pi = stationary_distribution(model)
    for plan in (other._plan, ShsPlan(hand_made_copy(model))):
        assert not plan.fits(model)
        assert stationary_distribution(model, plan=plan).tobytes() == pi.tobytes()
    own = stationary_distribution(other, plan=other._plan)
    assert own.tobytes() == stationary_distribution(other).tobytes()


def dense_age(model):
    """The expected ages from the whole age system as one dense solve."""
    pi = stationary_distribution(model)
    diag, (eq, unknown, rate), _ = _age_terms(model)
    m = np.diag(diag)
    np.subtract.at(m, (eq, unknown), rate)
    flat = np.linalg.solve(m, (model.growth * pi[:, None]).ravel())
    v = np.maximum(flat, 0.0).reshape(model.num_states, model.age_dim)
    return v, float(v[:, 0].sum())


def age_blocks(model):
    """(first term, end term, coordinates) of each block `solve_age` solves."""
    return _age_terms(model)[2]


_RATE = st.floats(0.1, 10.0)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(
    st.one_of(
        st.integers(2, 5).flatmap(
            lambda n: st.lists(st.tuples(_RATE, _RATE), min_size=n, max_size=n)
        ).map(lambda pairs: build_heterogeneous_single_source(*zip(*pairs))),
        st.builds(build_single_source_homogeneous, st.integers(1, 300), _RATE, _RATE),
        st.builds(
            build_multi_source_homogeneous,
            st.integers(1, 150),
            st.just(0),
            st.lists(_RATE, min_size=2, max_size=3),
            _RATE,
        ),
    )
)
def test_block_solve_matches_the_dense_solve(model):
    # distinct servers take one block per coordinate from n = 5, one source
    # on exchangeable servers one block per 128 coordinates, and shared
    # servers one block, which is the dense solve to the bit
    v, aoi = dense_age(model)
    sol = solve_age(model)
    assert np.max(np.abs(sol.v - v) / v) < 1e-12
    assert abs(sol.aoi - aoi) < 1e-12 * aoi
    if len(age_blocks(model)) == 1:
        assert sol.v.tobytes() == v.tobytes()
        assert repr(sol.aoi) == repr(aoi)


def test_blocks_follow_the_coordinates_read():
    # a distinct-server coordinate reads only fresher ones: one block each
    distinct = build_heterogeneous_single_source([0.5, 1.0, 1.5, 2.0, 2.5], [1.0] * 5)
    blocks = age_blocks(distinct)
    assert [c.tolist() for _, _, c in blocks] == [[1], [2], [3], [4], [5], [0]]
    bounds = [(lo, hi) for lo, hi, _ in blocks]
    assert bounds[0][0] == 0 and bounds[-1][1] == _age_terms(distinct)[1][0].size
    assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))
    # another source's displacement reads a staler coordinate: one block
    shared = build_multi_source_homogeneous(200, 0, [0.5, 0.7], 1.0)
    assert len(age_blocks(shared)) == 1
    for model in (distinct, shared):
        v, aoi = dense_age(model)
        assert np.max(np.abs(solve_age(model).v - v) / v) < 1e-12


def hand_made_copy(model):
    """The same chain in fresh, writeable arrays, which has no plan to reuse."""
    return ShsModel(model.num_states, model.age_dim, model.source.copy(), model.target.copy(),
                    model.rate.copy(), model.take.copy(), model.growth.copy())


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda n: st.lists(st.tuples(_RATE, _RATE), min_size=n, max_size=n)))
def test_planned_solve_equals_the_solve_planned_on_the_spot(pairs):
    planned = build_heterogeneous_single_source(*zip(*pairs))
    copy = hand_made_copy(planned)
    assert copy._plan is None and copy.take.flags.writeable
    sol, own = solve_age(planned), solve_age(copy)
    assert sol.v.tobytes() == own.v.tobytes() and sol.pi.tobytes() == own.pi.tobytes()
    assert repr(sol.aoi) == repr(own.aoi)
    v, aoi = dense_age(copy)
    assert np.max(np.abs(sol.v - v) / v) < 1e-12
    assert abs(sol.aoi - aoi) < 1e-12 * aoi


def test_builds_of_one_n_share_one_read_only_plan():
    a = build_heterogeneous_single_source([0.5, 1.0, 1.5], [1.0, 2.0, 3.0])
    b = build_heterogeneous_single_source([2.0, 0.7, 1.1], [3.0, 1.0, 0.4])
    assert a._plan is not None and a._plan is b._plan
    assert a.take is b.take and a.rate is not b.rate
    assert build_heterogeneous_single_source([1.0] * 4, [1.0] * 4)._plan is not a._plan
    for array in (a.source, a.target, a.take, a.growth):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


def test_model_with_replaced_arrays_is_planned_anew(monkeypatch):
    model = build_heterogeneous_single_source([0.5, 1.0, 1.5], [1.0, 2.0, 3.0])
    expected = solve_age(model)
    calls = count_term_builds(monkeypatch)
    solve_age(model)
    assert calls == []
    # the same maps in a new array; then a map the plan never saw: state 0's
    # first delivery (row 3) also resets the freshest server's age
    model.take = model.take.copy()
    assert solve_age(model).v.tobytes() == expected.v.tobytes()
    assert len(calls) == 1
    model.take[3, 1] = -1
    changed = solve_age(model)
    assert len(calls) == 2
    own = solve_age(hand_made_copy(model))
    assert changed.v.tobytes() == own.v.tobytes()
    assert changed.aoi != expected.aoi


def record_age_solves(monkeypatch):
    """The shape of each age system that solve_age hands to `_solve`, in order.

    Every system is a stack: k groups of g unknowns are (k, g, g), and a
    block of one group, or a system of one block, is a stack of one.
    """
    shapes = []

    def recording(m, rhs, system):
        if system == "age":
            shapes.append(m.shape)
        return real(m, rhs, system)

    real = shs._solve
    monkeypatch.setattr(shs, "_solve", recording)
    return shapes


def test_blocks_split_into_independent_groups(monkeypatch):
    # server coordinate c's equations couple two orderings only when they
    # hold the same servers at ranks c - 1 and staler: groups of (c - 1)!,
    # that is group counts 120, 120, 60, 20, 5 and 1 in block order
    distinct = build_heterogeneous_single_source([0.5, 1.0, 1.5, 2.0, 2.5], [1.0] * 5)
    shapes = record_age_solves(monkeypatch)
    solve_age(distinct)
    assert shapes == [(120, 1, 1), (120, 1, 1), (60, 2, 2), (20, 6, 6), (5, 24, 24), (1, 120, 120)]


def cycle_model(s, take, rate):
    """s states on the cycle q -> q + 1, transition q at rate[q] with reset map take[q]."""
    state = np.arange(s)
    take = np.asarray(take, dtype=np.intp)
    return ShsModel(s, take.shape[1], state, (state + 1) % s, rate, take, np.ones(take.shape))


def test_groups_of_unequal_sizes_match_the_dense_solve(monkeypatch):
    # coordinate 2 is copied along the cycle's moves 1, 3 and 4 of every 6
    # and read from coordinate 1 on the others: groups of 1, 2 and 3 states
    s = 132
    q = np.arange(s)
    take = np.column_stack(
        [
            np.where(q % 3 == 2, 2, 0),
            np.where(q % 2 == 0, 1, -1),
            np.where(np.isin(q % 6, [1, 3, 4]), 2, 1),
        ]
    )
    model = cycle_model(s, take, 1.0 + 0.25 * (q % 5))
    shapes = record_age_solves(monkeypatch)
    sol = solve_age(model)
    assert [c.tolist() for _, _, c in age_blocks(model)] == [[1], [2], [0]]
    assert shapes == [(66, 2, 2), (22, 1, 1), (22, 2, 2), (22, 3, 3), (44, 3, 3)]
    v, aoi = dense_age(model)
    assert np.max(np.abs(sol.v - v) / v) < 1e-12
    assert abs(sol.aoi - aoi) < 1e-12 * aoi


def test_singular_group_in_a_stacked_solve_is_non_ergodic(monkeypatch):
    # 50 states take coordinates 1 and 2 as one block; coordinate 1 never
    # resets, so its group is singular, and coordinate 2's group of the same
    # size is solved in the same stack
    s = 50
    q = np.arange(s)
    take = np.column_stack(
        [np.where(q % 2 == 0, 2, 0), np.full(s, 1), np.where(q == 0, -1, 2), np.full(s, -1)]
    )
    model = cycle_model(s, take, np.ones(s))
    assert [c.tolist() for _, _, c in age_blocks(model)] == [[1, 2], [3, 0]]
    shapes = record_age_solves(monkeypatch)
    with pytest.raises(NonErgodicError, match="age system singular"):
        solve_age(model)
    assert shapes == [(2, 50, 50)]


def test_singular_later_block_is_non_ergodic():
    # a 130-state cycle: coordinate 1 resets on every move and is solvable,
    # but coordinate 0 never resets, so the second block is singular
    s = 130
    state = np.arange(s)
    m = ShsModel(
        s, 2, state, (state + 1) % s, np.ones(s), np.tile([0, -1], (s, 1)), np.ones((s, 2))
    )
    assert [c.tolist() for _, _, c in age_blocks(m)] == [[1], [0]]
    with pytest.raises(NonErgodicError, match="age system singular"):
        solve_age(m)


def test_later_block_without_links_is_solved():
    # the same cycle with coordinate 0 copied from coordinate 1: neither
    # block has a term between its own unknowns, so every group is one state
    s = 130
    state = np.arange(s)
    m = ShsModel(
        s, 2, state, (state + 1) % s, np.ones(s), np.tile([1, -1], (s, 1)), np.ones((s, 2))
    )
    assert [c.tolist() for _, _, c in age_blocks(m)] == [[1], [0]]
    assert abs(solve_age(m).aoi - 2.0) < 1e-12 * 2.0


def test_one_block_is_planned_without_groups_or_sorts(monkeypatch):
    # a system of one block is one group in index order: planning it needs
    # neither the group search nor a sort; with both, the exact_small
    # benchmark ran a fifth slower
    calls = []

    def counting(name, real):
        return lambda *args, **kwargs: calls.append(name) or real(*args, **kwargs)

    monkeypatch.setattr(shs, "_groups", counting("_groups", shs._groups))
    monkeypatch.setattr(np, "lexsort", counting("lexsort", np.lexsort))
    shapes = record_age_solves(monkeypatch)
    shared = build_multi_source_homogeneous(4, 0, [0.5, 0.7], 1.0)
    exchangeable = build_single_source_homogeneous(5, 0.8, 1.3)
    for model in (shared, exchangeable):
        assert len(age_blocks(model)) == 1
        solve_age(model)
    assert calls == []
    assert shapes == [(1, m.num_states * m.age_dim, m.num_states * m.age_dim)
                      for m in (shared, exchangeable)]
    # a chain of several blocks takes both
    solve_age(build_single_source_homogeneous(200, 0.8, 1.3))
    assert calls == ["_groups", "lexsort"]


def test_infinite_exit_rate_is_non_ergodic():
    # two arrival rates near the float maximum sum to an infinite exit rate
    with pytest.raises(NonErgodicError, match="exit rate inf is not finite"):
        stationary_distribution(build_single_source_homogeneous(2, 1e308, 1.0))


@pytest.mark.parametrize(
    "failing_call, word", [(1, "balance residual nan"), (2, "age system residual nan")]
)
def test_nan_residual_fails_the_check(monkeypatch, failing_call, word):
    calls = []

    def residual(*args):
        calls.append(None)
        return float("nan") if len(calls) == failing_call else 0.0

    monkeypatch.setattr(shs, "_residual", residual)
    with pytest.raises(NonErgodicError, match=word):
        solve_age(build_single_source_homogeneous(2, 1.0, 1.0))


def test_solve_age_known_value():
    model = build_single_source_homogeneous(2, 1.0, 1.0)
    sol = solve_age(model)
    assert sol.aoi == pytest.approx(1.25, rel=1e-12)
    assert np.allclose(sol.pi, [1.0])
    assert sol.v.min() >= 0.0


def test_solve_age_single_server():
    sol = solve_age(build_single_source_homogeneous(1, 2.0, 0.5))
    assert sol.aoi == pytest.approx(1 / 2.0 + 1 / 0.5, rel=1e-12)


def test_freshest_coordinate_identity():
    # the expected age of the freshest in-flight update is 1/(n * lam)
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        lam = float(rng.uniform(0.1, 3.0))
        mu = float(rng.uniform(0.1, 3.0))
        sol = solve_age(build_single_source_homogeneous(n, lam, mu))
        assert sol.v[0, 1] == pytest.approx(1.0 / (n * lam), rel=1e-10)


def test_successive_difference_recursion():
    # w_{i+1} = lam (n-i+1) / (i mu + (n-i) lam) * w_i for the slot ages
    n, lam, mu = 5, 0.8, 1.3
    v = solve_age(build_single_source_homogeneous(n, lam, mu)).v[0]
    w = [v[1]] + [v[i + 1] - v[i] for i in range(1, n)]
    for i in range(1, n):
        expect = lam * (n - i + 1) / (i * mu + (n - i) * lam) * w[i - 1]
        assert w[i] == pytest.approx(expect, rel=1e-9)


def test_rate_scaling_inverts_age():
    for k in (0.25, 4.0):
        base = solve_age(build_single_source_homogeneous(3, 0.7, 1.1)).aoi
        scaled = solve_age(build_single_source_homogeneous(3, 0.7 * k, 1.1 * k)).aoi
        assert scaled == pytest.approx(base / k, rel=1e-10)


def count_chain_age(n, lam_i, lam_o, mu):
    """Source i's age on n exchangeable servers by the (n + 1)-state count chain.

    k servers hold an update of source i newer than the time looked back to;
    k moves up at (n - k) lam_i, down at k lam_o, and ends at k mu. The mean
    time to the end from k, T(k), solves a tridiagonal system, and the age is
    T(0). Each eliminated row keeps its slack (pivot less the up rate) as the
    sum of positive terms k mu + (k lam_o / pivot_{k-1}) slack_{k-1}, so
    nothing cancels; the sums are taken in long double.
    """
    lam_i, lam_o, mu = (np.longdouble(x) for x in (lam_i, lam_o, mu))
    slack, pivot, rhs = np.longdouble(0), [n * lam_i], [np.longdouble(1)]
    for k in range(1, n + 1):
        down = k * lam_o / pivot[-1]
        slack = k * mu + down * slack
        rhs.append(1 + down * rhs[-1])
        pivot.append((n - k) * lam_i + slack)
    t = np.longdouble(0)
    for k in range(n, -1, -1):
        t = (rhs[k] + (n - k) * lam_i * t) / pivot[k]
    return t


@pytest.mark.parametrize("n", [50, 300, 1000, 2000])
@pytest.mark.parametrize("rates", [[0.5], [0.5, 1.0]], ids=["one-source", "two-sources"])
def test_exchangeable_chain_matches_the_count_chain(n, rates):
    # every transition of this chain is a self-loop; solved with its
    # self-copies on the diagonal, two sources were 4.5e-10 off at n = 2000
    rates = [r / n for r in rates]
    aoi = solve_age(build_multi_source_homogeneous(n, 0, rates, 1.0)).aoi
    ref = count_chain_age(n, rates[0], sum(rates[1:]), 1.0)
    assert abs(aoi - ref) < 1e-13 * ref


@pytest.mark.parametrize("scale", [1e4, 1e5])
def test_large_service_rates_lose_no_digits(scale):
    # deliveries are self-loops; solved with their self-copies on the
    # diagonal, the chain was 8.8e-13 off at 1e4
    lams, mus = [1.0, 1.1, 1.2], [scale, 2 * scale, 3 * scale]
    aoi = solve_age(build_heterogeneous_single_source(lams, mus)).aoi
    assert abs(aoi - aoi_hetero_n3(lams, mus)) <= 1e-15 * aoi_hetero_n3(lams, mus)


def test_solve_age_singular_age_system():
    # self-loop that preserves the growing coordinate: no finite expectation
    m = ShsModel(1, 1, [0], [0], [1.0], [[0]], np.ones((1, 1)))
    with pytest.raises(NonErgodicError, match="age system singular"):
        solve_age(m)


def test_solve_age_non_finite_solution():
    # a subnormal reset rate is not exactly singular, but its age overflows
    m = ShsModel(1, 1, [0], [0], [1e-320], [[-1]], np.ones((1, 1)))
    with pytest.raises(NonErgodicError, match="not finite"):
        solve_age(m)


def test_tiny_rates_leave_negative_stationary_mass():
    # with rates from 1e-116 to 1e-32, state 2's mass of about 1e-16 comes out
    # of the solve as -1.5e-9
    m = ShsModel(3, 1, [2, 0, 0, 1], [0, 2, 1, 0], [1e-39, 1e-32, 1e-93, 1e-116],
                 [[-1]] * 4, np.ones((3, 1)))
    with pytest.raises(NonErgodicError, match="stationary distribution has negative mass"):
        stationary_distribution(m)


def test_nearly_singular_age_system_is_materially_negative():
    # no transition resets a coordinate to 0, so the ages are unbounded, but
    # rounding leaves the 3 x 3 system solvable
    m = ShsModel(1, 3, [0, 0, 0], [0, 0, 0], [1000.0, 0.001, 1000.0],
                 [[0, 0, 0], [1, 2, 1], [0, 1, 0]], [[0.0, 1.0, 1.0]])
    with pytest.raises(NegativeSolutionError, match="materially negative"):
        solve_age(m)


def test_a_monitor_age_that_never_grows_is_refused():
    m = ShsModel(1, 1, [0], [0], [1.0], [[-1]], np.zeros((1, 1)))
    with pytest.raises(NonErgodicError, match=r"^average age 0\.0 is not finite and > 0$"):
        solve_age(m)


def test_error_hierarchy():
    assert issubclass(NonErgodicError, RuntimeError)
    assert issubclass(NegativeSolutionError, RuntimeError)
