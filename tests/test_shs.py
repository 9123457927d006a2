"""Generic chain-plus-ages solver: linear algebra, ergodicity gates, known solutions."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aoinet.builders import build_single_source_homogeneous
from aoinet.shs import (
    NegativeSolutionError,
    NonErgodicError,
    ShsModel,
    ShsTransition,
    age_residual,
    balance_residual,
    solve_age,
    stationary_distribution,
)


def two_state_cycle(r01=1.0, r10=2.0):
    keep = [0, 1]
    return ShsModel(
        2,
        2,
        (ShsTransition(0, 1, r01, keep), ShsTransition(1, 0, r10, keep)),
        np.ones((2, 2)),
    )


def test_transition_rejects_bad_rate():
    with pytest.raises(ValueError, match="rate"):
        ShsTransition(0, 0, 0.0, [0, 1])
    with pytest.raises(ValueError, match="rate"):
        ShsTransition(0, 0, float("nan"), [0, 1])


@pytest.mark.parametrize(
    "take",
    [[0, 2], [-2, 0], [0.0, 1.0], [0.5, 1], [True, False], np.eye(2, dtype=int)],
    ids=["past-end", "below-minus-one", "float", "fraction", "bool", "matrix"],
)
def test_transition_rejects_bad_map(take):
    # out of range, non-integer (never truncated), or not a 1-D map at all
    with pytest.raises(ValueError, match="reset map"):
        ShsTransition(0, 0, 1.0, take)


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
    t = ShsTransition(0, 0, 1.0, take)
    assert np.array_equal(x @ t.reset, np.where(take >= 0, x[take], 0.0))


def test_model_rejects_out_of_range_state():
    with pytest.raises(ValueError, match="out of range"):
        ShsModel(1, 2, (ShsTransition(0, 1, 1.0, [0, 1]),), np.ones((1, 2)))


def test_model_rejects_bad_growth_shape():
    with pytest.raises(ValueError, match="growth"):
        ShsModel(2, 2, (), np.ones((2, 3)))


def test_model_rejects_reset_shape_mismatch():
    with pytest.raises(ValueError, match="shape"):
        ShsModel(1, 3, (ShsTransition(0, 0, 1.0, [0, 1]),), np.ones((1, 3)))


def test_exit_rates_sum_per_state():
    m = two_state_cycle(0.5, 1.5)
    assert np.allclose(m.exit_rates(), [0.5, 1.5])


def test_stationary_single_state():
    m = ShsModel(1, 2, (ShsTransition(0, 0, 3.0, [0, 1]),), np.ones((1, 2)))
    assert np.allclose(stationary_distribution(m), [1.0])


def test_stationary_two_state_cycle():
    pi = stationary_distribution(two_state_cycle(1.0, 2.0))
    # flow balance: pi0 * 1 = pi1 * 2
    assert np.allclose(pi, [2.0 / 3.0, 1.0 / 3.0])
    assert balance_residual(two_state_cycle(1.0, 2.0), pi) < 1e-12


def test_stationary_rejects_reducible_chain():
    m = ShsModel(
        2,
        1,
        (ShsTransition(0, 1, 1.0, [0]), ShsTransition(1, 1, 1.0, [0])),
        np.ones((2, 1)),
    )
    with pytest.raises(NonErgodicError, match="irreducible"):
        stationary_distribution(m)


def test_balance_residual_is_termwise():
    # opposing flows that cancel to ~0 must not inflate the relative residual
    m = ShsModel(
        1,
        2,
        (
            ShsTransition(0, 0, 1.3, [0, 1]),
            ShsTransition(0, 0, 0.7, [0, 1]),
            ShsTransition(0, 0, 2.0, [0, 1]),
        ),
        np.ones((1, 2)),
    )
    assert balance_residual(m, np.array([1.0])) < 1e-15


def test_age_residual_flags_wrong_solution():
    m = build_single_source_homogeneous(2, 1.0, 1.0)
    pi = stationary_distribution(m)
    sol = solve_age(m)
    assert age_residual(m, pi, sol.v) < 1e-12
    assert age_residual(m, pi, sol.v + 0.1) > 1e-3


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


def test_solve_age_singular_age_system():
    # self-loop that preserves the growing coordinate: no finite expectation
    m = ShsModel(1, 1, (ShsTransition(0, 0, 1.0, [0]),), np.ones((1, 1)))
    with pytest.raises(NonErgodicError, match="age system singular"):
        solve_age(m)


def test_solve_age_non_finite_solution():
    # a subnormal reset rate is not exactly singular, but its age overflows
    m = ShsModel(1, 1, (ShsTransition(0, 0, 1e-320, [-1]),), np.ones((1, 1)))
    with pytest.raises(NonErgodicError, match="not finite"):
        solve_age(m)


def test_error_hierarchy():
    assert issubclass(NonErgodicError, RuntimeError)
    assert issubclass(NegativeSolutionError, RuntimeError)
