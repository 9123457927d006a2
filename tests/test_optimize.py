"""Rate-allocation optima and the 1-D numeric minimizer."""
import math
import re

import numpy as np
import pytest

from aoinet.analytic import aoi_hetero_n2, aoi_multi_source_n2
from aoinet.optimize import (
    SplitResult,
    grid_minimize,
    optimal_hetero_split_n2,
    optimal_weighted_split,
)


def weighted_objective(weights, rates, lam, mu):
    return sum(w * aoi_multi_source_n2(r, lam, mu) for w, r in zip(weights, rates))


def test_weighted_split_sqrt_proportions():
    res = optimal_weighted_split([1.0, 4.0], 3.0, 1.0)
    assert res.rates == pytest.approx((1.0, 2.0), rel=1e-12)
    assert res.boundary is False


def test_weighted_split_keeps_a_rate_that_rounds_above_the_total_at_the_total():
    # lam * sqrt(3) / (sqrt(1e-320) + sqrt(3)) rounds to 3.0000000000000004
    res = optimal_weighted_split([1e-320, 3.0], 3.0, 1.0)
    assert res.rates[1] == 3.0
    assert res.rates[0] == pytest.approx(3.0 * 1e-160 / math.sqrt(3.0), rel=1e-15)
    # 3 (1 / 8 + 4 / 6), and the light source's term, 1e-320 * 4 / (2 * 1.7e-160),
    # is below an ulp of it
    assert res.objective == pytest.approx(2.375, rel=1e-15)


@pytest.mark.parametrize(
    "weights, lam, mu",
    [([1e-8, 1e8], 1e308, 1.0), ([1e-320, 3.0], 1e8, 1e300)],
    ids=["rate-overflows", "age-overflows"],
)
def test_weighted_split_refuses_a_split_that_overflows(weights, lam, mu):
    # lam * sqrt(1e8) is inf; and at the rate 1e8, which rounds above lam,
    # 2 mu lam_i is inf, so that source's age would read 1 / (2 (lam + mu))
    message = f"the split overflows at lam = {lam!r}, mu = {mu!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        optimal_weighted_split(weights, lam, mu)


@pytest.mark.parametrize(
    "weights, lam",
    [([1.0, 1.0, 1.0], 5e-324), ([1e-320, 1e308], 1e-10)],
    ids=["equal-weights", "far-apart"],
)
def test_weighted_split_refuses_a_rate_that_underflows_to_zero(weights, lam):
    with pytest.raises(ValueError, match=f"^the split underflows at lam = {lam!r}, mu = 1.0$"):
        optimal_weighted_split(weights, lam, 1.0)


def test_weighted_split_equal_weights_exact():
    res = optimal_weighted_split([2.0, 2.0, 2.0], 1.0, 1.5)
    assert res.rates == (1.0 / 3.0,) * 3


def test_weighted_split_single_source():
    res = optimal_weighted_split([5.0], 2.0, 0.9)
    assert res.rates == (2.0,)
    assert res.objective == pytest.approx(
        5.0 * aoi_multi_source_n2(2.0, 2.0, 0.9), rel=1e-12
    )


def test_weighted_split_objective_consistent():
    weights = [0.5, 1.0, 2.5]
    res = optimal_weighted_split(weights, 1.7, 1.1)
    assert sum(res.rates) == pytest.approx(1.7, rel=1e-12)
    assert res.objective == pytest.approx(
        weighted_objective(weights, res.rates, 1.7, 1.1), rel=1e-12
    )


def test_weighted_split_beats_equal_split():
    weights = [1.0, 9.0]
    lam, mu = 2.0, 1.0
    res = optimal_weighted_split(weights, lam, mu)
    worse = weighted_objective(weights, [lam / 2, lam / 2], lam, mu)
    assert res.objective < worse


def test_weighted_split_beats_local_perturbations():
    weights = [1.0, 2.0, 7.0]
    lam, mu = 1.3, 0.8
    res = optimal_weighted_split(weights, lam, mu)
    eps = 1e-4
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            rates = list(res.rates)
            rates[i] += eps
            rates[j] -= eps
            assert weighted_objective(weights, rates, lam, mu) >= res.objective


def test_weighted_split_validation():
    with pytest.raises(ValueError, match="weight"):
        optimal_weighted_split([], 1.0, 1.0)
    with pytest.raises(ValueError, match="weights"):
        optimal_weighted_split([1.0, 0.0], 1.0, 1.0)
    with pytest.raises(ValueError, match="weights"):
        optimal_weighted_split([1.0, -2.0], 1.0, 1.0)
    with pytest.raises(ValueError, match="lam"):
        optimal_weighted_split([1.0], 0.0, 1.0)
    with pytest.raises(ValueError, match="mu"):
        optimal_weighted_split([1.0], 1.0, float("nan"))


def test_split_result_immutable():
    res = SplitResult(rates=(1.0,), objective=2.0, boundary=False)
    with pytest.raises(AttributeError):
        res.objective = 3.0


def test_hetero_split_equal_servers():
    res = optimal_hetero_split_n2(2.0, 1.3, 1.3)
    assert res.rates == pytest.approx((1.0, 1.0), rel=1e-12)
    assert res.boundary is False
    assert res.objective == pytest.approx(
        aoi_hetero_n2(1.0, 1.0, 1.3, 1.3), rel=1e-12
    )


def test_hetero_split_swap_symmetry():
    # interior optimum on both sides of the relabeling
    a = optimal_hetero_split_n2(1.0, 0.9, 1.4)
    b = optimal_hetero_split_n2(1.0, 1.4, 0.9)
    assert not a.boundary and not b.boundary
    assert 0.0 < a.rates[0] < 1.0
    assert a.rates[0] == pytest.approx(b.rates[1], rel=1e-9)
    assert a.rates[1] == pytest.approx(b.rates[0], rel=1e-9)
    assert a.objective == pytest.approx(b.objective, rel=1e-12)


def test_hetero_split_starves_weak_server():
    res = optimal_hetero_split_n2(1.0, 0.01, 10.0)
    assert res.boundary is True
    assert res.rates == (0.0, 1.0)
    # and the mirrored instance starves the other server
    mirror = optimal_hetero_split_n2(1.0, 10.0, 0.01)
    assert mirror.boundary is True
    assert mirror.rates == (1.0, 0.0)


def test_hetero_split_matches_grid_search():
    rng = np.random.default_rng(17)
    for _ in range(20):
        lam = float(rng.uniform(0.2, 5.0))
        mu1 = float(rng.uniform(0.05, 5.0))
        mu2 = float(rng.uniform(0.05, 5.0))
        res = optimal_hetero_split_n2(lam, mu1, mu2)
        x, val = grid_minimize(
            lambda x: aoi_hetero_n2(x, lam - x, mu1, mu2), 0.0, lam, tol=1e-10
        )
        assert abs(res.rates[0] - x) < 1e-6 * lam
        assert res.objective <= val + 1e-9


def test_hetero_split_validation():
    with pytest.raises(ValueError, match="lam"):
        optimal_hetero_split_n2(-1.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="mu2"):
        optimal_hetero_split_n2(1.0, 1.0, 0.0)


def test_grid_minimize_refuses_a_midpoint_past_the_float_maximum():
    # a + b overflows near the float maximum, so the last midpoint is inf
    with pytest.raises(ValueError, match="^objective is not finite at inf$"):
        grid_minimize(lambda x: -x, 1e299, 1.7e308, tol=1e299)


def test_grid_minimize_parabola():
    x, val = grid_minimize(lambda x: (x - 1.0) ** 2, 0.0, 3.0)
    assert abs(x - 1.0) < 1e-6
    assert val < 1e-12


def test_grid_minimize_monotone_hits_boundary():
    x, _ = grid_minimize(lambda x: 2.0 + x, 0.5, 2.0)
    assert abs(x - 0.5) < 1e-6
    x, _ = grid_minimize(lambda x: -x, 0.5, 2.0)
    assert abs(x - 2.0) < 1e-6


def test_grid_minimize_rejects_bad_inputs():
    with pytest.raises(ValueError, match="hi > lo"):
        grid_minimize(lambda x: x, 1.0, 1.0)
    with pytest.raises(ValueError, match="tol"):
        grid_minimize(lambda x: x, 0.0, 1.0, tol=0.0)
    with pytest.raises(ValueError, match="not finite"):
        grid_minimize(lambda x: math.inf, 0.0, 1.0)


def test_grid_minimize_runs_on_floats_and_refuses_a_zero_divisor():
    # the objective sees Python floats, so a divisor that is 0 raises
    # ZeroDivisionError where a numpy float gave inf; both are not finite
    seen = []

    def objective(x):
        seen.append(type(x))
        return 1.0 / x

    with pytest.raises(ValueError, match=r"not finite at 0\.0"):
        grid_minimize(objective, 0.0, 1.0)
    assert seen == [float]
    x, val = grid_minimize(lambda x: (x - 0.25) ** 2, 0.0, 1.0)
    assert type(x) is float and x == pytest.approx(0.25, abs=1e-7)
