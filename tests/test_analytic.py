"""Closed forms: frozen values, cross-family identities, scaling laws."""
import contextlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aoinet import analytic
from aoinet.analytic import (
    aoi_hetero_n2,
    aoi_hetero_n3,
    aoi_lcfs_homogeneous,
    aoi_multi_source_n2,
    aoi_multi_source_n3,
)
from aoinet.builders import build_heterogeneous_single_source, build_multi_source_homogeneous
from aoinet.cli import main
from aoinet.shs import NonErgodicError, solve_age

DATA = Path(__file__).parent / "data"


def test_homogeneous_frozen_values():
    assert aoi_lcfs_homogeneous(1, 1.0, 1.0) == pytest.approx(2.0, rel=1e-12)
    assert aoi_lcfs_homogeneous(2, 1.0, 1.0) == pytest.approx(1.25, rel=1e-12)
    assert aoi_lcfs_homogeneous(3, 1.0, 1.0) == pytest.approx(26.0 / 27.0, rel=1e-12)


def test_homogeneous_single_server_form():
    rng = np.random.default_rng(3)
    for _ in range(10):
        lam = float(rng.uniform(0.05, 4.0))
        mu = float(rng.uniform(0.05, 4.0))
        assert aoi_lcfs_homogeneous(1, lam, mu) == pytest.approx(
            1 / lam + 1 / mu, rel=1e-12
        )


def test_homogeneous_monotone_in_servers():
    for lam, mu in ((0.5, 1.0), (2.0, 0.7), (1.0, 1.0)):
        ages = [aoi_lcfs_homogeneous(n, lam, mu) for n in range(1, 11)]
        assert all(a >= b for a, b in zip(ages, ages[1:]))


def test_homogeneous_rate_scaling():
    base = aoi_lcfs_homogeneous(4, 0.6, 1.1)
    assert aoi_lcfs_homogeneous(4, 1.2, 2.2) == pytest.approx(base / 2, rel=1e-12)


def test_homogeneous_rejects_bad_args():
    with pytest.raises(ValueError, match="positive integer"):
        aoi_lcfs_homogeneous(0, 1.0, 1.0)
    with pytest.raises(ValueError, match="positive integer"):
        aoi_lcfs_homogeneous(2.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="lam"):
        aoi_lcfs_homogeneous(2, -1.0, 1.0)


def test_two_server_share_frozen_values():
    assert aoi_multi_source_n2(1.0, 1.0, 1.0) == pytest.approx(1.25, rel=1e-12)
    assert aoi_multi_source_n2(0.5, 1.0, 1.0) == pytest.approx(2.25, rel=1e-12)


def test_three_server_share_frozen_values():
    assert aoi_multi_source_n3(1.0, 1.0, 1.0) == pytest.approx(26.0 / 27.0, rel=1e-12)
    assert aoi_multi_source_n3(0.5, 1.0, 1.0) == pytest.approx(28.0 / 17.0, rel=1e-12)


def test_share_formulas_collapse_to_single_source():
    rng = np.random.default_rng(7)
    for _ in range(40):
        lam = float(rng.uniform(0.05, 5.0))
        mu = float(rng.uniform(0.05, 5.0))
        assert aoi_multi_source_n2(lam, lam, mu) == pytest.approx(
            aoi_lcfs_homogeneous(2, lam, mu), rel=1e-12
        )
        assert aoi_multi_source_n3(lam, lam, mu) == pytest.approx(
            aoi_lcfs_homogeneous(3, lam, mu), rel=1e-12
        )


def test_share_formulas_match_chain():
    for lam_i, lam, mu in ((0.3, 1.0, 0.8), (0.9, 1.3, 0.8), (0.05, 2.0, 1.0)):
        other = lam - lam_i
        for n, formula in ((2, aoi_multi_source_n2), (3, aoi_multi_source_n3)):
            chain = solve_age(
                build_multi_source_homogeneous(n, 0, [lam_i, other], mu)
            ).aoi
            assert formula(lam_i, lam, mu) == pytest.approx(chain, rel=1e-10)


def test_share_age_grows_as_share_shrinks():
    for formula in (aoi_multi_source_n2, aoi_multi_source_n3):
        ages = [formula(s, 1.0, 1.0) for s in (1.0, 0.5, 0.2, 0.05)]
        assert all(a < b for a, b in zip(ages, ages[1:]))


def test_share_validation():
    for formula in (aoi_multi_source_n2, aoi_multi_source_n3):
        with pytest.raises(ValueError, match="cannot exceed"):
            formula(2.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="lam_i"):
            formula(0.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="mu"):
            formula(0.5, 1.0, 0.0)


def test_two_distinct_servers_frozen_value():
    assert aoi_hetero_n2(2.0, 1.0, 1.0, 2.0) == pytest.approx(11.0 / 12.0, rel=1e-12)


def test_two_distinct_servers_symmetric_reduction():
    rng = np.random.default_rng(9)
    for _ in range(40):
        lam = float(rng.uniform(0.05, 4.0))
        mu = float(rng.uniform(0.05, 4.0))
        assert aoi_hetero_n2(lam, lam, mu, mu) == pytest.approx(
            aoi_lcfs_homogeneous(2, lam, mu), rel=1e-12
        )


def test_two_distinct_servers_swap_invariance():
    a = aoi_hetero_n2(0.4, 1.9, 0.7, 2.6)
    b = aoi_hetero_n2(1.9, 0.4, 2.6, 0.7)
    assert a == pytest.approx(b, rel=1e-12)


def test_two_distinct_servers_idle_server_degenerates():
    # a server that never gets updates ends up redelivering known content,
    # leaving the age of the single active server
    lam2, mu1, mu2 = 1.3, 0.9, 2.1
    assert aoi_hetero_n2(0.0, lam2, mu1, mu2) == pytest.approx(
        1 / lam2 + 1 / mu2, rel=1e-12
    )
    with pytest.raises(ValueError, match="lam1 \\+ lam2"):
        aoi_hetero_n2(0.0, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError, match=">= 0"):
        aoi_hetero_n2(-0.5, 1.0, 1.0, 1.0)


def test_three_distinct_servers_symmetric_reduction():
    for lam, mu in ((0.5, 1.0), (1.7, 0.6)):
        assert aoi_hetero_n3([lam] * 3, [mu] * 3) == pytest.approx(
            aoi_lcfs_homogeneous(3, lam, mu), rel=1e-10
        )


def test_three_distinct_servers_permutation_invariance():
    lams = (0.5, 1.0, 1.5)
    mus = (1.0, 2.0, 0.7)
    base = aoi_hetero_n3(lams, mus)
    for perm in ((1, 2, 0), (2, 1, 0)):
        assert aoi_hetero_n3(
            [lams[i] for i in perm], [mus[i] for i in perm]
        ) == pytest.approx(base, rel=1e-10)


def test_three_distinct_servers_validation():
    with pytest.raises(ValueError, match="exactly three"):
        aoi_hetero_n3([1.0, 1.0], [1.0, 1.0])
    with pytest.raises(ValueError, match="exactly three"):
        aoi_hetero_n3([1.0] * 4, [1.0] * 4)


@contextlib.contextmanager
def no_chain():
    """aoinet.analytic with its chain builder and solver names made to raise."""

    def refuse(*args, **kwargs):
        raise AssertionError("a closed form built or solved a chain")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analytic, "solve_age", refuse)
        mp.setattr(analytic, "build_heterogeneous_single_source", refuse)
        yield


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    scale=st.floats(-3.0, 3.0),
    exponents=st.lists(st.floats(0.0, 4.0), min_size=6, max_size=6),
)
def test_three_distinct_servers_match_the_chain(scale, exponents):
    # every rate within a span (max / min) of 1e4 of the others
    rates = [10.0 ** (scale + e) for e in exponents]
    lams, mus = rates[:3], rates[3:]
    with no_chain():
        aoi = aoi_hetero_n3(lams, mus)
    try:
        chain = solve_age(build_heterogeneous_single_source(lams, mus)).aoi
    except NonErgodicError as e:
        # the chain's balance check refuses some ergodic chains at spans near
        # 1e4, where the state it normalizes on has a mass near 1e-8
        assert str(e).startswith("balance residual"), e
        return
    assert abs(aoi - chain) <= 1e-12 * chain


def test_three_distinct_servers_solve_no_chain(capsys):
    config = DATA / "analytic_1x3_distinct.config.json"
    doc = json.loads(config.read_text())
    golden = json.loads((DATA / "analytic_1x3_distinct.json").read_text())
    with no_chain():
        assert aoi_hetero_n3(doc["arrival_rates"][0], doc["service_rates"]) == (
            golden["sources"][0]["analytic"])
        for fmt, ext in (("text", "txt"), ("json", "json")):
            assert main(["analytic", "--config", str(config), "--format", fmt]) == 0
            out, err = capsys.readouterr()
            assert err == ""
            assert out.encode("utf-8") == (DATA / f"analytic_1x3_distinct.{ext}").read_bytes()


def test_three_distinct_servers_negligible_third_server():
    # a third server that almost never gets an update leaves the first two;
    # the chain loses the service terms at these spans, the recursion does not
    for k in range(0, 301, 10):
        big = 10.0**k
        with no_chain():
            aoi = aoi_hetero_n3([big, 1.1 * big, 1e-30], [1.0, 2.0, 3.0])
        assert aoi == pytest.approx(aoi_hetero_n2(big, 1.1 * big, 1.0, 2.0), rel=1e-15), big


@pytest.mark.parametrize(
    "field, index, bad",
    [("arrival_rates", 0, 0.0), ("arrival_rates", 2, -1.0), ("service_rates", 1, math.nan),
     ("service_rates", 2, math.inf)],
)
def test_three_distinct_servers_rate_messages(field, index, bad):
    rates = {"arrival_rates": [0.5, 1.0, 1.5], "service_rates": [1.0, 2.0, 0.7]}
    rates[field][index] = bad
    with no_chain(), pytest.raises(ValueError) as info:
        aoi_hetero_n3(rates["arrival_rates"], rates["service_rates"])
    assert str(info.value) == f"{field}[{index}] must be finite and > 0"
