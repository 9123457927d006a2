"""End-to-end acceptance gates for the whole toolkit.

Each test is one releasable claim: closed forms agree with each other, the
chain solver agrees with the closed forms, the simulator agrees with both,
optimizers beat brute force, and artifacts reproduce byte-for-byte. The
conftest hook prints one PASS/FAIL verdict line per test.
"""
import itertools
import json
import time

import numpy as np
import pytest

from aoinet.analytic import (
    aoi_hetero_n2,
    aoi_hetero_n3,
    aoi_lcfs_homogeneous,
    aoi_multi_source_n2,
    aoi_multi_source_n3,
)
from aoinet.builders import (
    build_heterogeneous_single_source,
    build_multi_source_homogeneous,
    build_single_source_homogeneous,
)
from aoinet.cli import (
    EngineError,
    chain_aoi,
    closed_form_aoi,
    load_sweep_spec,
    run_sweep,
    sweep_csv,
)
from aoinet.model import NetworkConfig
from aoinet.optimize import grid_minimize, optimal_hetero_split_n2, optimal_weighted_split
from aoinet.shs import age_residual, balance_residual, solve_age
from aoinet.sim import SimParams, replicate


def rel(a, b):
    return abs(a - b) / max(abs(a), abs(b))


# --------------------------------------------------------------- criterion 1


def test_closed_form_consistency_identities():
    """The share and distinct-server formulas collapse onto the exchangeable one."""
    rng = np.random.default_rng(101)
    draws = [(float(l), float(m)) for l, m in rng.uniform(0.05, 5.0, size=(100, 2))]

    def check(label, fn):
        start = time.perf_counter()
        worst = max(fn(lam, mu) for lam, mu in draws)
        elapsed = time.perf_counter() - start
        assert worst < 1e-9, f"{label}: worst relative error {worst:.3e}"
        assert elapsed < 1.0, f"{label}: took {elapsed:.2f}s"

    check(
        "two-server share at full share",
        lambda lam, mu: rel(
            aoi_multi_source_n2(lam, lam, mu), aoi_lcfs_homogeneous(2, lam, mu)
        ),
    )
    check(
        "three-server share at full share",
        lambda lam, mu: rel(
            aoi_multi_source_n3(lam, lam, mu), aoi_lcfs_homogeneous(3, lam, mu)
        ),
    )
    check(
        "distinct two-server at symmetric rates",
        lambda lam, mu: rel(
            aoi_hetero_n2(lam, lam, mu, mu), aoi_lcfs_homogeneous(2, lam, mu)
        ),
    )
    check(
        "distinct three-server at symmetric rates",
        lambda lam, mu: rel(
            aoi_hetero_n3([lam] * 3, [mu] * 3), aoi_lcfs_homogeneous(3, lam, mu)
        ),
    )


# --------------------------------------------------------------- criterion 2


def hetero3_reference(lams, mus):
    """Layered closed-form ages for one source over three distinct servers.

    Written independently of the builders: stationary weights are the
    renewal-ordering products, fresh and middle ranks have explicit values,
    and each stale-rank pair closes a 2x2 linear system. Returns (pi, v, aoi)
    with v indexed [ordering, server coordinate] and column 0 unused.
    """
    l1, l2, l3 = lams
    m1, m2, m3 = mus
    big_l = l1 + l2 + l3
    big_m = m1 + m2 + m3
    pi = np.array(
        [
            l1 * l2 / ((l2 + l3) * big_l),
            l1 * l3 / ((l2 + l3) * big_l),
            l2 * l1 / ((l1 + l3) * big_l),
            l2 * l3 / ((l1 + l3) * big_l),
            l3 * l1 / ((l1 + l2) * big_l),
            l3 * l2 / ((l1 + l2) * big_l),
        ]
    )
    p1, p2, p3, p4, p5, p6 = pi
    v = np.zeros((6, 4))
    # freshest rank: idle-free since its own last arrival
    v[0, 1] = p1 / big_l
    v[1, 1] = p2 / big_l
    v[2, 2] = p3 / big_l
    v[3, 2] = p4 / big_l
    v[4, 3] = p5 / big_l
    v[5, 3] = p6 / big_l
    # middle rank: one extra exponential stage
    v[0, 2] = p1 * (1 / big_l + 1 / (l2 + l3 + m1))
    v[1, 3] = p2 * (1 / big_l + 1 / (l2 + l3 + m1))
    v[2, 1] = p3 * (1 / big_l + 1 / (l1 + l3 + m2))
    v[3, 3] = p4 * (1 / big_l + 1 / (l1 + l3 + m2))
    v[4, 1] = p5 * (1 / big_l + 1 / (l1 + l2 + m3))
    v[5, 2] = p6 * (1 / big_l + 1 / (l1 + l2 + m3))
    v11, v21, v32, v42, v53, v63 = v[0, 1], v[1, 1], v[2, 2], v[3, 2], v[4, 3], v[5, 3]
    v12, v23, v31, v43, v51, v62 = v[0, 2], v[1, 3], v[2, 1], v[3, 3], v[4, 1], v[5, 2]
    # stale rank: orderings sharing a stale server couple pairwise
    a = np.array([[l2 + l3 + m1 + m2, -l1], [-l2, l1 + l3 + m1 + m2]])
    b = np.array(
        [p1 + l1 * v43 + m1 * v11 + m2 * v12, p3 + l2 * v23 + m1 * v31 + m2 * v32]
    )
    v[0, 3], v[2, 3] = np.linalg.solve(a, b)
    a = np.array([[l2 + l3 + m1 + m3, -l1], [-l3, l1 + l2 + m1 + m3]])
    b = np.array(
        [p2 + l1 * v62 + m1 * v21 + m3 * v23, p5 + l3 * v12 + m1 * v51 + m3 * v53]
    )
    v[1, 2], v[4, 2] = np.linalg.solve(a, b)
    a = np.array([[l1 + l3 + m2 + m3, -l2], [-l3, l1 + l2 + m2 + m3]])
    b = np.array(
        [p4 + l2 * v51 + m2 * v42 + m3 * v43, p6 + l3 * v31 + m2 * v62 + m3 * v63]
    )
    v[3, 1], v[5, 1] = np.linalg.solve(a, b)
    aoi = 1.0 / big_m + (
        m1 * v[:, 1].sum() + m2 * v[:, 2].sum() + m3 * v[:, 3].sum()
    ) / big_m
    return pi, v, aoi


# the distinct-server chain's states, freshest server first
ORDERINGS_3 = list(itertools.permutations(range(3)))


def test_chain_solver_matches_closed_forms():
    """solve_age reproduces every closed form to 1e-9 over 200 random tuples each."""
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    sampled = []  # (model, solution) pairs for the residual audit

    def run(model):
        sol = solve_age(model)
        if len(sampled) < 40:
            sampled.append((model, sol))
        return sol

    # one source, n exchangeable servers
    for _ in range(200):
        n = int(rng.integers(1, 7))
        lam, mu = rng.uniform(0.05, 5.0, 2)
        sol = run(build_single_source_homogeneous(n, lam, mu))
        assert rel(sol.aoi, aoi_lcfs_homogeneous(n, lam, mu)) < 1e-9

    # one source, two distinct servers
    for _ in range(200):
        l1, l2, m1, m2 = rng.uniform(0.05, 5.0, 4)
        sol = run(build_heterogeneous_single_source([l1, l2], [m1, m2]))
        assert rel(sol.aoi, aoi_hetero_n2(l1, l2, m1, m2)) < 1e-9

    # shared servers, tracked source plus one or two others
    for n, formula in ((2, aoi_multi_source_n2), (3, aoi_multi_source_n3)):
        for _ in range(200):
            lam = float(rng.uniform(0.1, 4.0))
            share = float(rng.uniform(0.05, 1.0))
            mu = float(rng.uniform(0.1, 4.0))
            lam_i = share * lam
            others = lam - lam_i
            if rng.integers(2) and others > 0:
                cut = float(rng.uniform(0.0, others))
                rates = [lam_i, cut, others - cut]
            else:
                rates = [lam_i, others]
            sol = run(build_multi_source_homogeneous(n, 0, rates, mu))
            assert rel(sol.aoi, formula(lam_i, lam, mu)) < 1e-9

    # one source, three distinct servers, against the independent layered form
    for _ in range(200):
        lams = rng.uniform(0.05, 4.0, 3)
        mus = rng.uniform(0.05, 4.0, 3)
        sol = run(build_heterogeneous_single_source(list(lams), list(mus)))
        pi_ref, v_ref, aoi_ref = hetero3_reference(lams, mus)
        assert rel(sol.aoi, aoi_ref) < 1e-9
        assert np.max(np.abs(sol.pi - pi_ref)) < 1e-9
        # v_ref's columns are servers; the chain's are freshness ranks
        ranked = [v_ref[q, np.add(order, 1)] for q, order in enumerate(ORDERINGS_3)]
        assert np.max(np.abs(sol.v[:, 1:] - ranked)) < 1e-9
        # the closed form solves no chain, so it meets the reference on its own
        assert rel(aoi_hetero_n3(lams, mus), aoi_ref) < 1e-12

    # the solutions must satisfy the balance and age equations directly
    for model, sol in sampled:
        assert balance_residual(model, sol.pi) < 1e-10
        assert age_residual(model, sol.pi, sol.v) < 1e-10

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.2f}s"


# --------------------------------------------------------------- criterion 3


def test_frozen_spot_values():
    """Hand-derivable reference points pin every formula family."""
    assert aoi_lcfs_homogeneous(1, 1.0, 1.0) == pytest.approx(2.0, rel=1e-12)
    assert aoi_lcfs_homogeneous(2, 1.0, 1.0) == pytest.approx(1.25, rel=1e-12)
    assert aoi_lcfs_homogeneous(3, 1.0, 1.0) == pytest.approx(26.0 / 27.0, rel=1e-12)
    assert aoi_multi_source_n2(0.5, 1.0, 1.0) == pytest.approx(2.25, rel=1e-12)
    assert aoi_multi_source_n3(1.0, 1.0, 1.0) == pytest.approx(26.0 / 27.0, rel=1e-12)
    assert aoi_multi_source_n3(0.5, 1.0, 1.0) == pytest.approx(28.0 / 17.0, rel=1e-12)
    assert aoi_hetero_n2(2.0, 1.0, 1.0, 2.0) == pytest.approx(11.0 / 12.0, rel=1e-12)


# --------------------------------------------------------------- criterion 4


SIM_CONFIGS = (
    NetworkConfig(1, 1, [[1.0]], [1.0], "lcfs-s"),
    NetworkConfig(1, 2, [[1.0, 1.0]], [1.0, 1.0], "lcfs-s"),
    NetworkConfig(1, 3, [[1.0] * 3], [1.0] * 3, "lcfs-s"),
    NetworkConfig(1, 4, [[0.5] * 4], [1.0] * 4, "lcfs-s"),
    NetworkConfig(1, 2, [[3.0, 3.0]], [0.7, 0.7], "lcfs-s"),
    NetworkConfig(2, 2, [[0.5, 0.5], [0.5, 0.5]], [1.0, 1.0], "lcfs-s"),
    NetworkConfig(3, 2, [[0.3] * 2, [0.5] * 2, [0.9] * 2], [1.1, 1.1], "lcfs-s"),
    NetworkConfig(2, 3, [[0.6] * 3, [0.9] * 3], [1.2] * 3, "lcfs-s"),
    NetworkConfig(1, 2, [[2.0, 1.0]], [1.0, 2.0], "lcfs-s"),
    NetworkConfig(1, 2, [[0.7, 1.3]], [1.5, 0.6], "lcfs-s"),
    NetworkConfig(1, 3, [[0.5, 1.0, 1.5]], [1.0, 2.0, 0.7], "lcfs-s"),
    NetworkConfig(1, 3, [[1.0, 1.0, 2.0]], [2.0, 1.0, 1.0], "lcfs-s"),
)


def analytic_target(config, source):
    try:
        return closed_form_aoi(config, source)
    except EngineError:
        return chain_aoi(config, source)


def test_simulation_matches_analytic_across_classes():
    """Long preemptive runs land on the analytic age for every covered class."""
    for idx, config in enumerate(SIM_CONFIGS):
        result = replicate(
            SimParams(config=config, horizon=1e6, seed=200 + 17 * idx), 8
        )
        assert result.useful_deliveries > 0
        for i in range(config.sources):
            target = analytic_target(config, i)
            se = result.std_error[i]
            tol = max(3.0 * se, 0.02 * target)
            assert abs(result.aoi[i] - target) <= tol, (
                f"config {idx} source {i}: sim {result.aoi[i]:.6f} "
                f"vs analytic {target:.6f}, tol {tol:.2e}"
            )


# --------------------------------------------------------------- criterion 5


def test_adding_servers_always_helps_with_diminishing_returns():
    """At fixed total rate, age falls with server count but flattens past four."""
    for total in (0.5, 1.0, 2.0, 5.0, 10.0):
        ages = {n: aoi_lcfs_homogeneous(n, total / n, 1.0) for n in range(1, 11)}
        pairs = list(ages.items())
        for (_, a), (_, b) in zip(pairs, pairs[1:]):
            assert b <= a + 1e-12
        assert ages[4] - ages[10] < ages[1] - ages[4]


# --------------------------------------------------------------- criterion 6


def test_preemptive_service_wins_and_queued_sweet_spot():
    """Preemption dominates the other disciplines; buffered service likes mid load."""
    grid = [round(0.1 * k, 1) for k in range(1, 10)]
    results = {}
    for disc in ("lcfs-s", "lcfs-w", "fcfs"):
        for lam in grid:
            config = NetworkConfig(1, 4, [[lam] * 4], [1.0] * 4, disc)
            r = replicate(SimParams(config=config, horizon=1e5, seed=301), 6)
            # the normal 95% half-width, as when the gate was set
            results[disc, lam] = (r.aoi[0], 1.96 * r.std_error[0])
    for lam in grid:
        s, s_ci = results["lcfs-s", lam]
        for other in ("lcfs-w", "fcfs"):
            o, o_ci = results[other, lam]
            assert s <= o + s_ci + o_ci, (
                f"lcfs-s {s:.4f} above {other} {o:.4f} at lam={lam}"
            )
    fcfs_curve = [results["fcfs", lam][0] for lam in grid]
    best = grid[int(np.argmin(fcfs_curve))]
    assert abs(best - 0.5) <= 0.1 + 1e-12, f"buffered minimizer at {best}"


# --------------------------------------------------------------- criterion 7


def simplex_refine(weights, lam, mu, rounds=4, points=41):
    """Nested grid search for the best 3-way split of lam."""
    lo1 = lo2 = 0.0
    hi1 = hi2 = lam
    best = None
    for _ in range(rounds):
        xs = np.linspace(lo1, hi1, points)
        ys = np.linspace(lo2, hi2, points)
        best_val = np.inf
        for x in xs:
            if x <= 0:
                continue
            for y in ys:
                z = lam - x - y
                if y <= 0 or z <= 0:
                    continue
                val = (
                    weights[0] * aoi_multi_source_n2(x, lam, mu)
                    + weights[1] * aoi_multi_source_n2(y, lam, mu)
                    + weights[2] * aoi_multi_source_n2(z, lam, mu)
                )
                if val < best_val:
                    best_val = val
                    best = (x, y, z)
        step1 = (hi1 - lo1) / (points - 1)
        step2 = (hi2 - lo2) / (points - 1)
        lo1, hi1 = max(best[0] - 2 * step1, 0.0), min(best[0] + 2 * step1, lam)
        lo2, hi2 = max(best[1] - 2 * step2, 0.0), min(best[1] + 2 * step2, lam)
    return best


def test_weighted_split_is_optimal():
    """The root-weight split beats random and exhaustive alternatives."""
    weights = [1.0, 2.7, 6.1]
    lam, mu = 2.0, 1.0
    res = optimal_weighted_split(weights, lam, mu)

    rng = np.random.default_rng(404)
    draws = rng.dirichlet((1.0, 1.0, 1.0), size=10000) * lam
    beaten = 0
    for row in draws:
        if row.min() <= 0.0:
            continue
        val = sum(w * aoi_multi_source_n2(r, lam, mu) for w, r in zip(weights, row))
        assert val >= res.objective - 1e-12
        beaten += 1
    assert beaten > 9900

    refined = simplex_refine(weights, lam, mu)
    for got, want in zip(res.rates, refined):
        assert abs(got - want) <= 1e-4

    two = optimal_weighted_split([1.0, 4.0], lam, mu)
    x, _ = grid_minimize(
        lambda r: 1.0 * aoi_multi_source_n2(r, lam, mu)
        + 4.0 * aoi_multi_source_n2(lam - r, lam, mu),
        1e-9,
        lam - 1e-9,
        tol=1e-10,
    )
    assert abs(two.rates[0] - x) <= 1e-4

    equal = optimal_weighted_split([3.0, 3.0, 3.0], lam, mu)
    assert equal.rates == (lam / 3.0,) * 3


# --------------------------------------------------------------- criterion 8


def test_two_server_split_matches_numeric_search():
    """Closed-form splits track the numeric optimum across the service sweep."""
    lam = 10.0
    saw_boundary = saw_interior = False
    for mu1 in np.linspace(1.0, 99.0, 50):
        mu2 = 100.0 - mu1
        split = optimal_hetero_split_n2(lam, float(mu1), float(mu2))
        gx, gval = grid_minimize(
            lambda x: aoi_hetero_n2(x, lam - x, float(mu1), float(mu2)),
            0.0,
            lam,
            tol=1e-7 * lam,
        )
        assert abs(split.rates[0] - gx) <= 1e-4 * lam, (
            f"mu1={mu1:.2f}: closed {split.rates[0]:.6f} vs grid {gx:.6f}"
        )
        assert split.objective <= gval + 1e-9
        if split.boundary:
            saw_boundary = True
            assert split.rates[0] in (0.0, lam)
        else:
            saw_interior = True
            assert 0.0 < split.rates[0] < lam
    assert saw_boundary and saw_interior

    even = optimal_hetero_split_n2(lam, 50.0, 50.0)
    assert even.rates == (lam / 2.0, lam / 2.0)
    assert optimal_hetero_split_n2(lam, 1.0, 99.0).rates == (0.0, lam)
    assert optimal_hetero_split_n2(lam, 99.0, 1.0).rates == (lam, 0.0)


# --------------------------------------------------------------- criterion 9


def csv_per_thread_count(monkeypatch, doc):
    """The sweep CSV bytes of `doc` with AOI_THREADS unset, 1 and 2."""
    outputs = []
    for threads in (None, "1", "2"):
        if threads is None:
            monkeypatch.delenv("AOI_THREADS", raising=False)
        else:
            monkeypatch.setenv("AOI_THREADS", threads)
        outputs.append(sweep_csv(run_sweep(load_sweep_spec(doc))).encode())
    return outputs


def test_identical_seeds_reproduce_identical_csv(monkeypatch):
    """Same spec, same seed: the CSV artifact is byte-identical, threads or not."""
    doc = json.dumps(
        {
            "config": {
                "sources": 1,
                "servers": 2,
                "arrival_rates": [[0.8, 0.8]],
                "service_rates": [1.0, 1.0],
                "discipline": "lcfs-s",
            },
            "sweep": {
                "parameter": "per-server-arrival",
                "grid": [0.4, 0.8, 1.2],
                "engines": ["analytic", "sim"],
                "horizon": 2000.0,
                "seed": 9,
            },
        }
    )
    outputs = csv_per_thread_count(monkeypatch, doc)
    assert outputs[0] == outputs[1] == outputs[2]
    # and a fresh repeat of the same run stays identical
    repeat = sweep_csv(run_sweep(load_sweep_spec(doc))).encode()
    assert repeat == outputs[0]


def test_identical_seeds_reproduce_identical_csv_every_discipline(monkeypatch):
    """The same holds for every simulated discipline, lcfs-w included."""
    doc = json.dumps(
        {
            "config": {
                "sources": 1,
                "servers": 2,
                "arrival_rates": [[0.4, 0.4]],
                "service_rates": [1.0, 1.0],
                "discipline": "lcfs-s",
            },
            "sweep": {
                "parameter": "per-server-arrival",
                "grid": [0.2, 0.5, 0.8],
                "engines": ["sim"],
                "disciplines": ["lcfs-s", "lcfs-w", "fcfs"],
                "horizon": 2000.0,
                "seed": 9,
            },
        }
    )
    outputs = csv_per_thread_count(monkeypatch, doc)
    assert outputs[0] == outputs[1] == outputs[2]
    rows = outputs[0].decode().splitlines()[1:]
    assert len(rows) == 9 and all(row.endswith(",") for row in rows)  # no error rows
    assert {row.split(",")[1] for row in rows} == {"sim:lcfs-s", "sim:lcfs-w", "sim:fcfs"}
