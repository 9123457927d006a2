"""Chain builders for preemptive-server update networks.

All builders model LCFS-S service with the age vector ordered freshest-first
for the homogeneous cases (coordinate 0 is the monitor, coordinate k the k-th
freshest server), and with per-physical-server coordinates for the
heterogeneous case. Delivered updates overwrite the monitor and, through
harmless synthetic preemption, every staler server, which is what collapses
or bounds the discrete state space.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

from .model import positive_rate
from .shs import ShsModel, ShsTransition


def _arrival_take(d: int, slot: int) -> np.ndarray:
    """Fresh update enters as the new slot-th freshest age (slot >= 1).

    The monitor keeps its age, fresher coordinates shift down one slot, the
    previous occupant of `slot` is dropped, staler coordinates are untouched.
    """
    return np.r_[0, -1, 1:slot, slot + 1 : d]


def _delivery_take(d: int, k: int) -> np.ndarray:
    """The k-th freshest update reaches the monitor.

    The monitor takes age x_k; coordinates k..n all take x_k (synthetic
    refresh of the stale servers); fresher coordinates are untouched.
    """
    return np.r_[k, 1:k, [k] * (d - k)]


def build_single_source_homogeneous(n: int, lam: float, mu: float) -> ShsModel:
    """One source, n exchangeable servers, per-server rates (lam, mu).

    The one-source case of build_multi_source_homogeneous: a single discrete
    state, n arrival transitions (the fresh update can land in any freshness
    slot) and n delivery transitions.
    """
    return build_multi_source_homogeneous(n, 1, 0, [positive_rate("lam", lam)], mu)


def build_multi_source_homogeneous(
    n: int,
    num_sources: int,
    tracked: int,
    rates: list[float] | tuple[float, ...],
    mu: float,
) -> ShsModel:
    """num_sources sources sharing n exchangeable servers; one source tracked.

    rates[i] is source i's per-server arrival rate. Other sources' updates
    displace tracked content without refreshing the monitor: the displaced
    coordinate is dropped and a coordinate carrying the monitor's own age
    (useless if delivered) appears as the stalest entry.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError("n must be a positive integer")
    rates = [float(r) for r in rates]
    if not rates:
        raise ValueError("need at least one source rate")
    if num_sources != len(rates):
        raise ValueError("num_sources must equal len(rates)")
    if not (0 <= tracked < len(rates)):
        raise ValueError("tracked index out of range")
    if any(not math.isfinite(r) or r < 0 for r in rates):
        raise ValueError("rates must be finite and >= 0")
    lam_i = rates[tracked]
    if lam_i <= 0:
        raise ValueError("tracked source rate must be > 0")
    mu = positive_rate("mu", mu)
    lam_bar = sum(r for i, r in enumerate(rates) if i != tracked)

    d = n + 1
    transitions = []
    for slot in range(1, n + 1):
        transitions.append(ShsTransition(0, 0, lam_i, _arrival_take(d, slot)))
    if lam_bar > 0:
        for slot in range(1, n + 1):
            # the occupant of `slot` is dropped, staler slots move one slot
            # fresher, and the displaced server's monitor-age content is
            # appended as the stalest coordinate
            take = np.r_[0:slot, slot + 1 : d, 0]
            transitions.append(ShsTransition(0, 0, lam_bar, take))
    for k in range(1, n + 1):
        transitions.append(ShsTransition(0, 0, mu, _delivery_take(d, k)))
    return ShsModel(1, d, tuple(transitions), np.ones((1, d)))


def build_heterogeneous_single_source(
    arrival_rates: list[float] | tuple[float, ...],
    service_rates: list[float] | tuple[float, ...],
) -> ShsModel:
    """One source, n distinct servers with per-server (lambda_j, mu_j).

    Discrete states are the n! freshness orderings of the servers, indexed by
    lexicographic rank of the permutation (freshest first). An arrival at
    server j zeroes its age and moves it to the front; a delivery from server
    j refreshes the monitor and every server at j's rank or staler, leaving
    the ordering unchanged (self-loop).

    Capped at n <= 6: the dense age system has n! * (n + 1) unknowns, and at
    n = 6 (5040 unknowns) the solve takes seconds and about 0.45 GB; at n = 7
    its matrix alone would be about 13 GB.
    """
    lams = [positive_rate(f"arrival_rates[{j}]", r) for j, r in enumerate(arrival_rates)]
    mus = [positive_rate(f"service_rates[{j}]", r) for j, r in enumerate(service_rates)]
    n = len(lams)
    if len(mus) != n:
        raise ValueError("arrival_rates and service_rates must have equal length")
    if n < 1:
        raise ValueError("need at least one server")
    if n > 6:
        raise ValueError("heterogeneous builder supports at most 6 servers")

    states = list(itertools.permutations(range(n)))
    index = {p: q for q, p in enumerate(states)}
    d = n + 1
    transitions = []
    for q, perm in enumerate(states):
        for j in range(n):
            take = np.arange(d)
            take[j + 1] = -1  # server j's age resets to zero
            target = index[(j,) + tuple(k for k in perm if k != j)]
            transitions.append(ShsTransition(q, target, lams[j], take))
        coords = np.array(perm) + 1
        for pos, j in enumerate(perm):
            # the monitor and every server at j's rank or staler take x_j
            take = np.arange(d)
            take[0] = j + 1
            take[coords[pos:]] = j + 1
            transitions.append(ShsTransition(q, q, mus[j], take))
    return ShsModel(len(states), d, tuple(transitions), np.ones((len(states), d)))
