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
from .shs import ShsModel


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

    Size: 2n transitions (3n with other sources), each with an (n + 1)-long
    reset map, and a dense (n + 1)^2 age system in `solve_age`, so peak memory
    is about 130 n^2 bytes (190 n^2 with other sources). n = 2,000 solves in
    about 1.2 s at 0.53 GB and n = 3,000 in 2.8 s at 1.15 GB (one BLAS thread,
    2-vCPU x86 machine, numpy 2.4 with OpenBLAS); n = 20,000 would need about
    52 GB.
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
    slots = range(1, n + 1)
    rate = [lam_i] * n
    take = [_arrival_take(d, slot) for slot in slots]
    if lam_bar > 0:
        # the occupant of `slot` is dropped, staler slots move one slot
        # fresher, and the displaced server's monitor-age content is
        # appended as the stalest coordinate
        rate += [lam_bar] * n
        take += [np.r_[0:slot, slot + 1 : d, 0] for slot in slots]
    rate += [mu] * n
    take += [_delivery_take(d, k) for k in slots]
    state = np.zeros(len(rate), dtype=np.intp)  # every transition is a self-loop
    return ShsModel(1, d, state, state, np.array(rate), np.array(take), np.ones((1, d)))


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

    The chain is written as whole arrays (all orderings at once), in the
    order: per state, its n arrivals, then its n deliveries by rank.

    Capped at n <= 6: the dense age system has n! * (n + 1) unknowns. At
    n = 6 (720 states, 5040 unknowns) the build takes about 3 ms and the
    solve 2.1 to 2.4 s with one BLAS thread, with a 0.44 GB peak (2-vCPU x86
    machine, numpy 2.4 with OpenBLAS); at n = 7 the age matrix alone would be
    about 13 GB.
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

    # state q is the q-th ordering in lexicographic order; read as base-n
    # numbers the orderings are sorted, so a rank is one searchsorted
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    num_states = len(perms)
    place = n ** np.arange(n - 1, -1, -1)
    servers = np.arange(n)
    d = n + 1

    # arrival at server j (axis 1): j moves to the front, the others keep
    # their order, and server j's age resets to zero
    others = perms[:, None, :] != servers[:, None]
    rest = np.broadcast_to(perms[:, None, :], (num_states, n, n))[others]
    key = servers * place[0] + rest.reshape(num_states, n, n - 1) @ place[1:]
    arrival_target = np.searchsorted(perms @ place, key)
    arrival_take = np.tile(np.arange(d), (n, 1))
    arrival_take[servers, servers + 1] = -1

    # delivery from the server at rank pos (axis 1): the monitor and every
    # server at that rank or staler take its age; the ordering is unchanged
    rank = np.argsort(perms, axis=1)
    staler = rank[:, None, :] >= servers[:, None]
    sender = perms[:, :, None] + 1
    delivery_take = np.concatenate(
        [sender, np.where(staler, sender, servers + 1)], axis=2
    )

    # per state: its n arrivals, then its n deliveries
    state = np.arange(num_states)
    return ShsModel(
        num_states,
        d,
        source=np.repeat(state, 2 * n),
        target=np.hstack([arrival_target, np.repeat(state[:, None], n, axis=1)]).ravel(),
        rate=np.hstack([np.tile(lams, (num_states, 1)), np.array(mus)[perms]]).ravel(),
        take=np.hstack(
            [np.broadcast_to(arrival_take, (num_states, n, d)), delivery_take]
        ).reshape(-1, d),
        growth=np.ones((num_states, d)),
    )
