"""Chain builders for preemptive-server update networks.

All builders model LCFS-S service with the age vector ordered freshest-first
(coordinate 0 is the monitor, coordinate k the k-th freshest server), so a
reset map depends only on the slot that receives or delivers (`_slot_maps`).
Delivered updates overwrite the monitor and, through harmless synthetic
preemption, every staler server, which collapses or bounds the state space.

Only a chain's rates depend on the servers' rates. Its other arrays, and the
solver's plan of them (`ShsPlan`), depend on its shape alone, so builders
cache them, read-only, and every model of one shape shares them: distinct
servers per n (`_orderings`, at most six entries), exchangeable ones per n
and whether other sources send (`_exchangeable`, the last
_EXCHANGEABLE_SHAPES shapes of at most BLOCK_UNKNOWNS age unknowns; larger
shapes are planned on every build and not kept). A shape's arrays are checked
once, when its plan is made; a build checks the servers' rates and gets a
model from `ShsPlan.model`, which checks only the rates. Exchangeable servers
make a chain of one state, which the solver's stationary step does not solve.
"""
from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .model import positive_rate
from .shs import BLOCK_UNKNOWNS, ShsModel, ShsPlan

# exchangeable-server shapes whose plans stay cached: 1.4 MB each at most
_EXCHANGEABLE_SHAPES = 16


def _slot_maps(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The arrival, displacement and delivery maps; row s - 1 acts on slot s."""
    coord = np.arange(n + 1)
    slot = coord[1:, None]
    # a fresh update enters as the new slot-th freshest age: the monitor keeps
    # its age, fresher coordinates shift down one slot, the previous occupant
    # of the slot is dropped, staler coordinates are untouched
    arrival = coord - (coord <= slot)
    arrival[:, :2] = (0, -1)
    # another source's update drops the slot's occupant, staler slots move one
    # slot fresher, and the displaced server's monitor-age content is appended
    # as the stalest coordinate
    displaced = coord + (coord >= slot)
    displaced[:, -1] = 0
    # the slot's update reaches the monitor: the monitor and every slot at or
    # staler than it take its age (synthetic refresh of the stale servers);
    # fresher coordinates are untouched
    delivery = np.minimum(coord, slot)
    delivery[:, 0] = slot[:, 0]
    return arrival, displaced, delivery


def build_single_source_homogeneous(n: int, lam: float, mu: float) -> ShsModel:
    """One source, n exchangeable servers, per-server rates (lam, mu).

    The one-source case of build_multi_source_homogeneous: a single discrete
    state, n arrival transitions (the fresh update can land in any freshness
    slot) and n delivery transitions.
    """
    return build_multi_source_homogeneous(n, 0, [positive_rate("lam", lam)], mu)


def build_multi_source_homogeneous(
    n: int,
    tracked: int,
    rates: list[float] | tuple[float, ...],
    mu: float,
) -> ShsModel:
    """len(rates) sources share n exchangeable servers; the age is source `tracked`'s.

    rates[i] is source i's per-server arrival rate. Other sources' updates
    displace tracked content without refreshing the monitor: the displaced
    coordinate is dropped and a coordinate carrying the monitor's own age
    (useless if delivered) appears as the stalest entry.

    Size: 2n transitions (3n with other sources), each with an (n + 1)-long
    reset map, and about n^2 age-system terms (1.5 n^2 in a dense (n + 1)^2
    system with other sources), so peak memory is 75 to 85 n^2 bytes (125 to
    130 n^2 with other sources). Up to n = BLOCK_UNKNOWNS - 1 the plan of a
    shape is cached and shared, at most 1.4 MB each (n = 127 with other
    sources); from n = BLOCK_UNKNOWNS each build plans anew. n = 1,000 then
    builds in 0.08 to 0.10 s and solves in 0.03 s, and n = 2,000 in 0.43 to
    0.51 s and 0.14 to 0.15 s at 0.34 GB (one BLAS thread, 2-vCPU x86, numpy
    2.4 with OpenBLAS); n = 3,000 took 1.2 s in all at 0.68 GB, and n =
    20,000 needs about 30 GB.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError("n must be a positive integer")
    rates = [float(r) for r in rates]
    if not (0 <= tracked < len(rates)):
        raise ValueError("tracked index out of range")
    if any(not math.isfinite(r) or r < 0 for r in rates):
        raise ValueError("rates must be finite and >= 0")
    lam_i = rates[tracked]
    if lam_i <= 0:
        raise ValueError("tracked source rate must be > 0")
    mu = positive_rate("mu", mu)
    lam_bar = sum(r for i, r in enumerate(rates) if i != tracked)

    # shapes of at most BLOCK_UNKNOWNS age unknowns share a cached plan
    planner = _exchangeable if n < BLOCK_UNKNOWNS else _exchangeable.__wrapped__
    plan = planner(n, lam_bar > 0)
    # rows: n arrivals, n displacements if other sources send, n deliveries
    map_rates = [lam_i, lam_bar, mu] if lam_bar > 0 else [lam_i, mu]
    return plan.model(np.repeat(map_rates, n))


def build_heterogeneous_single_source(
    arrival_rates: list[float] | tuple[float, ...],
    service_rates: list[float] | tuple[float, ...],
) -> ShsModel:
    """One source, n distinct servers with per-server (lambda_j, mu_j).

    Discrete states are the n! freshness orderings of the servers, indexed by
    lexicographic rank of the permutation (freshest first); coordinate r + 1
    is the age at rank r. An arrival at server j zeroes its age and moves it
    to the front; a delivery from rank r refreshes the monitor and every rank
    at or staler than r, leaving the ordering unchanged (self-loop).

    The chain is written as whole arrays (all orderings at once), in the
    order: per state, its n arrivals by server, then its n deliveries by rank.
    Only the rates depend on the servers' rates: the other arrays, and the
    solver's plan of them (`ShsPlan`), are built once per n and shared,
    read-only, by every model of that n, so a later solve skips the
    structural work.

    Capped at n <= 6. Each server coordinate reads only itself or a fresher
    one, so `solve_age` solves n + 1 blocks of n! unknowns. Coordinate c's
    equations couple two orderings only when they hold the same servers at
    ranks c - 1 and staler, so its block splits into independent groups of
    (c - 1)! orderings, and only the monitor's block is one n!-unknown solve.
    At n = 6 the first build takes about 2 ms and `aoinet analytic` 0.05 to
    0.09 s at a 46 MB peak (one BLAS thread, 2-vCPU x86 machine, numpy 2.4
    with OpenBLAS). n = 7 would still need a stationary solve and a monitor
    block of 5040 unknowns, each a 200 MB dense LU.
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
    perms, plan = _orderings(n)
    # per state: its n arrivals by server, then its n deliveries by rank
    return plan.model(np.hstack([np.tile(lams, (len(perms), 1)), np.array(mus)[perms]]).ravel())


@functools.lru_cache(maxsize=None)
def _orderings(n: int) -> tuple[np.ndarray, ShsPlan]:
    """The n! orderings of n distinct servers and the plan of their chain's arrays.

    Every array is read-only, as all models of n servers share them; the
    builder's cap bounds the cache to six entries.
    """
    # state q is the q-th ordering in lexicographic order; read as base-n
    # numbers the orderings are sorted, so a rank is one searchsorted
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    num_states = len(perms)
    place = n ** np.arange(n - 1, -1, -1)
    servers = np.arange(n)
    d = n + 1

    # arrival at server j (axis 1): j moves to the front, the others keep
    # their order
    others = perms[:, None, :] != servers[:, None]
    rest = np.broadcast_to(perms[:, None, :], (num_states, n, n))[others]
    key = servers * place[0] + rest.reshape(num_states, n, n - 1) @ place[1:]
    arrival_target = np.searchsorted(perms @ place, key)

    # an arrival's map acts on its server's rank, the r-th delivery's on rank r
    arrival, _, delivery = _slot_maps(n)

    # per state: its n arrivals, then its n deliveries
    state = np.arange(num_states)
    source = np.repeat(state, 2 * n)
    target = np.hstack([arrival_target, np.repeat(state[:, None], n, axis=1)]).ravel()
    take = np.hstack(
        [arrival[np.argsort(perms, axis=1)], np.broadcast_to(delivery, (num_states, n, d))]
    ).reshape(-1, d)
    growth = np.ones((num_states, d))
    for a in (perms, source, target, take, growth):
        a.flags.writeable = False
    rate = np.ones(source.size)  # a plan reads no rate
    return perms, ShsPlan(ShsModel(num_states, d, source, target, rate, take, growth))


@functools.lru_cache(maxsize=_EXCHANGEABLE_SHAPES)
def _exchangeable(n: int, others: bool) -> ShsPlan:
    """The plan of the chain of n exchangeable servers, with `others`' displacements.

    One state, so every transition is a self-loop: n arrivals, n displacements
    if other sources send, then n deliveries. Every array is read-only, as all
    models of one shape share them.
    """
    maps = _slot_maps(n)  # arrival, displacement, delivery
    take = np.concatenate(maps if others else maps[::2])
    del maps  # before the plan's index arrays grow
    state = np.zeros(take.shape[0], dtype=np.intp)
    growth = np.ones((1, n + 1))
    for a in (state, take, growth):
        a.flags.writeable = False
    return ShsPlan(ShsModel(1, n + 1, state, state, np.ones(state.size), take, growth))
