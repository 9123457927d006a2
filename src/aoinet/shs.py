"""Piecewise-linear age processes driven by a finite Markov chain.

The state is a discrete chain q(t) plus a vector of ages x that grow at unit
rate (where marked). Each transition resets the ages by a coordinate map
`take`: the new x'[c] is the old x[take[c]], or 0 where take[c] = -1 (the
reset maps of stochastic hybrid systems, Yates & Kaul, IEEE T-IT 2019).
Solving for the stationary distribution and the per-state expected ages
yields the average age at the monitor as the sum of the 0-coordinate
expectations.

A model stores its T transitions as one set of arrays, row k being
transition k: `source`, `target` (integer state indices) and `rate` of shape
(T,), and `take` of shape (T, d), one reset map per row. The solver reads
them with vectorized calls (np.bincount, np.subtract.at), which accumulate in
row order, so the transition order fixes the rounding of every sum.
A chain is written only as these arrays, which `ShsModel` checks; the
`ShsTransition` records of `ShsModel.transitions` are a read view of its rows.

Both linear systems have one form, diag * x = rhs + the sum of rate *
x[unknown] over the terms (equation, unknown, rate), which `_matrix` assembles
and `_residual` checks. Stationary balance: diag is the exit rates, each
transition is a term (target, source, rate), rhs is 0. Expected age: diag and
terms are `_age_terms`, rhs is growth * pi. A self-loop that keeps a
coordinate (a self-copy) is left out of both, so each diagonal entry is a sum
of positive rates. The system is solved in blocks of coordinates taken in the
order 1, ..., d - 1, 0, a block ending where no equation so far reads a later
coordinate (`_age_blocks`); server coordinates ordered freshest first read no
staler one. When there are several blocks, each block's unknowns fall into
groups that no term of the block links (`_groups`), and each group is solved
alone: a group of one unknown by division, the groups of one size as one
stacked solve, and a block of one group as one dense solve. With distinct
servers, server coordinate c's block splits into groups of (c - 1)! states.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

# solved systems must reproduce their equations to this relative residual
RESIDUAL_RTOL = 1e-10
# expected ages below this are a modeling error, not noise
NEGATIVE_ATOL = 1e-9
BLOCK_UNKNOWNS = 128  # age-system blocks are merged up to about this many unknowns
# past this max rate / min rate, large arrival rates lose digits: one source on
# three distinct servers with arrival rates x 1e8 was 8e-10 off, x 1e12 8e-6
MAX_RATE_SPAN = 1e6


class NonErgodicError(RuntimeError):
    """The chain is reducible or its linear systems are singular beyond tolerance."""


class NegativeSolutionError(RuntimeError):
    """The age system produced materially negative expectations."""


@dataclass(frozen=True)
class ShsTransition:
    """One Markov transition, row k of a model's arrays, read-only.

    The ages reset by x'[c] = x[take[c]], and x'[c] = 0 where take[c] = -1.
    """

    source: int
    target: int
    rate: float
    take: np.ndarray

    @property
    def reset(self) -> np.ndarray:
        """The reset as the 0/1 matrix A of x' = x @ A: A[r, c] = 1 where take[c] == r."""
        return np.equal.outer(np.arange(self.take.size), self.take).astype(float)


@dataclass
class ShsModel:
    """A chain over `num_states` states with `age_dim` age coordinates.

    Transition k goes from source[k] to target[k] at rate[k] and resets the
    ages by the map take[k] (see ShsTransition). growth[q] is the 0/1 vector
    of coordinates that grow at unit rate in state q.
    """

    num_states: int
    age_dim: int
    source: np.ndarray
    target: np.ndarray
    rate: np.ndarray
    take: np.ndarray
    growth: np.ndarray

    def __post_init__(self) -> None:
        self.growth = np.asarray(self.growth, dtype=float)
        if self.num_states < 1 or self.age_dim < 1:
            raise ValueError("num_states and age_dim must be >= 1")
        if self.growth.shape != (self.num_states, self.age_dim):
            raise ValueError("growth must have shape (num_states, age_dim)")
        if not np.all((self.growth == 0) | (self.growth == 1)):
            raise ValueError("growth entries must be 0 or 1")
        source, target, take = (np.asarray(a) for a in (self.source, self.target, self.take))
        rate = np.asarray(self.rate, dtype=float)
        if take.ndim != 2 or any(a.shape != take.shape[:1] for a in (source, target, rate)):
            raise ValueError("transition arrays must have one entry per row of take")
        if not np.all(np.isfinite(rate) & (rate > 0)):
            raise ValueError("transition rate must be finite and > 0")
        if take.dtype.kind not in "iu" or not np.all((take >= -1) & (take < take.shape[1])):
            raise ValueError("reset map must be a 1-D integer array in [-1, d)")
        for q in (source, target):
            if q.dtype.kind not in "iu" or not np.all((q >= 0) & (q < self.num_states)):
                raise ValueError("transition state index out of range")
        if take.shape[1] != self.age_dim:
            raise ValueError("reset map shape must be (age_dim,)")
        self.source, self.target, self.take = (
            a.astype(np.intp, copy=False) for a in (source, target, take)
        )
        self.rate = rate

    @property
    def transitions(self) -> Sequence[ShsTransition]:
        """The transitions as ShsTransition records, in row order (a read-only view)."""
        return _TransitionView(self)

    def exit_rates(self) -> np.ndarray:
        return np.bincount(self.source, weights=self.rate, minlength=self.num_states)


class _TransitionView(Sequence):
    """Row k of a model's transition arrays as a ShsTransition record."""

    def __init__(self, model: ShsModel) -> None:
        self._model = model

    def __len__(self) -> int:
        return self._model.rate.size

    def __getitem__(self, k: int) -> ShsTransition:
        m = self._model
        return ShsTransition(int(m.source[k]), int(m.target[k]), float(m.rate[k]), m.take[k])


@dataclass
class ShsSolution:
    """Stationary distribution, per-state expected ages (rows), and the average age."""

    pi: np.ndarray
    v: np.ndarray
    aoi: float


def _solve(m: np.ndarray, rhs: np.ndarray, system: str) -> np.ndarray:
    """Solve m @ x = rhs; a singular system (or an overflowed solution) is NonErgodicError.

    m may also be a stack of k systems of g unknowns, shape (k, g, g) with rhs
    (k, g); a stack of 1 x 1 systems is a division.
    """
    try:
        if m.ndim == 2:
            x = np.linalg.solve(m, rhs)
        elif m.shape[1] == 1:
            # a zero divisor gives inf or nan, refused below
            with np.errstate(all="ignore"):
                x = rhs / m[:, 0]
        else:
            x = np.linalg.solve(m, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError as e:
        raise NonErgodicError(f"{system} system singular: {e}") from None
    if not np.all(np.isfinite(x)):
        raise NonErgodicError(f"{system} system singular: solution is not finite")
    return x


def _groups(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each unknown's group in the square system m, and the group's size.

    Unknowns share a group where a path of nonzero entries m[i, j] links
    them; a group is named by its first unknown. Off its diagonal, a matrix
    of `_matrix` is nonzero exactly at its terms' (equation, unknown) pairs,
    as every rate is positive.
    """
    n = m.shape[0]
    a, b = np.divmod(np.flatnonzero(m != 0), n)
    # a forest with root[i] <= i: hook each link's larger root onto the
    # smaller, then point every unknown at its root, until no link is between roots
    root, ra, rb = np.arange(n), a, b
    while not (ra == rb).all():
        np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
        while not ((up := root[root]) == root).all():
            root = up
        ra, rb = root[a], root[b]
    return root, np.bincount(root)[root]


def _solve_groups(diag: np.ndarray, terms: tuple, rhs: np.ndarray, system: str) -> np.ndarray:
    """Solve the system of `_matrix(diag, terms)` as its independent groups.

    The matrix is split by `_groups`: a system of one group is one dense
    solve, and the groups of each size are one stacked solve, each group's
    unknowns in index order.
    """
    m = _matrix(diag, terms)
    group, size = _groups(m)
    if size[0] == size.size:
        return _solve(m, rhs, system)
    order = np.lexsort((group, size))
    size = size[order]
    bounds = [0, *(np.flatnonzero(size[1:] != size[:-1]) + 1), size.size]
    x = np.empty_like(rhs)
    for lo, hi in zip(bounds, bounds[1:]):
        at = order[lo:hi].reshape(-1, size[lo])
        x[at] = _solve(m[at[:, :, None], at[:, None, :]], rhs[at], system)
    return x


def _strongly_connected(model: ShsModel) -> bool:
    def reaches_all(frm: np.ndarray, to: np.ndarray) -> bool:
        # breadth-first from state 0, one whole frontier per step
        seen = np.zeros(model.num_states, dtype=bool)
        seen[0] = True
        frontier = seen.copy()
        while frontier.any():
            step = np.zeros_like(seen)
            step[to[frontier[frm]]] = True
            frontier = step & ~seen
            seen |= step
        return bool(seen.all())

    return reaches_all(model.source, model.target) and reaches_all(model.target, model.source)


def _age_terms(model: ShsModel) -> tuple[np.ndarray, tuple, list]:
    """The age equations' diagonal, copy terms (equation, unknown, rate) and blocks.

    Transition k adds rate[k] to the diagonal entry of (source[k], c) for every
    coordinate c, and rate[k] * v[source[k], take[k, c]] to the equation of
    (target[k], c) for every kept c, except at a self-copy of c. Equations and
    unknowns are flat indices, state-major; terms come by coordinate in block
    order, each in transition order.
    """
    s, (t, d) = model.num_states, model.take.shape
    order = np.arange(1, d + 1) % d
    kept = model.take.T[order]  # row p holds coordinate order[p]
    # p * t + k for each row p and transition k that is no self-copy
    at = np.flatnonzero((kept != order[:, None]) | (model.source != model.target))
    unknown = kept.ravel()[at]
    copy = unknown >= 0
    blocks, (p, k) = _age_blocks(kept, s, at[copy]), np.divmod(at, t)
    del kept, at  # before the term arrays grow
    diag = np.bincount((model.source * d)[k] + order[p], weights=model.rate[k], minlength=s * d)
    p, k, unknown = p[copy], k[copy], unknown[copy]
    unknown += (model.source * d)[k]
    return diag, ((model.target * d)[k] + order[p], unknown, model.rate[k]), blocks


def _age_blocks(kept: np.ndarray, s: int, at: np.ndarray) -> list[tuple]:
    """(first term, end term, coordinates) of each block, or [(0, None, None)].

    Coordinate c >= 1 is row c - 1 of kept and the monitor row d - 1, and at
    holds each term's flat index into kept. Merged blocks end at the last
    block end in each span of BLOCK_UNKNOWNS unknowns.
    """
    (d, t), cuts = kept.shape, [0, kept.shape[0]]
    if s * d > BLOCK_UNKNOWNS:
        reach = np.where((kept == 0).any(axis=1), d - 1, kept.max(axis=1, initial=-1) - 1)
        ends = np.flatnonzero(np.maximum.accumulate(reach) <= np.arange(d)) + 1
        cuts = [0, *ends[np.append(np.diff((ends * s - 1) // BLOCK_UNKNOWNS) > 0, True)]]
    if len(cuts) == 2:
        return [(0, None, None)]
    start, order = np.searchsorted(at, np.multiply(cuts, t)), np.arange(1, d + 1) % d
    return [(lo, hi, order[a:b]) for lo, hi, a, b in zip(start, start[1:], cuts, cuts[1:])]


def _matrix(diag: np.ndarray, terms: tuple) -> np.ndarray:
    """The dense matrix of diag * x - sum of rate * x[unknown], row per equation."""
    eq, unknown, rate = terms
    m = np.zeros((diag.size, diag.size))
    np.fill_diagonal(m, diag)
    # repeated entries accumulate in term order
    np.subtract.at(m, (eq, unknown), rate)
    return m


def _residual(diag: np.ndarray, terms: tuple, x: np.ndarray, rhs: np.ndarray | float) -> float:
    """Worst relative residual of diag * x = rhs + sum of rate * x[unknown].

    Relative to the per-equation sum of term magnitudes before cancellation,
    so a tiny net imbalance on large opposing terms reads as tiny. Rates are
    first scaled down by a power of two that brings the largest diagonal entry,
    which bounds every term's rate, below 1: the ratio is unchanged, and the
    sums cannot overflow for rates near the float maximum.
    """
    eq, unknown, rate = terms
    unit = math.ldexp(1.0, -max(math.frexp(diag.max())[1], 0))
    diag, rate, rhs = diag * unit, rate * unit, rhs * unit
    term = rate * x[unknown]
    lhs = diag * x
    total = rhs + np.bincount(eq, weights=term, minlength=x.size)
    scale = np.abs(lhs) + np.abs(rhs) + np.bincount(eq, weights=np.abs(term), minlength=x.size)
    return float(np.max(np.abs(lhs - total) / np.maximum(scale, 1e-300)))


def balance_residual(model: ShsModel, pi: np.ndarray) -> float:
    """Worst relative residual of the stationary balance equations."""
    return _residual(model.exit_rates(), (model.target, model.source, model.rate), pi, 0.0)


def age_residual(model: ShsModel, pi: np.ndarray, v: np.ndarray) -> float:
    """Worst relative residual of the expected-age equations for a solution v."""
    diag, terms, _ = _age_terms(model)
    return _residual(diag, terms, v.ravel(), (model.growth * pi[:, None]).ravel())


def stationary_distribution(model: ShsModel) -> np.ndarray:
    """Stationary distribution of the discrete chain.

    Checks irreducibility by reachability first; one balance equation is
    replaced by normalization, and the full balance residual is verified on
    the solution. The solved matrix leaves out self-loops: they do not change
    the balance, and their cancelling diagonal entries lose small rates.
    """
    if not _strongly_connected(model):
        raise NonErgodicError("chain is not irreducible")
    exits, terms = model.exit_rates(), (model.target, model.source, model.rate)
    if not np.all(np.isfinite(exits)):
        raise NonErgodicError(f"exit rate {float(exits.max())!r} is not finite")
    moves = model.source != model.target
    source, rate = model.source[moves], model.rate[moves]
    diag = np.bincount(source, weights=rate, minlength=model.num_states)
    m = _matrix(diag, (model.target[moves], source, rate))
    rhs = np.zeros(model.num_states)
    m[-1, :] = 1.0
    rhs[-1] = 1.0
    pi = _solve(m, rhs, "stationary")
    if pi.min() < -1e-12:
        raise NonErgodicError(f"stationary distribution has negative mass {pi.min():.3e}")
    pi = np.maximum(pi, 0.0)
    pi /= pi.sum()
    worst = _residual(exits, terms, pi, 0.0)
    # a NaN residual fails too
    if not worst <= RESIDUAL_RTOL:
        raise NonErgodicError(
            f"balance residual {worst:.3e} exceeds {RESIDUAL_RTOL:.0e}"
        )
    return pi


def solve_age(model: ShsModel) -> ShsSolution:
    """Solve for expected age correlations and the average age at the monitor.

    The unknown v[q, c] is coordinate c's expected age times pi[q], row q
    being state q; its equation takes the copy terms of `_age_terms`. The
    average age is the sum of v[:, 0]. A system of one block is one dense
    solve; otherwise each block is solved group by group (`_solve_groups`),
    after the blocks before it. A chain whose rates span more than
    MAX_RATE_SPAN is refused with a ValueError after its stationary solve.
    """
    pi = stationary_distribution(model)
    span = float(model.rate.max()) / float(model.rate.min())
    if not span <= MAX_RATE_SPAN:
        raise ValueError(
            f"rate span {span:.3g} (max rate / min rate) is above {MAX_RATE_SPAN:g}, "
            f"where the age solve loses the smaller rates"
        )
    diag, terms, blocks = _age_terms(model)
    (eq, unknown, rate), rhs = terms, (model.growth * pi[:, None]).ravel()
    if len(blocks) == 1:
        flat = _solve(_matrix(diag, terms), rhs, "age")
    else:
        # solved blocks' terms go to the rhs; local[i]: i's int32 index in its block, -1 if solved
        flat, local = np.zeros_like(rhs), np.empty(rhs.size, dtype=np.int32)
        state_start = np.arange(0, rhs.size, model.age_dim)[:, None]
        for lo, hi, coords in blocks:
            idx = (state_start + coords).ravel()
            local[idx] = np.arange(idx.size)
            e, u, r = local[eq[lo:hi]], unknown[lo:hi], rate[lo:hi]
            b = rhs[idx] + np.bincount(e, weights=r * flat[u], minlength=idx.size)
            u = local[u]
            keep = u >= 0
            flat[idx] = _solve_groups(diag[idx], (e[keep], u[keep], r[keep]), b, "age")
            local[idx] = -1
    worst = _residual(diag, terms, flat, rhs)
    if not worst <= RESIDUAL_RTOL:
        raise NonErgodicError(
            f"age system residual {worst:.3e} exceeds {RESIDUAL_RTOL:.0e}"
        )
    if flat.min() < -NEGATIVE_ATOL:
        raise NegativeSolutionError(
            f"age expectation {flat.min():.3e} is materially negative"
        )
    v = np.maximum(flat, 0.0).reshape(model.num_states, model.age_dim)
    aoi = float(v[:, 0].sum())
    # extreme rate ratios can lose every service term and leave a zero age
    if not (math.isfinite(aoi) and aoi > 0):
        raise NonErgodicError(f"average age {aoi!r} is not finite and > 0")
    return ShsSolution(pi=pi, v=v, aoi=aoi)
