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
`ShsTransition` is the record of one row, for writing small models by hand
(`ShsModel.from_transitions`) and for reading a model row by row
(`ShsModel.transitions`).

Both linear systems have one form, diag * x = rhs + the sum of rate * x[unknown]
over the terms (equation, unknown, rate), which `_matrix` assembles and
`_residual` checks. Stationary balance: diag is the exit rates, each
transition is a term (target, source, rate), rhs is 0. Expected age: diag is
each state's exit rate per coordinate, the terms are `_age_terms`, rhs is
growth * pi.
"""
from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .model import positive_rate

# solved systems must reproduce their equations to this relative residual
RESIDUAL_RTOL = 1e-10
# expected ages below this are a modeling error, not noise
NEGATIVE_ATOL = 1e-9


class NonErgodicError(RuntimeError):
    """The chain is reducible or its linear systems are singular beyond tolerance."""


class NegativeSolutionError(RuntimeError):
    """The age system produced materially negative expectations."""


@dataclass(frozen=True)
class ShsTransition:
    """One Markov transition: source state -> target state at `rate`.

    The ages reset by x'[c] = x[take[c]], and x'[c] = 0 where take[c] = -1.
    """

    source: int
    target: int
    rate: float
    take: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "rate", positive_rate("transition rate", self.rate))
        take = np.asarray(self.take)
        if take.ndim != 1 or not _is_map(take):
            raise ValueError("reset map must be a 1-D integer array in [-1, d)")
        object.__setattr__(self, "take", take)

    @property
    def reset(self) -> np.ndarray:
        """The reset as the 0/1 matrix A of x' = x @ A: A[r, c] = 1 where take[c] == r."""
        return np.equal.outer(np.arange(self.take.size), self.take).astype(float)


def _is_map(take: np.ndarray) -> bool:
    """Integer entries in [-1, d), d being the length of the last axis."""
    return take.dtype.kind in "iu" and bool(np.all((take >= -1) & (take < take.shape[-1])))


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
        if not _is_map(take):
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

    @classmethod
    def from_transitions(
        cls,
        num_states: int,
        age_dim: int,
        transitions: Iterable[ShsTransition],
        growth: np.ndarray,
    ) -> ShsModel:
        """Pack ShsTransition records, in order, into a model's arrays."""
        trans = tuple(transitions)
        if any(t.take.shape != (age_dim,) for t in trans):
            raise ValueError("reset map shape must be (age_dim,)")
        return cls(
            num_states,
            age_dim,
            source=np.array([t.source for t in trans], dtype=np.intp),
            target=np.array([t.target for t in trans], dtype=np.intp),
            rate=np.array([t.rate for t in trans], dtype=float),
            take=np.array([t.take for t in trans], dtype=np.intp).reshape(-1, age_dim),
            growth=growth,
        )

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
    """Solve m @ x = rhs; a singular system (or an overflowed solution) is NonErgodicError."""
    try:
        x = np.linalg.solve(m, rhs)
    except np.linalg.LinAlgError as e:
        raise NonErgodicError(f"{system} system singular: {e}") from None
    if not np.all(np.isfinite(x)):
        raise NonErgodicError(f"{system} system singular: solution is not finite")
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


def _age_terms(model: ShsModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(equation, unknown, rate) of each copy term of the age equations.

    Transition k adds rate[k] * v[source[k], take[k, c]] to the equation of
    (target[k], c) for every kept coordinate c. Equations and unknowns are
    flat indices, state-major; terms come in transition order.
    """
    d, take = model.age_dim, model.take
    k, c = np.nonzero(take >= 0)
    return model.target[k] * d + c, model.source[k] * d + take[k, c], model.rate[k]


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
    first scaled down by a power of two that brings the largest exit rate,
    which bounds every rate, below 1: the ratio is unchanged, and the sums
    cannot overflow for rates near the float maximum.
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
    diag = np.repeat(model.exit_rates(), model.age_dim)
    return _residual(diag, _age_terms(model), v.ravel(), (model.growth * pi[:, None]).ravel())


def stationary_distribution(model: ShsModel) -> np.ndarray:
    """Stationary distribution of the discrete chain.

    Checks irreducibility by reachability first; one balance equation is
    replaced by normalization, and the full balance residual is verified on
    the solution.
    """
    if not _strongly_connected(model):
        raise NonErgodicError("chain is not irreducible")
    diag, terms = model.exit_rates(), (model.target, model.source, model.rate)
    m = _matrix(diag, terms)
    rhs = np.zeros(model.num_states)
    m[-1, :] = 1.0
    rhs[-1] = 1.0
    pi = _solve(m, rhs, "stationary")
    if pi.min() < -1e-12:
        raise NonErgodicError(f"stationary distribution has negative mass {pi.min():.3e}")
    pi = np.maximum(pi, 0.0)
    pi /= pi.sum()
    worst = _residual(diag, terms, pi, 0.0)
    if worst > RESIDUAL_RTOL:
        raise NonErgodicError(
            f"balance residual {worst:.3e} exceeds {RESIDUAL_RTOL:.0e}"
        )
    return pi


def solve_age(model: ShsModel) -> ShsSolution:
    """Solve for expected age correlations and the average age at the monitor.

    The unknown v[q, c] is coordinate c's expected age times pi[q], row q
    being state q; its equation takes the copy terms of `_age_terms`. The
    average age is the sum of v[:, 0].
    """
    pi = stationary_distribution(model)
    diag = np.repeat(model.exit_rates(), model.age_dim)
    terms = _age_terms(model)
    rhs = (model.growth * pi[:, None]).ravel()
    flat = _solve(_matrix(diag, terms), rhs, "age")
    worst = _residual(diag, terms, flat, rhs)
    if worst > RESIDUAL_RTOL:
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
