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
x[unknown] over the terms (equation, unknown, rate), which `_residual` checks,
and are solved as stacks: k equal systems of g unknowns, shape (k, g, g),
which `_stack` assembles. Stationary balance: diag is the exit rates, each
transition is a term (target, source, rate), rhs is 0, and one equation is
replaced by normalization; it is one (1, s, s) stack. Expected age: diag and
terms are `_age_terms`, rhs is growth * pi. A self-loop that keeps a
coordinate (a self-copy) is left out of both, so each diagonal entry is a sum
of positive rates. The age system is solved in blocks of coordinates taken in
the order 1, ..., d - 1, 0, a block ending where no equation so far reads a
later coordinate (`_age_blocks`); server coordinates ordered freshest first
read no staler one. A system of one block is one group in index order, one
(1, N, N) stack, planned without `_groups` or a sort. When there are several
blocks, each block's unknowns fall into groups that no term of the block
links (`_groups`), and the groups of one size are one stack: a block of one
group is a stack of one, and a group of one unknown is a division. With
distinct servers, server coordinate c's block splits into groups of
(c - 1)! states. The first block reads no solved unknowns, so only the later
ones take the solved blocks' terms into their rhs.

A solve is split into a plan and a numeric pass. One plan (`ShsPlan`) holds
what follows from the structural arrays alone (`num_states`, `source`,
`target`, `take`, `growth`) for both systems: the irreducibility verdict,
which every rate being positive makes structural, the transitions that
change state and their places in the balance stack, and the age system's
terms as indices into `rate`, its blocks and their groups. The numeric pass
gathers the rates into them, adding the same terms in the same order, so a
planned solve gives the same bytes. `solve_age` takes the model's own plan
while it fits (`ShsPlan.fits`: the model holds the very arrays the plan was
made from, as a model made by `ShsPlan.model` does), else plans the model on
the spot, and hands that plan to `stationary_distribution`, so each solve
plans at most once.
A plan is never changed once built, so threads may share it.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

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
    # set by ShsPlan.model only
    _plan: ShsPlan | None = field(default=None, init=False, repr=False, compare=False)

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
            raise ValueError(
                "take must be a (transitions, age_dim) integer array in [-1, age_dim)"
            )
        for q in (source, target):
            if q.dtype.kind not in "iu" or not np.all((q >= 0) & (q < self.num_states)):
                raise ValueError("transition state index out of range")
        if take.shape[1] != self.age_dim:
            raise ValueError("take must have shape (transitions, age_dim)")
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


class ShsPlan:
    """The rate-free part of solving one chain, built once and never changed.

    Made from a model's structural arrays; `model(rate)` makes models on
    those arrays that reuse it (see the module docstring). Balance:
    `connected` is the irreducibility verdict, `moves` the transitions that
    change state, `mover` their sources and `place` their flat positions in
    the (1, s, s) stack. Age: `diag` is (entry, transition) pairs and
    `terms` (equation, unknown, transition) triples, from `_age_index`;
    `blocks` are those of `_age_blocks`. `steps` holds each block's slice of
    the terms and its stacks: per group size g in increasing order, the
    (k, g) array of the k groups' flat unknowns, each group's in index
    order, and the terms that link them (an index array or a slice), in term
    order. The term of equation e and unknown u sits at flat position
    row[e] + col[u] of its stack.
    """

    def __init__(self, model: ShsModel) -> None:
        s = self.num_states = model.num_states
        self.arrays = model.source, model.target, model.take, model.growth
        self.connected = _strongly_connected(model)
        self.moves = np.flatnonzero(model.source != model.target)
        self.mover = model.source[self.moves]
        self.place = model.target[self.moves] * s + self.mover
        self.diag, self.terms, self.blocks = _age_index(model)
        self.row, self.col, self.steps = _block_steps(
            s, model.age_dim, self.blocks, *self.terms[:2]
        )

    def fits(self, model: ShsModel) -> bool:
        """Whether the model holds the very arrays the plan was made from."""
        arrays = model.source, model.target, model.take, model.growth
        return self.num_states == model.num_states and all(
            a is b for a, b in zip(arrays, self.arrays)
        )

    def model(self, rate: np.ndarray) -> ShsModel:
        """A model on the plan's arrays with these rates, checked like any other."""
        source, target, take, growth = self.arrays
        model = ShsModel(self.num_states, take.shape[1], source, target, rate, take, growth)
        model._plan = self
        return model

    def system(self, rate: np.ndarray) -> tuple[np.ndarray, tuple]:
        """The age diagonal and copy terms (equation, unknown, rate) for these rates."""
        at, k = self.diag
        eq, unknown, term = self.terms
        diag = np.bincount(at, weights=rate[k], minlength=self.row.size)
        return diag, (eq, unknown, rate[term])

    def stack(self, diag: np.ndarray, terms: tuple, at: np.ndarray, own) -> np.ndarray:
        """The stack of the groups `at` from the system's diagonal, its terms and their `own`."""
        eq, unknown, rate = terms
        place = self.row[eq[own]]
        place += self.col[unknown[own]]
        return _stack(diag[at], place, rate[own])


def _plan(model: ShsModel) -> ShsPlan:
    """The model's own plan while it fits the model, else a plan made now."""
    plan = model._plan
    return plan if plan is not None and plan.fits(model) else ShsPlan(model)


def _stack(diag: np.ndarray, place: np.ndarray, rate: np.ndarray) -> np.ndarray:
    """The stack of k systems diag * x - sum of rate * x[unknown], shape (k, g, g).

    diag is (k, g), and place each term's flat position in the stack.
    """
    k, g = diag.shape
    m = np.zeros((k, g, g))
    m.reshape(k, g * g)[:, :: g + 1] = diag
    # repeated entries accumulate in term order; flat positions are the fast path
    np.subtract.at(m.reshape(-1), place, rate)
    return m


def _solve(m: np.ndarray, rhs: np.ndarray, system: str) -> np.ndarray:
    """Solve the stack m @ x = rhs, shape (k, g, g) with rhs (k, g).

    A stack of 1 x 1 systems is a division. A singular system (or an
    overflowed solution) is NonErgodicError.
    """
    try:
        if m.shape[1] == 1:
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


def _groups(n: int, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each of n unknowns' group, and the group's size, where term i links a[i] and b[i].

    Unknowns share a group where a path of links joins them; a group is named
    by its first unknown. As every rate is positive, these are the groups of
    the nonzero entries of the terms' matrix.
    """
    # a link repeated back to back adds nothing: exchangeable servers' terms
    # repeat a few links many times
    new = np.ones(a.size, dtype=bool)
    new[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
    a, b = a[new], b[new]
    # a forest with root[i] <= i: hook each link's larger root onto the
    # smaller, then point every unknown at its root, until no link is between roots
    root, ra, rb = np.arange(n), a, b
    while not (ra == rb).all():
        np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
        while not ((up := root[root]) == root).all():
            root = up
        ra, rb = root[a], root[b]
    return root, np.bincount(root)[root]


def _block_steps(s: int, d: int, blocks: list, eq: np.ndarray,
                 unknown: np.ndarray) -> tuple[np.ndarray, np.ndarray, list]:
    """`ShsPlan.row`, `.col` and `.steps` for the blocks of `_age_blocks`.

    A system of one block is one group in index order. Otherwise the
    unknowns are numbered in solve order, block after block, each block's
    state-major over its coordinates. No term links two blocks, so one
    `_groups` call splits every block, and one sort orders the numbered
    unknowns by block, group size, group and number: a run of one block and
    one size is a stack.
    """
    n = s * d
    if len(blocks) == 1:
        at, every = np.arange(n), slice(0, eq.size)
        return at * n, at, [(every, [(at[None], every)])]
    count = np.array([c.size for _, _, c in blocks])  # coordinates per block
    off = np.zeros(count.size + 1, dtype=np.intp)
    np.cumsum(count * s, out=off[1:])
    # pos[q * d + c]: the unknown's block offset plus q * count + j, where c
    # is the j-th coordinate of its block
    coords = np.concatenate([c for _, _, c in blocks])
    block = np.repeat(np.arange(count.size), count)
    base, step = np.empty(d, dtype=np.intp), np.empty(d, dtype=np.intp)
    base[coords] = off[block] + np.arange(d) - np.repeat(np.cumsum(count) - count, count)
    step[coords] = count[block]
    pos = (np.arange(s)[:, None] * step + base).ravel()
    # a term whose unknown lies before its block's reads a solved block; the
    # others (own) link unknowns of their block
    u = pos[unknown]
    own = np.flatnonzero(np.concatenate(
        [u[lo:hi] >= start for (lo, hi, _), start in zip(blocks, off)]
    ))
    u = u[own]
    e = pos[eq[own]]
    group, size = _groups(n, e, u)
    del u
    block = np.repeat(np.arange(count.size), np.diff(off))
    order = np.lexsort((group, size, block))
    sorted_size, block = size[order], block[order]
    first = np.ones(n, dtype=bool)
    first[1:] = (sorted_size[1:] != sorted_size[:-1]) | (block[1:] != block[:-1])
    starts = np.flatnonzero(first)
    at = np.arange(n)
    # run: each numbered unknown's stack; rank: its place in the stack's k * g
    run, rank = np.empty_like(at), np.empty_like(at)
    run[order] = np.cumsum(first) - 1
    rank[order] = at - np.maximum.accumulate(np.where(first, at, 0))
    # a term's unknowns share a group, so a run: the terms by run, in term order
    e = run[e]
    own = own[np.argsort(e, kind="stable")]
    bounds = np.zeros(starts.size + 1, dtype=np.intp)
    np.cumsum(np.bincount(e, minlength=starts.size), out=bounds[1:])
    idx = np.empty_like(pos)
    idx[pos] = at
    steps = [(slice(lo, hi), []) for lo, hi, _ in blocks]
    for r, (a, z) in enumerate(zip(starts, [*starts[1:], n])):
        steps[block[a]][1].append(
            (idx[order[a:z]].reshape(-1, sorted_size[a]), own[bounds[r]:bounds[r + 1]])
        )
    rank, size = rank[pos], size[pos]
    return size * rank, rank % size, steps


def _strongly_connected(model: ShsModel) -> bool:
    """Whether every state reaches state 0 and state 0 every state.

    One breadth-first search, one whole frontier per step, from state 0 along
    the transitions and, as states num_states + q, against them.
    """
    s = model.num_states
    frm = np.concatenate([model.source, model.target + s])
    to = np.concatenate([model.target, model.source + s])
    seen = np.zeros(2 * s, dtype=bool)
    seen[[0, s]] = True
    frontier = seen.copy()
    while not seen.all() and frontier.any():
        step = np.zeros_like(seen)
        step[to[frontier[frm]]] = True
        frontier = step & ~seen
        seen |= step
    return bool(seen.all())


def _age_index(model: ShsModel) -> tuple[tuple, tuple, list]:
    """The age equations as indices into `rate`: diagonal, copy terms and blocks.

    Transition k adds rate[k] to the diagonal entry of (source[k], c) for every
    coordinate c, and rate[k] * v[source[k], take[k, c]] to the equation of
    (target[k], c) for every kept c, except at a self-copy of c. The diagonal
    is (entry, k) pairs and the terms (equation, unknown, k) triples, where
    entries, equations and unknowns are flat indices, state-major; both come
    by coordinate in block order, each in transition order.
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
    diag = (model.source * d)[k] + order[p], k
    p, k, unknown = p[copy], k[copy], unknown[copy]
    unknown += (model.source * d)[k]
    return diag, ((model.target * d)[k] + order[p], unknown, k), blocks


def _age_terms(model: ShsModel) -> tuple[np.ndarray, tuple, list]:
    """The age equations' diagonal, copy terms (equation, unknown, rate) and blocks.

    The model's rates gathered into its plan's indices (see `_age_index`).
    """
    plan = _plan(model)
    return (*plan.system(model.rate), plan.blocks)


def _age_blocks(kept: np.ndarray, s: int, at: np.ndarray) -> list[tuple]:
    """(first term, end term, coordinates) of each block.

    Coordinate c >= 1 is row c - 1 of kept and the monitor row d - 1, and at
    holds each term's flat index into kept. Merged blocks end at the last
    block end in each span of BLOCK_UNKNOWNS unknowns. One block lists its
    coordinates in index order.
    """
    (d, t), cuts = kept.shape, [0, kept.shape[0]]
    if s * d > BLOCK_UNKNOWNS:
        reach = np.where((kept == 0).any(axis=1), d - 1, kept.max(axis=1, initial=-1) - 1)
        ends = np.flatnonzero(np.maximum.accumulate(reach) <= np.arange(d)) + 1
        cuts = [0, *ends[np.append(np.diff((ends * s - 1) // BLOCK_UNKNOWNS) > 0, True)]]
    if len(cuts) == 2:
        return [(0, at.size, np.arange(d))]
    start, order = np.searchsorted(at, np.multiply(cuts, t)), np.arange(1, d + 1) % d
    return [(lo, hi, order[a:b]) for lo, hi, a, b in zip(start, start[1:], cuts, cuts[1:])]


def _residual(diag: np.ndarray, terms: tuple, x: np.ndarray, rhs: np.ndarray | float,
              parts: Sequence[slice] = (slice(None),)) -> float:
    """Worst relative residual of diag * x = rhs + sum of rate * x[unknown].

    Relative to the per-equation sum of term magnitudes before cancellation,
    so a tiny net imbalance on large opposing terms reads as tiny. Rates are
    first scaled down by a power of two that brings the largest diagonal entry,
    which bounds every term's rate, below 1: the ratio is unchanged, and the
    sums cannot overflow for rates near the float maximum. The terms are
    summed in `parts`, slices that each hold every term of their equations,
    so a large system's terms are not all scaled at once.
    """
    eq, unknown, rate = terms
    unit = math.ldexp(1.0, -max(math.frexp(diag.max())[1], 0))
    diag, rhs = diag * unit, rhs * unit
    lhs = diag * x
    # each equation takes its sums from one part and adds 0 from the others
    total, scale = rhs, np.abs(lhs) + np.abs(rhs)
    for t in parts:
        term = rate[t] * unit
        term *= x[unknown[t]]
        total = total + np.bincount(eq[t], weights=term, minlength=x.size)
        scale = scale + np.bincount(eq[t], weights=np.abs(term, out=term), minlength=x.size)
    return float(np.max(np.abs(lhs - total) / np.maximum(scale, 1e-300)))


def balance_residual(model: ShsModel, pi: np.ndarray) -> float:
    """Worst relative residual of the stationary balance equations."""
    return _residual(model.exit_rates(), (model.target, model.source, model.rate), pi, 0.0)


def age_residual(model: ShsModel, pi: np.ndarray, v: np.ndarray) -> float:
    """Worst relative residual of the expected-age equations for a solution v."""
    diag, terms, _ = _age_terms(model)
    return _residual(diag, terms, v.ravel(), (model.growth * pi[:, None]).ravel())


def stationary_distribution(model: ShsModel, *, plan: ShsPlan | None = None) -> np.ndarray:
    """Stationary distribution of the discrete chain.

    Checks irreducibility by reachability first; one balance equation is
    replaced by normalization, and the full balance residual is verified on
    the solution. The solved matrix leaves out self-loops: they do not change
    the balance, and their cancelling diagonal entries lose small rates.
    `plan` is used only if it fits the model; else the model's is (`_plan`).
    """
    if plan is None or not plan.fits(model):
        plan = _plan(model)
    if not plan.connected:
        raise NonErgodicError("chain is not irreducible")
    exits, terms = model.exit_rates(), (model.target, model.source, model.rate)
    if not np.all(np.isfinite(exits)):
        raise NonErgodicError(f"exit rate {float(exits.max())!r} is not finite")
    rate = model.rate[plan.moves]
    diag = np.bincount(plan.mover, weights=rate, minlength=model.num_states)
    m = _stack(diag[None], plan.place, rate)
    rhs = np.zeros((1, model.num_states))
    m[0, -1, :] = 1.0
    rhs[0, -1] = 1.0
    pi = _solve(m, rhs, "stationary")[0]
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
    average age is the sum of v[:, 0]. Each block is solved stack by stack
    (`ShsPlan.steps`), after the blocks before it. A chain whose rates span more
    than MAX_RATE_SPAN is refused with a ValueError after its stationary solve.
    """
    plan = _plan(model)
    pi = stationary_distribution(model, plan=plan)
    span = float(model.rate.max()) / float(model.rate.min())
    if not span <= MAX_RATE_SPAN:
        raise ValueError(
            f"rate span {span:.3g} (max rate / min rate) is above {MAX_RATE_SPAN:g}, "
            f"where the age solve loses the smaller rates"
        )
    diag, terms = plan.system(model.rate)
    rhs = (model.growth * pi[:, None]).ravel()
    (eq, unknown, rate), flat = terms, np.zeros_like(rhs)
    for i, (t, stacks) in enumerate(plan.steps):
        b = rhs
        if i:
            # the first block reads no solved unknowns; a later one takes the
            # solved blocks' terms into its rhs, where its own unknowns are still 0
            b = rhs + np.bincount(eq[t], weights=rate[t] * flat[unknown[t]], minlength=rhs.size)
        for at, own in stacks:
            flat[at] = _solve(plan.stack(diag, terms, at, own), b[at], "age")
    worst = _residual(diag, terms, flat, rhs, [t for t, _ in plan.steps])
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
