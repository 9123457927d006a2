"""Discrete-event simulation of the update network with exact age accounting.

Servers share no queue state, so each server's event sequence (its merged
Poisson arrivals and its service completions) is generated independently and
the resulting deliveries are merged into one time-ordered stream for the
monitor. Per-source age is the exact integral of the piecewise-linear
sawtooth, never a sampled approximation.

Randomness comes from counter-based keyed streams: one per (source, server)
arrival process and one per server's service process, so any one stream's
draws are identical no matter what the rest of the system does.

Every kernel is vectorized over a server's arrivals. lcfs-s and fcfs draw one
service time per arrival. lcfs-w, whose service starts depend on earlier
completions, uses a uniformized clock instead: exponential service is
memoryless, so a busy server completes at the ticks of a rate-mu Poisson
clock, and only the first two ticks after each arrival can change the state.
Its service stream holds 2n draws for n arrivals: the first-tick offsets
after each arrival, then the second-tick offsets after each first tick.

After the kernels, each delivery costs O(1) apart from one stable sort by
delivery time, which merges the servers' already time-ordered runs. A stable
radix sort of the narrow source labels then makes the stream source-major,
so each source's deliveries come out as one nondecreasing slice, and the
sawtooth integral over it needs no further sort or search.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .model import NetworkConfig, QueueDiscipline, validate

_Z95 = 1.96
_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class SimParams:
    """One simulation run: a config plus horizon/seed/averaging controls.

    warmup defaults to 1% of the horizon; statistics cover (warmup, horizon].
    The run fields are checked here, on every construction and replace.
    """

    config: NetworkConfig
    horizon: float
    seed: int = 0
    warmup: float | None = None
    batches: int = 32

    def __post_init__(self) -> None:
        if not (math.isfinite(self.horizon) and self.horizon > 0):
            raise ValueError("horizon must be finite and > 0")
        if self.warmup is not None and not (0 <= self.warmup < self.horizon):
            raise ValueError("warmup must satisfy 0 <= warmup < horizon")
        if self.batches < 2:
            raise ValueError("need at least 2 batches for an interval")


@dataclass
class SimResult:
    """Per-source time-averaged age with a 95% interval, plus window counters.

    Counters cover the post-warmup window: `deliveries` updates reached the
    monitor, `useful_deliveries` of them carried a fresher generation time
    than the monitor had, the rest are `discarded_stale`. When `replications`
    is above one, ages are means over replications and the interval comes
    from between-replication variance.
    """

    aoi: tuple[float, ...]
    ci_half_width: tuple[float, ...]
    deliveries: int
    useful_deliveries: int
    discarded_stale: int
    seed: int
    horizon: float
    warmup: float
    replications: int = 1


def _stream(seed: int, sid: int) -> np.random.Generator:
    key = np.array([seed & _MASK64, sid & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _poisson_times(rng: np.random.Generator, rate: float, horizon: float) -> np.ndarray:
    """All event times of a Poisson process in (0, horizon]."""
    if rate <= 0.0:
        return np.empty(0)
    expected = rate * horizon
    chunk = int(expected + 10.0 * math.sqrt(expected + 1.0)) + 16
    pieces = []
    last = 0.0
    while last <= horizon:
        cum = np.cumsum(rng.exponential(1.0 / rate, size=chunk)) + last
        pieces.append(cum)
        last = float(cum[-1])
    t = np.concatenate(pieces)
    # a cumsum of nonnegative draws is sorted
    return t[: np.searchsorted(t, horizon, side="right")]


def _deliveries_lcfs_s(t, src, svc_rng, mu, horizon):
    # every arrival enters service at once; it survives iff it finishes
    # before the next arrival preempts it
    svc = svc_rng.exponential(1.0 / mu, size=t.size)
    if t.size == 0:
        return t, t, src
    nxt = np.empty_like(t)
    nxt[:-1] = t[1:]
    nxt[-1] = np.inf
    done = t + svc
    keep = (done <= nxt) & (done <= horizon)
    return done[keep], t[keep], src[keep]


def _deliveries_fcfs(t, src, svc_rng, mu, horizon):
    svc = svc_rng.exponential(1.0 / mu, size=t.size)
    if t.size == 0:
        return t, t, src
    tot = np.cumsum(svc)
    # done_k = max over j<=k of (t_j + svc_j + ... + svc_k)
    done = tot + np.maximum.accumulate(t - (tot - svc))
    keep = done <= horizon
    return done[keep], t[keep], src[keep]


def _deliveries_lcfs_w(t, src, svc_rng, mu, horizon):
    # The uniformized clock of the module docstring. Arrival k leaves the
    # server busy, with k waiting iff it found the server busy (w[k]). In the
    # gap to the next arrival (the horizon for the last one) tick 1 completes
    # the service in progress and promotes the waiter, and tick 2 completes
    # that waiter. A tick at the next arrival counts in the gap, so a
    # completion comes before an arrival at the same instant. e[:n] are the
    # first-tick offsets from each arrival, e[n:] the second-tick offsets.
    n = t.size
    e = svc_rng.exponential(1.0 / mu, size=2 * n)
    if n == 0:
        return t, t, src
    end = np.append(t[1:], horizon)
    x1 = t + e[:n]
    x2 = x1 + e[n:]
    f1 = x1 <= end
    f2 = x2 <= end
    k = np.arange(n)
    # w[k + 1] is True after a gap with no tick, False after two ticks and
    # w[k] after one: forward-fill from the last gap that fixed it
    fixed = np.concatenate(([True], ~f1[:-1] | f2[:-1]))
    busy = np.concatenate(([False], ~f1[:-1]))
    w = busy[np.maximum.accumulate(np.where(fixed, k, 0))]
    # tick 1 completes arrival k itself if k found the server idle, else the
    # latest earlier arrival that started service (it found the server idle,
    # or tick 1 of its own gap promoted it)
    started = np.maximum.accumulate(np.where(~w | f1, k, 0))
    first = np.where(w, np.concatenate(([0], started[:-1])), k)
    # deliveries in gap order: row k holds the first and second tick of gap k
    keep = np.stack((f1, f2 & w), axis=1)
    who = np.stack((first, k), axis=1)[keep]
    return np.stack((x1, x2), axis=1)[keep], t[who], src[who]


_ENGINES = {
    QueueDiscipline.LCFS_S: _deliveries_lcfs_s,
    QueueDiscipline.LCFS_W: _deliveries_lcfs_w,
    QueueDiscipline.FCFS: _deliveries_fcfs,
}


def _integrate_source(dt, dg, warmup, horizon, batches):
    """Exact sawtooth statistics for one source given its delivery stream.

    dt/dg are this source's delivery and generation times in delivery order
    over the whole run, so dt must be nondecreasing; the monitor starts fresh
    (generation 0) at time 0. Runs in time linear in the deliveries: the
    window is a slice of dt, and the batch edges are merged into it by
    position, with no sort.
    """
    # level[k]: the freshest generation among the first k deliveries (0 at k = 0)
    level = np.maximum.accumulate(np.concatenate(([0.0], dg)))
    useful = dg > level[:-1]
    lo = int(np.searchsorted(dt, warmup, side="right"))
    hi = int(np.searchsorted(dt, horizon, side="left"))
    n_deliveries = dt.size - lo
    n_useful = int(np.count_nonzero(useful[lo:]))

    # useful deliveries strictly inside (warmup, horizon) cut the sawtooth
    inner = useful[lo:hi]
    t_in = dt[lo:hi][inner]
    g_in = dg[lo:hi][inner]
    edges = warmup + (horizon - warmup) * np.arange(batches + 1) / batches
    # pos[e]: inner deliveries at or before edge e; the edge goes after them
    pos = np.searchsorted(t_in, edges, side="right")
    # generation level at each edge: that of the last inner delivery at or
    # before it, or the level the window opens with
    edge_g = np.concatenate(([level[lo]], g_in))[pos]
    cuts = np.insert(t_in, pos, edges)
    g = np.insert(g_in, pos, edge_g)[:-1]
    left = cuts[:-1]
    right = cuts[1:]
    contrib = 0.5 * ((right - g) ** 2 - (left - g) ** 2)
    # each edge opens its batch's segments; any cut after the last edge
    # stays in the last batch
    per_edge = np.diff(pos, append=t_in.size) + 1
    bidx = np.repeat(np.minimum(np.arange(batches + 1), batches - 1), per_edge)[:-1]
    per_batch = np.bincount(bidx, weights=contrib, minlength=batches)
    width = (horizon - warmup) / batches
    means = per_batch / width
    aoi = float(per_batch.sum() / (horizon - warmup))
    ci = float(_Z95 * means.std(ddof=1) / math.sqrt(batches))
    return aoi, ci, n_deliveries, n_useful


def simulate(params: SimParams) -> SimResult:
    """Run one simulation; deterministic given (config, horizon, seed, warmup, batches)."""
    cfg = params.config
    problems = validate(cfg)
    if problems:
        raise ValueError("; ".join(problems))
    horizon = float(params.horizon)
    warmup = 0.01 * horizon if params.warmup is None else float(params.warmup)
    seed = int(params.seed)
    m, n = cfg.sources, cfg.servers
    if cfg.discipline is QueueDiscipline.FCFS:
        for j in range(n):
            load = sum(cfg.arrival_rates[i][j] for i in range(m))
            if load >= cfg.service_rates[j]:
                raise ValueError(
                    f"server {j} is unstable under fcfs: "
                    f"arrival rate {load:g} >= service rate {cfg.service_rates[j]:g}"
                )

    engine = _ENGINES[cfg.discipline]
    # the narrowest label type lets numpy radix-sort the labels below
    label_type = np.min_scalar_type(m - 1)
    all_t, all_g, all_s = [], [], []
    for j in range(n):
        times = [
            _poisson_times(_stream(seed, i * n + j), cfg.arrival_rates[i][j], horizon)
            for i in range(m)
        ]
        t = np.concatenate(times)
        s = np.repeat(np.arange(m, dtype=label_type), [x.size for x in times])
        order = np.argsort(t, kind="stable")
        t, s = t[order], s[order]
        d, g, ds = engine(t, s, _stream(seed, m * n + j), cfg.service_rates[j], horizon)
        all_t.append(d)
        all_g.append(g)
        all_s.append(ds)

    dt = np.concatenate(all_t)
    dg = np.concatenate(all_g)
    dsrc = np.concatenate(all_s)
    # time order, then a stable sort by source: rows are source-major and
    # still in time order within each source
    order = np.argsort(dt, kind="stable")
    dsrc = dsrc[order]
    order = order[np.argsort(dsrc, kind="stable")]
    cut = np.cumsum(np.bincount(dsrc, minlength=m))[:-1]
    per_source = zip(np.split(dt[order], cut), np.split(dg[order], cut))

    aois, cis = [], []
    deliveries = useful = 0
    for t, g in per_source:
        a, c, nd, nu = _integrate_source(t, g, warmup, horizon, params.batches)
        aois.append(a)
        cis.append(c)
        deliveries += nd
        useful += nu
    return SimResult(
        aoi=tuple(aois),
        ci_half_width=tuple(cis),
        deliveries=deliveries,
        useful_deliveries=useful,
        discarded_stale=deliveries - useful,
        seed=seed,
        horizon=horizon,
        warmup=warmup,
    )


def replicate(params: SimParams, replications: int) -> SimResult:
    """Pool `replications` independent runs seeded seed, seed+1, ...

    Ages are averaged per source; the interval is the 95% normal interval of
    the replication mean, so it shrinks like 1/sqrt(replications). Counters
    are summed. The interval uses the normal quantile 1.96 whatever the number
    of replications, so with few of them it is too narrow: with 3 or 4 the
    Student quantile is 4.30 or 3.18.
    """
    if not isinstance(replications, int) or replications < 1:
        raise ValueError("replications must be a positive integer")
    if replications == 1:
        return simulate(params)
    runs = [
        simulate(replace(params, seed=int(params.seed) + r)) for r in range(replications)
    ]
    per_source = np.array([run.aoi for run in runs])  # (reps, sources)
    mean = per_source.mean(axis=0)
    ci = _Z95 * per_source.std(axis=0, ddof=1) / math.sqrt(replications)
    # the first run already carries seed, horizon and warmup
    return replace(
        runs[0],
        aoi=tuple(float(x) for x in mean),
        ci_half_width=tuple(float(x) for x in ci),
        deliveries=sum(r.deliveries for r in runs),
        useful_deliveries=sum(r.useful_deliveries for r in runs),
        discarded_stale=sum(r.discarded_stale for r in runs),
        replications=replications,
    )
