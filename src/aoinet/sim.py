"""Discrete-event simulation of the update network with exact age accounting.

The run steps through (0, horizon] in time windows of equal length, each
expecting about `_WINDOW_ARRIVALS` arrivals at the busiest server, or more
where many sources share them (a window costs a few numpy calls per source
and per stream); the last one ends at the horizon. Each stage is an object
that takes one window's input and returns that window's output, and keeps
only a few values across the window edge, so memory does not grow with the
horizon:

- An arrival stream (`_Arrivals`) returns its Poisson times up to the
  window's end and holds back the ones it drew past it.
- A kernel simulates one server's queue: its merged arrival times (and
  their sources) in, and out the deliveries it completes by the window's
  end, as delivery time, generation time and source, in delivery order.
  Servers share no queue state. lcfs-s carries the update in service,
  lcfs-w the update in service and the waiter, and fcfs the updates still
  queued with its service cumsum's total and running max.
- `simulate` splits each server's deliveries by source and merges each
  source's over the servers in time order, ties in server order; deliveries
  later than the window's end wait in their kernel for the next window. The
  source's `_Sawtooth` integrates them: the exact integral of the
  piecewise-linear age, never a sampled approximation. It carries the
  generation level, the last cut and the per-batch sums.

Randomness comes from counter-based keyed streams: one per (source, server)
arrival process and one per server's service process, so any one stream's
draws are identical no matter what the rest of the system does, and drawing
a stream in pieces gives the values of one call.

Every kernel is vectorized over a window's arrivals. lcfs-s and fcfs draw
one service time per arrival. lcfs-w, whose service starts depend on
earlier completions, uses a uniformized clock instead: exponential service
is memoryless, so a busy server completes at the ticks of a rate-mu Poisson
clock, and only the first two ticks after each arrival can change the
state. Its service stream holds one (first-tick, second-tick) pair of
offsets per arrival, in arrival order, so no draw depends on the number of
arrivals or on the window length.

Results do not depend on the window length either: each running sum or
maximum that spans windows (arrival times, the fcfs service cumsum and
running max, the generation level, the per-batch sums) takes the earlier
windows' total in as its first term, so a windowed run makes the
operations of one pass over the whole horizon in the same order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .model import NetworkConfig, QueueDiscipline

# Student's t_{0.975, df} for df = 1, ..., 9; past them, `_t975` expands in 1 / df
_T975 = (12.706204736174694, 4.302652729749462, 3.1824463052837078, 2.7764451051977934,
         2.5705818356363146, 2.4469118511449786, 2.364624251592784, 2.306004135204166,
         2.262157162798205)
_Z975 = 1.959963984540054  # the normal 0.975 quantile
_MASK64 = (1 << 64) - 1
# a window's expected arrivals at the busiest server, so about the rows of a
# window's largest arrays unless many sources make it longer (see `simulate`)
_WINDOW_ARRIVALS = 2**14
# from 2^52 expected arrivals on, float64 times no longer separate them
_MAX_ARRIVALS = 2.0**52


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
    """Per-source time-averaged age with its standard error and 95% interval,
    plus window counters.

    Counters cover the post-warmup window: `deliveries` updates reached the
    monitor, `useful_deliveries` of them carried a fresher generation time
    than the monitor had, the rest are `discarded_stale`. When `replications`
    is above one, ages are means over replications and the standard error
    comes from between-replication variance, else from the batch means. The
    interval's half-width is Student's t_{0.975, df} times the standard
    error, with df the replications or batches less one.
    """

    aoi: tuple[float, ...]
    ci_half_width: tuple[float, ...]
    std_error: tuple[float, ...]
    deliveries: int
    useful_deliveries: int
    discarded_stale: int
    seed: int
    horizon: float
    warmup: float
    replications: int = 1


def _t975(df: int) -> float:
    """Student's 0.975 quantile with df degrees of freedom, the factor of a 95% interval.

    A table up to df = 9, then the Cornish-Fisher expansion to 1 / df^4
    (Abramowitz & Stegun 26.7.5), within 4e-6 relative from df = 10 and 2e-8
    from df = 30.
    """
    if df <= len(_T975):
        return _T975[df - 1]
    z, w = _Z975, _Z975 * _Z975
    g = ((w + 1) * z / 4, ((5 * w + 16) * w + 3) * z / 96,
         (((3 * w + 19) * w + 17) * w - 15) * z / 384,
         ((((79 * w + 776) * w + 1482) * w - 1920) * w - 945) * z / 92160)
    return z + sum(gk / df ** k for k, gk in enumerate(g, 1))


def _stream(seed: int, sid: int) -> np.random.Generator:
    key = np.array([seed & _MASK64, sid & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _expected_arrivals(rate: float, horizon: float) -> float:
    """rate * horizon, refused where float64 times could not hold the arrivals."""
    expected = rate * horizon
    if not math.isfinite(expected):
        raise ValueError(f"arrival rate {rate:g} times horizon {horizon:g} is not finite")
    if expected >= _MAX_ARRIVALS:
        raise ValueError(
            f"arrival rate {rate:g} times horizon {horizon:g} expects "
            f"too many arrivals to draw ({expected:.3g})"
        )
    return expected


def _after(carried: np.ndarray, new: np.ndarray) -> np.ndarray:
    """The rows carried from the last window, then this window's."""
    return np.concatenate((carried, new)) if carried.size else new


def _draw_count(expected: float) -> int:
    # enough draws for all but a 10-sigma excess of Poisson arrivals
    return int(expected + 10.0 * math.sqrt(expected + 1.0)) + 16


class _Arrivals:
    """The event times of one Poisson process in (0, horizon], a window at a time.

    A time is the running sum of exponential draws. They are drawn in pieces
    of about a window's count, and each piece's cumsum takes the running sum
    so far in first, so the additions are those of one cumsum over them all.
    """

    def __init__(self, rng: np.random.Generator, rate: float, horizon: float, windows: int):
        self.rng, self.rate = rng, rate
        self.piece = _draw_count(rate * horizon / windows)
        self.run = 0.0  # the last time drawn
        self.ahead = np.empty(0)  # times drawn past the last window's end

    def until(self, end: float) -> np.ndarray:
        """The times up to `end` that no earlier call returned."""
        ahead = self.ahead
        while self.rate > 0.0 and (ahead.size == 0 or ahead[-1] <= end):
            draws = self.rng.exponential(1.0 / self.rate, size=self.piece)
            draws[0] += self.run
            cum = np.cumsum(draws, out=draws)
            self.run = float(cum[-1])
            ahead = _after(ahead, cum)
        k = int(ahead.searchsorted(end, side="right"))
        self.ahead = ahead[k:].copy()
        return ahead[:k]


# A kernel simulates one server's queue a window at a time. Its `deliver`
# takes the window's arrival times (nondecreasing) and their source labels,
# and returns the deliveries completed by the window's end, as delivery
# times, generation times and sources, in delivery order. Its rows are the
# updates that hold or may take the server: those carried from the last
# window first, then the window's arrivals; it keeps the carried rows' times
# and sources, and the few values its next window needs. It is built from
# its service stream, its service rate and the source labels, whose type the
# carried sources keep.


class _LcfsS:
    # Every arrival enters service at once; it is delivered iff it finishes
    # no later than the next arrival preempts it (the horizon for the last
    # one). Carried: the last row, while it has not finished.

    def __init__(self, svc_rng: np.random.Generator, mu: float, labels: np.ndarray):
        self.rng, self.scale = svc_rng, 1.0 / mu
        self.t, self.s, self.done = np.empty(0), labels[:0], np.empty(0)

    def deliver(self, t, s, end):
        done = _after(self.done, t + self.rng.exponential(self.scale, size=t.size))
        t, s = _after(self.t, t), _after(self.s, s)
        who = (done <= np.append(t[1:], end)).nonzero()[0]
        rows = t.size - 1 + (done[-1:] > end).nonzero()[0]
        self.t, self.s, self.done = t[rows], s[rows], done[rows]
        return done[who], t[who], s[who]


class _Fcfs:
    # done_k = max over j <= k of (t_j + svc_j + ... + svc_k). done is
    # nondecreasing, so the rows still queued at the window's end are the
    # last ones. Carried: those rows with their finish times, and the service
    # cumsum's total and running max, which the next window's cumsum and
    # running max take in first.

    def __init__(self, svc_rng: np.random.Generator, mu: float, labels: np.ndarray):
        self.rng, self.scale = svc_rng, 1.0 / mu
        self.t, self.s, self.done = np.empty(0), labels[:0], np.empty(0)
        self.tot, self.top = np.zeros(1), np.full(1, -np.inf)

    def deliver(self, t, s, end):
        svc = self.rng.exponential(self.scale, size=t.size)
        tot = np.cumsum(np.concatenate((self.tot, svc)))
        top = np.maximum.accumulate(np.concatenate((self.top, t - (tot[1:] - svc))))
        self.tot, self.top = tot[-1:].copy(), top[-1:].copy()
        done = _after(self.done, tot[1:] + top[1:])
        t, s = _after(self.t, t), _after(self.s, s)
        k = int(done.searchsorted(end, side="right"))
        self.t, self.s, self.done = t[k:].copy(), s[k:].copy(), done[k:].copy()
        return done[:k], t[:k], s[:k]


class _LcfsW:
    # The uniformized clock of the module docstring. Row k leaves the server
    # busy, with k waiting iff it found the server busy (w[k]). In the gap to
    # the next row (the window's end for the last one) tick 1 completes the
    # service in progress and promotes the waiter, and tick 2 completes that
    # waiter. A tick at the next arrival counts in the gap, so a completion
    # comes before an arrival at the same instant. x1[k] and x2[k] are gap
    # k's tick times. Carried: the rows the last gap's ticks have not
    # completed, the last one with the ticks still to come and an earlier
    # one (in service, so the row after it finds the server busy) with none.
    # The first row always finds the server idle.

    def __init__(self, svc_rng: np.random.Generator, mu: float, labels: np.ndarray):
        self.rng, self.scale = svc_rng, 1.0 / mu
        self.t, self.s, self.x1, self.x2 = np.empty(0), labels[:0], np.empty(0), np.empty(0)

    def deliver(self, t, s, end):
        # one (first-tick, second-tick) offset pair per arrival
        e = self.rng.exponential(self.scale, size=(t.size, 2))
        x1 = t + e[:, 0]
        x1, x2 = _after(self.x1, x1), _after(self.x2, x1 + e[:, 1])
        t, s = _after(self.t, t), _after(self.s, s)
        if t.size == 0:
            # no update holds the server
            return t, t, s
        k = np.arange(t.size)
        gap_end = np.append(t[1:], end)
        f1 = x1 <= gap_end
        f2 = x2 <= gap_end
        # w[k + 1] is True after a gap with no tick, False after two ticks and
        # w[k] after one: forward-fill from the last gap that fixed it
        fixed = np.concatenate(([True], ~f1[:-1] | f2[:-1]))
        busy = np.concatenate(([False], ~f1[:-1]))
        w = busy[np.maximum.accumulate(np.where(fixed, k, 0))]
        # tick 1 completes row k itself if k found the server idle, else the
        # latest earlier row that started service (it found the server idle,
        # or tick 1 of its own gap promoted it)
        started = np.maximum.accumulate(np.where(~w | f1, k, 0))
        first = np.where(w, np.concatenate(([0], started[:-1])), k)
        # deliveries in gap order: row k holds the first and second tick of gap k
        pair = np.stack((first, k), axis=1)
        keep = np.stack((f1, f2 & w), axis=1)
        rows = pair[-1][~keep[-1] & [True, w[-1]]]
        self.t, self.s = t[rows], s[rows]
        self.x1, self.x2 = np.full((2, rows.size), np.inf)
        if rows.size:
            ticks = [x for x, fired in ((x1[-1], f1[-1]), (x2[-1], f2[-1])) if not fired]
            self.x1[-1], self.x2[-1] = (*ticks, np.inf)[:2]
        who = pair[keep]
        return np.stack((x1, x2), axis=1)[keep], t[who], s[who]


_ENGINES = {
    QueueDiscipline.LCFS_S: _LcfsS,
    QueueDiscipline.LCFS_W: _LcfsW,
    QueueDiscipline.FCFS: _Fcfs,
}


class _Sawtooth:
    """Exact sawtooth statistics for one source, a window at a time.

    The monitor starts fresh (generation 0) at time 0. Each window runs in
    time linear in its deliveries: its part of (warmup, horizon) is a slice
    of its delivery times, and the batch edges are merged into it by
    position, with no sort. Carried: the generation level, the last cut
    (whose segment the next cut closes) with its level and batch, and the
    per-batch sums, which the next window's bincount takes in first.
    """

    def __init__(self, warmup: float, horizon: float, batches: int):
        self.warmup, self.horizon, self.batches = warmup, horizon, batches
        self.edges = warmup + (horizon - warmup) * np.arange(batches + 1) / batches
        self.edge = 0  # the next edge to cut at
        self.level = np.zeros(1)
        self.cut_t, self.cut_g, self.cut_b = np.empty(0), np.empty(0), np.empty(0, dtype=np.intp)
        self.per_batch = np.zeros(batches)
        self.deliveries = self.useful = 0

    def add(self, dt, dg, end):
        """Take this source's delivery and generation times up to `end`, dt
        nondecreasing and after the last window's end."""
        warmup, horizon, batches = self.warmup, self.horizon, self.batches
        # level[k]: the freshest generation among the deliveries before k
        level = np.maximum.accumulate(np.concatenate((self.level, dg)))
        useful = dg > level[:-1]
        lo = int(dt.searchsorted(warmup, side="right"))
        hi = int(dt.searchsorted(horizon, side="left"))
        self.level = level[-1:].copy()
        self.deliveries += dt.size - lo
        self.useful += int(np.count_nonzero(useful[lo:]))

        # useful deliveries strictly inside (warmup, horizon) cut the sawtooth
        inner = useful[lo:hi]
        t_in = dt[lo:hi][inner]
        g_in = dg[lo:hi][inner]
        # this window's edges; the last one can round to just past the horizon
        stop = batches + 1 if end == horizon else int(self.edges.searchsorted(end, "right"))
        edges = self.edges[self.edge : stop]
        # pos[e]: inner deliveries at or before edge e; the edge goes after them
        pos = t_in.searchsorted(edges, side="right")
        # generation level at each edge: that of the last inner delivery at or
        # before it, or the level the window's inner deliveries open with
        edge_g = np.concatenate((level[lo : lo + 1], g_in))[pos]
        # the window's cuts, edges merged in by position
        at = pos + np.arange(edges.size)
        is_edge = np.zeros(t_in.size + edges.size, dtype=bool)
        is_edge[at] = True
        cuts, g = np.empty(is_edge.size), np.empty(is_edge.size)
        cuts[at], cuts[~is_edge] = edges, t_in
        g[at], g[~is_edge] = edge_g, g_in
        # each edge opens its batch, and a delivery stays in the batch of the
        # last edge before it; any cut after the last edge stays in the last
        # batch (no delivery comes before the first edge, the warmup)
        bidx = np.minimum(is_edge.cumsum() + (self.edge - 1), batches - 1)
        # each cut opens a segment that the next cut closes, the carried cut's
        # included; the sums so far go in first, so each batch adds in order
        first = 0.5 * ((cuts[:1] - self.cut_g) ** 2 - (self.cut_t - self.cut_g) ** 2)
        left, right, open_g = cuts[:-1], cuts[1:], g[:-1]
        contrib = 0.5 * ((right - open_g) ** 2 - (left - open_g) ** 2)
        # only the batches from the carried cut's to the last edge's change
        b0, b1 = min(max(self.edge - 1, 0), batches - 1), min(stop, batches)
        self.per_batch[b0:b1] = np.bincount(
            np.concatenate((np.arange(b1 - b0), self.cut_b[: first.size] - b0, bidx[:-1] - b0)),
            weights=np.concatenate((self.per_batch[b0:b1], first, contrib)),
            minlength=b1 - b0,
        )
        if cuts.size:
            self.cut_t, self.cut_g, self.cut_b = cuts[-1:].copy(), g[-1:].copy(), bidx[-1:].copy()
        self.edge = stop

    def stats(self) -> tuple[float, float, float, int, int]:
        """(aoi, ci, std_error, deliveries, useful) once the window that ends at
        the horizon is in; the standard error is that of the batch means."""
        span = self.horizon - self.warmup
        means = self.per_batch / (span / self.batches)
        aoi = float(self.per_batch.sum() / span)
        se = float(means.std(ddof=1) / math.sqrt(self.batches))
        return aoi, _t975(self.batches - 1) * se, se, self.deliveries, self.useful


def _merged(parts):
    """One source's deliveries from every server, in time order, ties in server order."""
    dt, dg = (np.concatenate(x) for x in zip(*parts))
    order = dt.argsort(kind="stable")
    return dt[order], dg[order]


def simulate(params: SimParams) -> SimResult:
    """Run one simulation; deterministic given (config, horizon, seed, warmup, batches)."""
    cfg = params.config
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
    expected = [
        [_expected_arrivals(cfg.arrival_rates[i][j], horizon) for i in range(m)] for j in range(n)
    ]
    # each window makes a few dozen numpy calls per source and a few per
    # stream, so it also expects at least a quarter of _WINDOW_ARRIVALS per
    # source and a 16th per stream on average
    busiest, total = max(map(sum, expected)), sum(map(sum, expected))
    least = _WINDOW_ARRIVALS * m * max(1 / 4, n / 16)
    windows = max(1, math.ceil(min(busiest / _WINDOW_ARRIVALS, total / least)))
    arrivals = [
        [_Arrivals(_stream(seed, i * n + j), cfg.arrival_rates[i][j], horizon, windows)
         for i in range(m)]
        for j in range(n)
    ]
    # the narrowest label type makes the source sort below cheap
    labels = np.arange(m, dtype=np.min_scalar_type(m - 1))
    kernel = _ENGINES[cfg.discipline]
    servers = [kernel(_stream(seed, m * n + j), cfg.service_rates[j], labels) for j in range(n)]
    sawtooth = [_Sawtooth(warmup, horizon, params.batches) for _ in range(m)]

    for w in range(1, windows + 1):
        end = horizon if w == windows else horizon * w / windows
        per_source = [[] for _ in range(m)]
        for server, streams in zip(servers, arrivals):
            times = [stream.until(end) for stream in streams]
            t = np.concatenate(times)
            s = np.repeat(labels, [x.size for x in times])
            order = t.argsort(kind="stable")
            done, gen, src = server.deliver(t[order], s[order], end)
            # source-major, in delivery order within each source
            order = src.argsort(kind="stable")
            done, gen = done[order], gen[order]
            bounds = np.cumsum(np.bincount(src, minlength=m)).tolist()
            for parts, lo, hi in zip(per_source, [0, *bounds], bounds):
                parts.append((done[lo:hi], gen[lo:hi]))
        # ages too large or too small for float squares come out inf, nan or 0
        with np.errstate(over="ignore", invalid="ignore"):
            for saw, parts in zip(sawtooth, per_source):
                saw.add(*_merged(parts), end)
    with np.errstate(over="ignore", invalid="ignore"):
        stats = [saw.stats() for saw in sawtooth]

    aois, cis, ses, delivered, fresh = zip(*stats)
    for i, a in enumerate(aois):
        if not (math.isfinite(a) and a > 0):
            raise ValueError(f"source {i} age {a!r} is not finite and > 0 at horizon {horizon:g}")
    deliveries, useful = sum(delivered), sum(fresh)
    return SimResult(
        aoi=aois,
        ci_half_width=cis,
        std_error=ses,
        deliveries=deliveries,
        useful_deliveries=useful,
        discarded_stale=deliveries - useful,
        seed=seed,
        horizon=horizon,
        warmup=warmup,
    )


def replicate(params: SimParams, replications: int) -> SimResult:
    """Pool `replications` independent runs seeded seed, seed+1, ...

    Ages are averaged per source; the standard error is that of the
    replication mean, so it shrinks like 1/sqrt(replications), and the
    interval is the 95% Student interval with replications - 1 degrees of
    freedom (t = 4.30 for 3 replications, 3.18 for 4). Counters are summed.
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
    se = per_source.std(axis=0, ddof=1) / math.sqrt(replications)
    # the first run already carries seed, horizon and warmup
    return replace(
        runs[0],
        aoi=tuple(float(x) for x in mean),
        ci_half_width=tuple(float(x) for x in _t975(replications - 1) * se),
        std_error=tuple(float(x) for x in se),
        deliveries=sum(r.deliveries for r in runs),
        useful_deliveries=sum(r.useful_deliveries for r in runs),
        discarded_stale=sum(r.discarded_stale for r in runs),
        replications=replications,
    )
