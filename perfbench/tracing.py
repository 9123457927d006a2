"""Per-layer spans for aoinet, recorded from outside the package.

`instrument(tracer)` replaces each public function of a layer at the module
binding its caller looks it up through (for example `aoinet.cli.solve_age`,
which `chain_aoi` calls, and `aoinet.shs.stationary_distribution`, which
`solve_age` calls) with a wrapper that records a span, and puts the originals
back on exit. The wrappers return what the wrapped function returned, so a
traced call prints the same bytes as an untraced one. The package is not
changed.

A span is (id, parent id, name, start, end, thread id). Spans are kept in
memory and written out by `write_spans` when the run ends. Counts come from
the objects the wrapped functions return: `ShsModel.transitions`, the
`ShsSolution` arrays and the `SimResult` counters.
"""
from __future__ import annotations

import collections
import contextlib
import itertools
import json
import statistics
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from aoinet import analytic, cli, optimize, shs, sim

DISCIPLINES = ("lcfs-s", "lcfs-w", "fcfs")

# (module, attribute, span name): every layer boundary the CLI crosses
_BINDINGS = [
    (cli, "load_config", "model.load_config"),
    *((cli, f, "analytic") for f in (
        "aoi_lcfs_homogeneous", "aoi_multi_source_n2", "aoi_multi_source_n3",
        "aoi_hetero_n2", "aoi_hetero_n3")),
    (optimize, "aoi_hetero_n2", "analytic"),
    (optimize, "aoi_multi_source_n2", "analytic"),
    *((cli, f, "optimize") for f in (
        "grid_minimize", "optimal_hetero_split_n2", "optimal_weighted_split")),
    *((cli, f, "builders") for f in (
        "build_single_source_homogeneous", "build_multi_source_homogeneous",
        "build_heterogeneous_single_source")),
    (analytic, "build_heterogeneous_single_source", "builders"),
    (cli, "solve_age", "shs.solve_age"),
    (analytic, "solve_age", "shs.solve_age"),
    (shs, "stationary_distribution", "shs.stationary"),
    (cli, "replicate", "sim.replicate"),
    (cli, "run_sweep", "sweep.run_sweep"),
]


class Tracer:
    """Spans and counts of one traced run."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float, int]] = []
        self.counts: collections.Counter = collections.Counter()
        # (model, solution) of each solve while keep_objects is set
        self.solved: list[tuple[shs.ShsModel, shs.ShsSolution]] = []
        self.keep_objects = False
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = [0]
        return stack

    def call(self, name: str, fn, args=(), kwargs=None, parent: int | None = None):
        """Run fn(*args, **kwargs) inside a span; parent defaults to this thread's span."""
        stack = self._stack()
        sid = next(self._ids)
        if parent is None:
            parent = stack[-1]
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append((sid, parent, name, t0, t1, threading.get_ident()))

    def wrap(self, name: str, fn, parent: int | None = None):
        def traced(*args, **kwargs):
            out = self.call(name, fn, args, kwargs, parent)
            self._count(name, out, args)
            return out

        return traced

    def _count(self, name: str, out, args) -> None:
        if name == "builders":
            with self._lock:
                self.counts["builders.transitions"] += len(out.transitions)
        elif name == "shs.solve_age" and self.keep_objects:
            with self._lock:
                self.solved.append((args[0], out))

    def _simulate(self, fn):
        def traced(params, *args, **kwargs):
            d = params.config.discipline.value
            out = self.call(f"sim.simulate.{d}", fn, (params, *args), kwargs)
            with self._lock:
                self.counts[f"sim.deliveries.{d}"] += out.deliveries
                self.counts[f"sim.useful.{d}"] += out.useful_deliveries
            return out

        return traced

    def _pool(self, base):
        tracer = self

        class TracedPool(base):
            """The sweep pool: each mapped point runs in a `sweep.point` span."""

            def __init__(self, max_workers=None, *args, **kwargs):
                super().__init__(max_workers, *args, **kwargs)
                self._workers = max_workers
                self._t0 = time.perf_counter()
                with tracer._lock:
                    tracer.counts["sweep.workers"] = max(
                        tracer.counts["sweep.workers"], max_workers)

            def map(self, fn, *iterables, **kwargs):
                parent = tracer._stack()[-1]
                return super().map(tracer.wrap("sweep.point", fn, parent), *iterables, **kwargs)

            def shutdown(self, *args, **kwargs):
                super().shutdown(*args, **kwargs)
                capacity = (time.perf_counter() - self._t0) * self._workers
                with tracer._lock:
                    tracer.counts["sweep.capacity_s"] += capacity

        return TracedPool


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route aoinet's layer boundaries through `tracer` for the duration."""
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in _BINDINGS]
    saved.append((sim, "simulate", sim.simulate))
    saved.append((cli, "ThreadPoolExecutor", cli.ThreadPoolExecutor))
    try:
        for (mod, attr, name), (_, _, fn) in zip(_BINDINGS, saved):
            setattr(mod, attr, tracer.wrap(name, fn))
        sim.simulate = tracer._simulate(sim.simulate)
        cli.ThreadPoolExecutor = tracer._pool(ThreadPoolExecutor)
        yield tracer
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)


def self_times(spans) -> dict[int, float]:
    """Span id -> its duration minus the part of it covered by child spans."""
    children: dict[int, list[tuple[float, float]]] = collections.defaultdict(list)
    for _, parent, _, t0, t1, _ in spans:
        children[parent].append((t0, t1))
    out = {}
    for sid, _, _, t0, t1, _ in spans:
        covered = 0.0
        end = t0
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, end), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        out[sid] = (t1 - t0) - covered
    return out


def _age_nonzeros(model: shs.ShsModel) -> int:
    """Structural nonzeros of the age system as `solve_age` assembles it."""
    d = model.age_dim
    size = model.num_states * d
    flat = [np.arange(size) * (size + 1)]
    for t in model.transitions:
        rows, cols = np.nonzero(t.reset)
        flat.append((t.target * d + cols) * size + t.source * d + rows)
    return int(np.unique(np.concatenate(flat)).size)


PER_LAYER_UNITS = {
    "cli.self_s": "s",
    "model.load_config_s": "s",
    "analytic.calls": "count",
    "analytic.s": "s",
    "optimize.calls": "count",
    "optimize.s": "s",
    "builders.calls": "count",
    "builders.build_s": "s",
    "builders.transitions": "count",
    "shs.solves": "count",
    "shs.stationary_s": "s",
    "shs.age_solve_s": "s",
    "shs.unknowns_max": "count",
    "shs.nonzeros": "count",
    "shs.dense_bytes": "B_computed",
    "shs.balance_residual_max": "relative",
    "shs.age_residual_max": "relative",
    **{f"sim.calls.{d}": "count" for d in DISCIPLINES},
    **{f"sim.simulate_s.{d}": "s" for d in DISCIPLINES},
    **{f"sim.deliveries.{d}": "count" for d in DISCIPLINES},
    **{f"sim.useful_ratio.{d}": "ratio" for d in DISCIPLINES},
    "sim.replicate_self_s": "s",
    "sweep.points": "count",
    "sweep.workers": "count",
    "sweep.busy_s": "s",
    "sweep.self_s": "s",
    "sweep.pool_efficiency": "ratio",
    "trace.overhead_ratio": "ratio",
    "trace.accounted_ratio": "ratio",
}

# span name -> the per-layer self-time metric it adds to
_SELF_METRIC = {
    "cli.main": "cli.self_s",
    "model.load_config": "model.load_config_s",
    "analytic": "analytic.s",
    "optimize": "optimize.s",
    "builders": "builders.build_s",
    "shs.stationary": "shs.stationary_s",
    "shs.solve_age": "shs.age_solve_s",
    "sim.replicate": "sim.replicate_self_s",
    "sweep.run_sweep": "sweep.self_s",
    "sweep.point": "sweep.self_s",
    **{f"sim.simulate.{d}": f"sim.simulate_s.{d}" for d in DISCIPLINES},
}
_CALL_METRIC = {
    "analytic": "analytic.calls",
    "optimize": "optimize.calls",
    "builders": "builders.calls",
    "shs.solve_age": "shs.solves",
    "sweep.point": "sweep.points",
    **{f"sim.simulate.{d}": f"sim.calls.{d}" for d in DISCIPLINES},
}


def layer_metrics(tracer: Tracer, traced_walls: list[float],
                  untraced_walls: list[float]) -> dict[str, float]:
    """Per-layer metrics of the traced passes; sums and counts are per pass.

    traced_walls and untraced_walls are the pass wall times with and without
    tracing; the overhead ratio compares their medians, and the accounted
    ratio is the layers' summed self time over the traced wall time.
    """
    passes = len(traced_walls)
    m = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    selfs = self_times(tracer.spans)
    busy = 0.0
    for sid, _, name, t0, t1, _ in tracer.spans:
        m[_SELF_METRIC[name]] += selfs[sid]
        if name in _CALL_METRIC:
            m[_CALL_METRIC[name]] += 1
        if name == "sweep.point":
            busy += t1 - t0
    for key in {*_SELF_METRIC.values(), *_CALL_METRIC.values()}:
        m[key] /= passes
    c = tracer.counts
    m["builders.transitions"] = c["builders.transitions"] / passes
    m["sweep.busy_s"] = busy / passes
    m["sweep.workers"] = float(c["sweep.workers"])
    if c["sweep.capacity_s"] > 0:
        m["sweep.pool_efficiency"] = busy / c["sweep.capacity_s"]
    for d in DISCIPLINES:
        m[f"sim.deliveries.{d}"] = c[f"sim.deliveries.{d}"] / passes
        if c[f"sim.deliveries.{d}"]:
            m[f"sim.useful_ratio.{d}"] = c[f"sim.useful.{d}"] / c[f"sim.deliveries.{d}"]
    if tracer.solved:
        largest = max(tracer.solved, key=lambda s: s[0].num_states * s[0].age_dim)[0]
        unknowns = largest.num_states * largest.age_dim
        m["shs.unknowns_max"] = float(unknowns)
        m["shs.nonzeros"] = float(_age_nonzeros(largest))
        m["shs.dense_bytes"] = float(unknowns) ** 2 * 8
        m["shs.balance_residual_max"] = max(
            shs.balance_residual(model, sol.pi) for model, sol in tracer.solved)
        m["shs.age_residual_max"] = max(
            shs.age_residual(model, sol.pi, sol.v) for model, sol in tracer.solved)
    m["trace.overhead_ratio"] = statistics.median(traced_walls) / statistics.median(
        untraced_walls)
    accounted = sum(m[k] for k in set(_SELF_METRIC.values())) * passes
    m["trace.accounted_ratio"] = accounted / sum(traced_walls)
    return m


def write_spans(tracer: Tracer, path: Path) -> None:
    """Write every span as one JSON line, times relative to the first span."""
    origin = min((s[3] for s in tracer.spans), default=0.0)
    with path.open("w", encoding="utf-8") as f:
        for sid, parent, name, t0, t1, tid in tracer.spans:
            f.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                "start": t0 - origin, "end": t1 - origin,
                                "thread": tid}) + "\n")
