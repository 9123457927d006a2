"""Command line front end: engine reports, simulation runs, sweeps, optimizers.

Artifacts are machine-readable: sweeps emit CSV with the fixed schema
(param,engine,source,aoi,ci_half_width,error) and floats at 12 significant
digits, so identical spec + seed reproduces identical bytes.

A sweep spec is checked whole when it is loaded: `load_sweep_spec` builds
every grid point's config, so a sweep run can fail only in an engine.

Every engine value, in `analytic` and in sweeps, comes per source from one
function, `evaluate`; both exact engines share one preamble, `_exact_route`.
Engines are looked up as module globals at call time, so rebinding a name
here (as the benchmark's tracer does) intercepts every call to it.

`main` builds its argument parser once per process, on its first call, and
every later call parses with that one parser.
"""
from __future__ import annotations

import argparse
import functools
import importlib.resources
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .analytic import (
    aoi_hetero_n2,
    aoi_hetero_n3,
    aoi_lcfs_homogeneous,
    aoi_multi_source_n2,
    aoi_multi_source_n3,
)
from .builders import (
    build_heterogeneous_single_source,
    build_multi_source_homogeneous,
    build_single_source_homogeneous,
)
from .model import (
    ConfigError,
    HomogeneityClass,
    NetworkConfig,
    QueueDiscipline,
    classify,
    drop_idle_servers,
    is_number,
    load_config,
    parse_json,
    reject_unknown_fields,
)
from .optimize import grid_minimize, optimal_hetero_split_n2, optimal_weighted_split
from .shs import solve_age
from .sim import SimParams, replicate

_SWEEP_PARAMETERS = (
    "servers",
    "per-server-arrival",
    "total-arrival",
    "tracked-source-rate",
    "mu1-share",
)
_SWEEP_FIELDS = (
    "parameter", "grid", "engines", "disciplines", "horizon", "warmup", "seed", "batches",
    "replications",
)
_OPTIMIZE_FIELDS = ("kind", "total_arrival", "service_total", "mu1_grid")
_ENGINE_NAMES = ("analytic", "shs", "sim")
_RECIPES = ("fig4", "fig5", "fig6")
# the most servers a servers-sweep point may have; at this count the
# exchangeable chain alone needs about 8 GB (75 to 85 n^2 bytes), 13 GB
# with other sources
_MAX_SWEEP_SERVERS = 10_000
CSV_HEADER = "param,engine,source,aoi,ci_half_width,error"


class EngineError(RuntimeError):
    """No engine of the requested kind applies to this config."""


# how an engine fails on a config it accepts, out of memory or float range included
_ENGINE_FAILURES = (ValueError, RuntimeError, ArithmeticError, MemoryError)


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _message(e: Exception) -> str:
    # a bare MemoryError has no message, and an empty error field reads as success
    return str(e) or type(e).__name__


def _exact_route(config: NetworkConfig, engine: str) -> tuple[NetworkConfig, HomogeneityClass]:
    """The config an exact engine solves, without its idle servers, and its class.

    Both exact engines are lcfs-s only and have no model for several sources
    on distinct servers; `engine` names the engine in those errors.
    """
    if config.discipline is not QueueDiscipline.LCFS_S:
        raise EngineError(f"no {engine} for discipline '{config.discipline.value}'; use simulate")
    config = drop_idle_servers(config)
    cls = classify(config)
    if cls is HomogeneityClass.GENERAL:
        raise EngineError(f"no {engine} for multi-source networks with distinct servers")
    return config, cls


def closed_form_aoi(config: NetworkConfig, source: int) -> float:
    """Route to the closed form for this config class, for one source."""
    config, cls = _exact_route(config, "closed form")
    n, row, mus = config.servers, config.arrival_rates[source], config.service_rates
    if cls is HomogeneityClass.HOMOGENEOUS_SINGLE_SOURCE:
        aoi = aoi_lcfs_homogeneous(n, row[0], mus[0])
    elif cls is HomogeneityClass.HOMOGENEOUS_MULTI_SOURCE:
        if n not in (2, 3):
            raise EngineError(f"no closed form for {n} shared servers; use the shs engine")
        shared = aoi_multi_source_n2 if n == 2 else aoi_multi_source_n3
        aoi = shared(row[0], sum(r[0] for r in config.arrival_rates), mus[0])
    elif n == 2:
        aoi = aoi_hetero_n2(row[0], row[1], *mus)
    elif n == 3:
        aoi = aoi_hetero_n3(row, mus)
    else:
        raise EngineError(f"no closed form for {n} distinct servers; use the shs engine")
    # extreme rate ratios can overflow a formula's terms
    if not (math.isfinite(aoi) and aoi > 0):
        raise ValueError(f"average age {aoi!r} is not finite and > 0")
    return aoi


def chain_aoi(config: NetworkConfig, source: int) -> float:
    """Build and solve the exact chain model for this config class, for one source."""
    config, cls = _exact_route(config, "chain model")
    n, row, mus = config.servers, config.arrival_rates[source], config.service_rates
    if cls is HomogeneityClass.HOMOGENEOUS_SINGLE_SOURCE:
        model = build_single_source_homogeneous(n, row[0], mus[0])
    elif cls is HomogeneityClass.HOMOGENEOUS_MULTI_SOURCE:
        rates = [r[0] for r in config.arrival_rates]
        model = build_multi_source_homogeneous(n, source, rates, mus[0])
    else:
        model = build_heterogeneous_single_source(row, mus)
    return solve_age(model).aoi


def evaluate(
    engine: str, config: NetworkConfig, run: SimParams | None = None, replications: int = 1
) -> list[tuple[float | None, float | None, str]]:
    """(aoi, ci_half_width, error) for each source of `config` from one engine.

    `engine` is a row label: "analytic", "shs" or "sim:<discipline>". An exact
    engine runs, and may fail, once per source. One simulation (`run` on this
    config in that discipline) covers every source, so its error fills every row.
    """
    if engine.startswith("sim:"):
        try:
            sim_config = replace(config, discipline=QueueDiscipline(engine[4:]))
            result = replicate(replace(run, config=sim_config), replications)
        except _ENGINE_FAILURES as e:
            return [(None, None, _message(e))] * config.sources
        return [(a, c, "") for a, c in zip(result.aoi, result.ci_half_width)]
    fn = closed_form_aoi if engine == "analytic" else chain_aoi
    values = []
    for i in range(config.sources):
        try:
            values.append((fn(config, i), None, ""))
        except _ENGINE_FAILURES as e:
            values.append((None, None, _message(e)))
    return values


@dataclass
class SweepRow:
    param: float
    engine: str
    source: int
    aoi: float | None
    ci_half_width: float | None
    error: str = ""


@dataclass
class SweepSpec:
    """A declarative sweep: one parameter, one grid, one or more engines.

    `run` holds the base config and the simulation run fields; `points` holds
    each grid value's config, in grid order. `load_sweep_spec` checks it all.
    """

    parameter: str
    grid: tuple[float, ...]
    points: tuple[NetworkConfig, ...]
    engines: tuple[str, ...]
    disciplines: tuple[QueueDiscipline, ...]
    run: SimParams
    replications: int = 1


@dataclass
class SweepResult:
    rows: list[SweepRow]
    seed: int
    horizon: float
    timestamp: str
    version: str


def load_sweep_spec(text: str) -> SweepSpec:
    doc = parse_json(text)
    if not isinstance(doc, dict) or "config" not in doc or "sweep" not in doc:
        raise ConfigError("sweep spec must be an object with 'config' and 'sweep'")
    reject_unknown_fields(doc, ("config", "sweep"), " in sweep spec")
    config = load_config(json.dumps(doc["config"]))
    sw = doc["sweep"]
    if not isinstance(sw, dict):
        raise ConfigError("'sweep' must be an object")
    reject_unknown_fields(sw, _SWEEP_FIELDS, " in 'sweep'")
    parameter = sw.get("parameter")
    if parameter not in _SWEEP_PARAMETERS:
        raise ConfigError(
            f"sweep parameter must be one of {', '.join(_SWEEP_PARAMETERS)}"
        )
    grid = sw.get("grid")
    if (
        not isinstance(grid, list)
        or not grid
        or not all(is_number(v) for v in grid)
    ):
        raise ConfigError("sweep grid must be a non-empty list of numbers")
    # NaN would pass the order check below: every comparison with it is false
    if not all(math.isfinite(v) for v in grid):
        raise ConfigError("sweep grid values must be finite")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ConfigError("sweep grid must be strictly increasing")
    engines = sw.get("engines")
    if (
        not isinstance(engines, list)
        or not engines
        or any(e not in _ENGINE_NAMES for e in engines)
    ):
        raise ConfigError(f"sweep engines must be drawn from {', '.join(_ENGINE_NAMES)}")
    raw_disc = sw.get("disciplines", [config.discipline.value])
    if not isinstance(raw_disc, list) or not raw_disc:
        raise ConfigError("sweep 'disciplines' must be a non-empty list of discipline names")
    try:
        disciplines = tuple(QueueDiscipline(d) for d in raw_disc)
    except ValueError:
        raise ConfigError("unknown discipline in sweep 'disciplines'") from None
    if "disciplines" in sw and "sim" not in engines:
        raise ConfigError("sweep 'disciplines' needs the 'sim' engine in 'engines'")

    def number(key: str, default: float | None, integer: bool = False):
        value = sw.get(key, default)
        if not is_number(value) or (integer and not isinstance(value, int)):
            kind = "an integer" if integer else "a number"
            raise ConfigError(f"sweep '{key}' must be {kind}")
        return value if integer else float(value)

    run = SimParams(
        config=config,
        horizon=number("horizon", 1e5),
        warmup=None if sw.get("warmup") is None else number("warmup", None),
        seed=number("seed", 0, integer=True),
        batches=number("batches", 32, integer=True),
    )
    replications = number("replications", 1, integer=True)
    if replications < 1:
        raise ConfigError("sweep 'replications' must be >= 1")
    grid = tuple(float(v) for v in grid)
    if parameter == "servers" and grid[-1] > _MAX_SWEEP_SERVERS:
        raise ConfigError(
            f"servers grid value {_fmt(grid[-1])} is above the limit of "
            f"{_MAX_SWEEP_SERVERS} servers"
        )
    points = []
    for value in grid:
        try:
            points.append(apply_parameter(config, parameter, value))
        except ConfigError as e:
            raise ConfigError(f"sweep grid value {_fmt(value)}: {e}") from None
    return SweepSpec(
        parameter, grid, tuple(points), tuple(engines), disciplines, run, replications
    )


def apply_parameter(config: NetworkConfig, parameter: str, value: float) -> NetworkConfig:
    """One grid point as a concrete config; ConfigError where the parameter cannot apply."""
    n = config.servers
    if parameter == "servers":
        cls = classify(config)
        if cls not in (
            HomogeneityClass.HOMOGENEOUS_SINGLE_SOURCE,
            HomogeneityClass.HOMOGENEOUS_MULTI_SOURCE,
        ):
            raise ConfigError(
                "the servers sweep holds per-source totals fixed and needs an "
                "exchangeable-server base config"
            )
        if not (value >= 1 and float(value).is_integer()):
            raise ConfigError("servers values must be positive integers")
        k = int(value)
        rows = [[config.source_total(i) / k] * k for i in range(config.sources)]
        return NetworkConfig(
            config.sources, k, rows, [config.service_rates[0]] * k, config.discipline
        )
    if parameter in ("per-server-arrival", "total-arrival"):
        if config.sources != 1:
            raise ConfigError(f"{parameter} sweeps need a single-source config")
        if value <= 0:
            raise ConfigError(f"{parameter} values must be > 0")
        per_server = value if parameter == "per-server-arrival" else value / n
        return replace(config, arrival_rates=((per_server,) * n,))
    if parameter == "tracked-source-rate":
        if classify(config) is not HomogeneityClass.HOMOGENEOUS_MULTI_SOURCE:
            raise ConfigError(
                "tracked-source-rate sweeps need an exchangeable-server multi-source config"
            )
        if value <= 0:
            raise ConfigError("tracked-source-rate values must be > 0")
        rows = [(value,) * n] + [config.arrival_rates[i] for i in range(1, config.sources)]
        return replace(config, arrival_rates=tuple(rows))
    # mu1-share
    if config.servers != 2:
        raise ConfigError("mu1-share sweeps need a two-server config")
    total = sum(config.service_rates)
    if not (0 < value < total):
        raise ConfigError(f"mu1-share values must lie strictly between 0 and {total:g}")
    return replace(config, service_rates=(value, total - value))


def _max_workers(points: int) -> int:
    # one thread per CPU this process may run on, where the platform tells
    affinity = getattr(os, "sched_getaffinity", None)
    cap = len(affinity(0)) if affinity else os.cpu_count() or 1
    env = os.environ.get("AOI_THREADS")
    if env is not None:
        try:
            cap = max(1, int(env))
        except ValueError:
            raise ConfigError(f"AOI_THREADS must be an integer, not {env!r}") from None
    return max(1, min(points, cap))


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate every grid point with every engine; rows stay in grid order."""
    labels = []  # one per row group, in row order
    for engine in spec.engines:
        labels += [f"sim:{d.value}" for d in spec.disciplines] if engine == "sim" else [engine]

    def point_rows(value: float, config: NetworkConfig) -> list[SweepRow]:
        return [
            SweepRow(value, label, i, *found)
            for label in labels
            for i, found in enumerate(evaluate(label, config, spec.run, spec.replications))
        ]

    with ThreadPoolExecutor(max_workers=_max_workers(len(spec.grid))) as ex:
        per_point = list(ex.map(point_rows, spec.grid, spec.points))
    return SweepResult(
        rows=[row for rows in per_point for row in rows],
        seed=spec.run.seed,
        horizon=spec.run.horizon,
        timestamp=datetime.now(timezone.utc).isoformat(timespec="seconds"),
        version=__version__,
    )


def sweep_csv(result: SweepResult) -> str:
    lines = [CSV_HEADER]
    for r in result.rows:
        lines.append(
            ",".join(
                (
                    _fmt(r.param),
                    r.engine,
                    str(r.source),
                    "" if r.aoi is None else _fmt(r.aoi),
                    "" if r.ci_half_width is None else _fmt(r.ci_half_width),
                    r.error.replace(",", ";"),
                )
            )
        )
    return "\n".join(lines) + "\n"


def sweep_json(result: SweepResult) -> str:
    metadata = asdict(result)
    rows = metadata.pop("rows")
    return json.dumps({"metadata": metadata, "rows": rows}, indent=2) + "\n"


def _read_spec_text(name: str) -> str:
    if name in _RECIPES:
        return (
            importlib.resources.files("aoinet.recipes")
            .joinpath(f"{name}.json")
            .read_text(encoding="utf-8")
        )
    return Path(name).read_text(encoding="utf-8")


def _write_out(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def cmd_analytic(args: argparse.Namespace) -> int:
    config = load_config(Path(args.config).read_text(encoding="utf-8"))
    found = {name: evaluate(name, config) for name in ("analytic", "shs")}
    if all(aoi is None for values in found.values() for aoi, _, _ in values):
        errors = "; ".join(f"{name}: {values[0][2]}" for name, values in found.items())
        sys.stderr.write(f"aoinet: error: no analytic engine applies: {errors}\n")
        return 2
    # each engine's value or error, as JSON fields and as text, per source
    entries = [{"source": i} for i in range(config.sources)]
    lines = [f"source {i}:" for i in range(config.sources)]
    for name, values in found.items():
        for i, (aoi, _, error) in enumerate(values):
            if aoi is None:
                entries[i][f"{name}_error"] = error
                lines[i] += f" {name}=error({error})"
            else:
                entries[i][name] = aoi
                lines[i] += f" {name}={_fmt(aoi)}"
    pairs = [(e["analytic"], e["shs"]) for e in entries if "analytic" in e and "shs" in e]
    worst = max((abs(a - b) / max(abs(a), abs(b)) for a, b in pairs), default=None)
    if args.format == "json":
        doc = {"sources": entries, "max_rel_disagreement": worst}
        _write_out(json.dumps(doc, indent=2) + "\n", args.out)
    else:
        lines.append(
            "max relative disagreement: "
            + ("n/a" if worst is None else f"{worst:.3e}")
        )
        _write_out("\n".join(lines) + "\n", args.out)
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    config = load_config(Path(args.config).read_text(encoding="utf-8"))
    params = SimParams(
        config=config,
        horizon=args.horizon,
        seed=args.seed,
        warmup=args.warmup,
        batches=args.batches,
    )
    result = replicate(params, args.replications)
    if args.format == "json":
        _write_out(json.dumps(asdict(result), indent=2) + "\n", args.out)
    else:
        lines = [
            f"source {i}: aoi={_fmt(a)} ci_half_width={_fmt(c)}"
            for i, (a, c) in enumerate(zip(result.aoi, result.ci_half_width))
        ]
        lines.append(
            f"deliveries={result.deliveries} useful={result.useful_deliveries} "
            f"stale={result.discarded_stale}"
        )
        _write_out("\n".join(lines) + "\n", args.out)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    spec = load_sweep_spec(_read_spec_text(args.spec))
    overrides = {"seed": args.seed, "horizon": args.horizon}
    run = replace(spec.run, **{k: v for k, v in overrides.items() if v is not None})
    result = run_sweep(replace(spec, run=run))
    text = sweep_json(result) if args.format == "json" else sweep_csv(result)
    _write_out(text, args.out)
    return 0 if all(not r.error for r in result.rows) else 1


def load_optimize_spec(text: str) -> tuple[float, float, tuple[float, ...]]:
    """Parse a hetero-n2 optimize spec into (total_arrival, service_total, mu1_grid)."""
    doc = parse_json(text)
    opt = doc.get("optimize") if isinstance(doc, dict) else None
    if not isinstance(opt, dict) or opt.get("kind") != "hetero-n2":
        raise ConfigError("optimize spec must contain {'optimize': {'kind': 'hetero-n2', ...}}")
    reject_unknown_fields(doc, ("optimize",), " in optimize spec")
    reject_unknown_fields(opt, _OPTIMIZE_FIELDS, " in 'optimize'")

    def positive(key: str) -> float:
        value = opt.get(key)
        if not (is_number(value) and math.isfinite(value) and value > 0):
            raise ConfigError(f"optimize spec needs '{key}' as a finite number > 0")
        return float(value)

    lam, mu_total = positive("total_arrival"), positive("service_total")
    grid = opt.get("mu1_grid")
    if not isinstance(grid, list) or not grid or not all(is_number(v) for v in grid):
        raise ConfigError("optimize spec needs a non-empty mu1_grid of numbers")
    if any(not (0 < v < mu_total) for v in grid):
        raise ConfigError("mu1_grid values must lie strictly between 0 and service_total")
    return lam, mu_total, tuple(float(v) for v in grid)


def _optimize_report(split, delta: float | None, fmt: str, out: str | None) -> None:
    if fmt == "json":
        _write_out(json.dumps({**asdict(split), "grid_delta": delta}, indent=2) + "\n", out)
    else:
        lines = [
            "rates: " + " ".join(_fmt(r) for r in split.rates),
            f"objective: {_fmt(split.objective)}",
            f"boundary: {'yes' if split.boundary else 'no'}",
            "grid check delta: "
            + ("skipped (needs 2 rates)" if delta is None else f"{delta:.3e}"),
        ]
        _write_out("\n".join(lines) + "\n", out)


def _grid_delta(split, objective, lam: float, eps: float = 0.0) -> float:
    """Distance of the split's first rate from a golden-section search on [eps, lam - eps].

    The search resolves 1e-9 of the total lam, so a total whose 1e-9 is 0 in
    floats, or whose ages overflow on that interval, is a ConfigError naming it.
    """
    if not 1e-9 * lam > 0:
        raise ConfigError(f"total arrival rate {lam!r} is too small for the grid check")
    try:
        gx, _ = grid_minimize(objective, eps, lam - eps, tol=1e-9 * lam)
    except ValueError as e:
        raise ConfigError(f"grid check overflows at total arrival rate {lam!r}: {e}") from None
    return abs(split.rates[0] - gx)


def _hetero_n2_split(lam: float, mu1: float, mu2: float):
    """Closed-form two-server split and its distance from a golden-section search."""
    split = optimal_hetero_split_n2(lam, mu1, mu2)
    return split, _grid_delta(split, lambda l1: aoi_hetero_n2(l1, lam - l1, mu1, mu2), lam)


def cmd_optimize(args: argparse.Namespace) -> int:
    if args.spec is not None:
        lam, mu_total, grid = load_optimize_spec(_read_spec_text(args.spec))
        lines = ["mu1,lambda1,lambda2,objective,boundary,grid_delta"]
        for mu1 in grid:
            split, delta = _hetero_n2_split(lam, mu1, mu_total - mu1)
            fields = [_fmt(x) for x in (mu1, *split.rates, split.objective)]
            fields += ["true" if split.boundary else "false", _fmt(delta)]
            lines.append(",".join(fields))
        _write_out("\n".join(lines) + "\n", args.out)
        return 0

    if args.kind == "weighted":
        if args.weights is None or args.total is None or args.mu is None:
            raise ConfigError("weighted optimize needs --weights, --total and --mu")
        try:
            weights = [float(w) for w in args.weights.split(",")]
        except ValueError:
            raise ConfigError(
                f"--weights must be comma-separated numbers, not {args.weights!r}"
            ) from None
        split = optimal_weighted_split(weights, args.total, args.mu)
        delta = None
        if len(weights) == 2:
            (w1, w2), lam, mu = weights, args.total, args.mu
            delta = _grid_delta(
                split,
                lambda l1: w1 * aoi_multi_source_n2(l1, lam, mu)
                + w2 * aoi_multi_source_n2(lam - l1, lam, mu),
                lam,
                eps=1e-9 * lam,
            )
        _optimize_report(split, delta, args.format, args.out)
        return 0

    if args.kind == "hetero-n2":
        if args.total is None or args.mu1 is None or args.mu2 is None:
            raise ConfigError("hetero-n2 optimize needs --total, --mu1 and --mu2")
        split, delta = _hetero_n2_split(args.total, args.mu1, args.mu2)
        _optimize_report(split, delta, args.format, args.out)
        return 0

    raise ConfigError("optimize needs --spec or --kind")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one argument parser, built on first use and shared by every later call.

    It keeps no per-call state: `parse_args` returns a fresh namespace, and no
    default is mutable.
    """
    p = argparse.ArgumentParser(
        prog="aoinet",
        description="Average age of information for multi-source multi-server update networks",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analytic", help="closed-form and chain engine values for a config")
    pa.add_argument("--config", required=True, help="network config JSON file")
    pa.add_argument("--format", choices=("text", "json"), default="text")
    pa.add_argument("--out", help="write output here instead of stdout")
    pa.set_defaults(fn=cmd_analytic)

    ps = sub.add_parser("simulate", help="simulate a config and report per-source age")
    ps.add_argument("--config", required=True, help="network config JSON file")
    ps.add_argument("--horizon", type=float, default=1e5)
    ps.add_argument("--warmup", type=float, default=None, help="default: 1%% of horizon")
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--batches", type=int, default=32)
    ps.add_argument("--replications", type=int, default=1)
    ps.add_argument("--format", choices=("text", "json"), default="text")
    ps.add_argument("--out")
    ps.set_defaults(fn=cmd_simulate)

    pw = sub.add_parser("sweep", help="evaluate engines across a parameter grid")
    pw.add_argument(
        "--spec",
        required=True,
        help=f"sweep spec JSON file, or a built-in recipe name ({', '.join(_RECIPES)})",
    )
    pw.add_argument("--seed", type=int, default=None, help="override the spec seed")
    pw.add_argument("--horizon", type=float, default=None, help="override the spec horizon")
    pw.add_argument("--format", choices=("csv", "json"), default="csv")
    pw.add_argument("--out")
    pw.set_defaults(fn=cmd_sweep)

    po = sub.add_parser("optimize", help="closed-form rate splits with a grid cross-check")
    po.add_argument("--spec", default=None, help="optimizer sweep spec (e.g. fig5)")
    po.add_argument("--kind", choices=("weighted", "hetero-n2"), default=None)
    po.add_argument("--weights", help="comma-separated weights (weighted kind)")
    po.add_argument("--total", type=float, help="total arrival rate to split")
    po.add_argument("--mu", type=float, help="per-server service rate (weighted kind)")
    po.add_argument("--mu1", type=float, help="first service rate (hetero-n2 kind)")
    po.add_argument("--mu2", type=float, help="second service rate (hetero-n2 kind)")
    po.add_argument("--format", choices=("text", "json"), default="text")
    po.add_argument("--out")
    po.set_defaults(fn=cmd_optimize)
    return p


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, ValueError, OSError, ArithmeticError, MemoryError) as e:
        sys.stderr.write(f"aoinet: error: {_message(e)}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
