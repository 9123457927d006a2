"""Seeded input generation for the aoinet benchmark.

`generate(workload, seed, outdir)` writes the workload's JSON inputs plus a
`manifest.json` listing one pass of CLI calls and the output check each call
gets. The same (workload, seed) always writes the same bytes. Run as a script
it is the set-up step whose wall time `run.py` reports as `setup_s`: a fresh
interpreter imports aoinet, generates and writes the inputs, and exits.

    python3 perfbench/workloads.py --workload chain_large --seed 1 --out DIR

Why each workload exists is written in perfbench/README.md.
"""
from __future__ import annotations

import argparse
import importlib.resources
import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from aoinet import (  # noqa: E402
    HomogeneityClass,
    NetworkConfig,
    classify,
    dump_config,
)

# sim_fig6: the fig6 recipe's grid, disciplines, servers and batches. One
# replication of a 6x shorter horizon makes a sweep take under a second, so a
# run holds enough sweeps for steady percentiles; with 32 batch means the
# interval stays well estimated for the lcfs-s reference check.
FIG6_HORIZON = 50000.0
FIG6_WARMUP = 500.0
FIG6_REPLICATIONS = 1

# sim_multisource: one pass is every discipline on every (sources, servers)
# shape, plus the two closed-form references (2 and 3 shared servers). Shapes
# and per-server loads are fixed, so the seed moves rates, not the amount of
# work: each server gets MULTI_LOAD arrivals per unit time in total.
MULTI_SHAPES = ((2, 2), (3, 3), (2, 4), (3, 4))
MULTI_LOAD = 0.5
MULTI_HORIZON = 20000.0
MULTI_REPLICATIONS = 4
REF_SHAPES = ((2, 2), (3, 3))
REF_HORIZON = 100000.0
REF_REPLICATIONS = 8

# chain_large: five distinct servers (5! = 120 states, 720 age unknowns)
CHAIN_SERVERS = 5
CHAIN_BASES = 3
CHAIN_EQUAL_RATE = 2

# exact_small: small exact calls around the fig4/fig5 recipes. With 102 calls
# a pass, the op p90 (taken over the calls of one pass) has ten beyond it.
SMALL_DISTINCT = 50
SMALL_SHARED = 50


def _rate(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 4)


class _Writer:
    """Collects the pass's ops while writing their input files."""

    def __init__(self, outdir: Path) -> None:
        self.outdir = outdir
        self.ops: list[dict] = []

    def file(self, name: str, text: str) -> str:
        (self.outdir / name).write_text(text, encoding="utf-8")
        return name

    def config(self, name: str, cfg: NetworkConfig, expect: HomogeneityClass) -> str:
        if classify(cfg) is not expect:
            raise ValueError(f"{name}: generated config is {classify(cfg)}, not {expect}")
        return self.file(name, dump_config(cfg))

    def op(self, op_id: str, command: str, flag: str, path: str, args: list[str],
           check: dict) -> None:
        self.ops.append(
            {"id": op_id, "command": command, "flag": flag, "file": path,
             "args": args, "check": check}
        )


def _recipe(name: str) -> str:
    return importlib.resources.files("aoinet.recipes").joinpath(f"{name}.json").read_text(
        encoding="utf-8"
    )


def _sim_fig6(w: _Writer, rng: random.Random) -> None:
    doc = json.loads(_recipe("fig6"))
    sw = doc["sweep"]
    sw["horizon"] = FIG6_HORIZON
    sw["warmup"] = FIG6_WARMUP
    sw["replications"] = FIG6_REPLICATIONS
    sw["seed"] = rng.randrange(2**31)
    path = w.file("fig6.json", json.dumps(doc, indent=2) + "\n")
    base = doc["config"]
    check = {
        "kind": "fig6",
        "servers": base["servers"],
        "mu": base["service_rates"][0],
        "grid": sw["grid"],
        "disciplines": sw["disciplines"],
    }
    w.op("fig6", "sweep", "--spec", path, [], check)


def _simulate_args(rng: random.Random, horizon: float, reps: int) -> list[str]:
    return [
        "--horizon", repr(horizon), "--seed", str(rng.randrange(2**31)),
        "--replications", str(reps), "--format", "json",
    ]


def _split(rng: random.Random, total: float, parts: int) -> list[float]:
    """`total` split into `parts` random shares, none below half of another."""
    w = [rng.uniform(0.5, 1.0) for _ in range(parts)]
    return [round(total * x / sum(w), 4) for x in w]


def _sim_multisource(w: _Writer, rng: random.Random) -> None:
    k = 0
    for disc in ("lcfs-s", "lcfs-w", "fcfs"):
        for m, n in MULTI_SHAPES:
            # service rates >= 0.8 keep every server stable under fcfs
            mus = [_rate(rng, 0.8, 1.2) for _ in range(n)]
            cols = [_split(rng, MULTI_LOAD, m) for _ in range(n)]
            rows = [[cols[j][i] for j in range(n)] for i in range(m)]
            cfg = NetworkConfig(m, n, rows, mus, disc)
            path = w.config(f"general_{k:02d}.json", cfg, HomogeneityClass.GENERAL)
            w.op(f"general_{k:02d}", "simulate", "--config", path,
                 _simulate_args(rng, MULTI_HORIZON, MULTI_REPLICATIONS),
                 {"kind": "sim", "sources": m})
            k += 1
    for m, n in REF_SHAPES:
        mu = _rate(rng, 0.8, 1.2)
        lams = _split(rng, MULTI_LOAD, m)
        cfg = NetworkConfig(m, n, [[lam] * n for lam in lams], [mu] * n, "lcfs-s")
        path = w.config(f"reference_n{n}.json", cfg, HomogeneityClass.HOMOGENEOUS_MULTI_SOURCE)
        w.op(f"reference_n{n}", "simulate", "--config", path,
             _simulate_args(rng, REF_HORIZON, REF_REPLICATIONS),
             {"kind": "sim_ref", "servers": n, "rates": lams, "mu": mu})


def _distinct_check(lams: list[float], mus: list[float]) -> dict:
    return {"kind": "distinct", "lams": lams, "mus": mus, "closed_form": len(lams) <= 3}


def _chain_large(w: _Writer, rng: random.Random) -> None:
    n = CHAIN_SERVERS
    for b in range(CHAIN_BASES):
        lams = [_rate(rng, 0.2, 2.0) for _ in range(n)]
        mus = [_rate(rng, 0.5, 2.0) for _ in range(n)]
        group = f"base_{b}"
        cfg = NetworkConfig(1, n, [lams], mus, "lcfs-s")
        path = w.config(f"{group}.json", cfg, HomogeneityClass.HETEROGENEOUS_SINGLE_SOURCE)
        w.op(group, "analytic", "--config", path, ["--format", "json"],
             {**_distinct_check(lams, mus), "group": group})
        perm = list(range(n))
        while perm == sorted(perm):
            rng.shuffle(perm)
        plams = [lams[j] for j in perm]
        pmus = [mus[j] for j in perm]
        cfg = NetworkConfig(1, n, [plams], pmus, "lcfs-s")
        path = w.config(f"{group}_relabelled.json", cfg,
                        HomogeneityClass.HETEROGENEOUS_SINGLE_SOURCE)
        w.op(f"{group}_relabelled", "analytic", "--config", path, ["--format", "json"],
             {**_distinct_check(plams, pmus), "group": group})
    for e in range(CHAIN_EQUAL_RATE):
        lam = _rate(rng, 0.2, 2.0)
        mu = _rate(rng, 0.5, 2.0)
        cfg = NetworkConfig(1, n, [[lam] * n], [mu] * n, "lcfs-s")
        path = w.config(f"equal_{e}.json", cfg, HomogeneityClass.HOMOGENEOUS_SINGLE_SOURCE)
        w.op(f"equal_{e}", "analytic", "--config", path, ["--format", "json"],
             {"kind": "equal_rate", "servers": n, "lam": lam, "mu": mu})


def _exact_small(w: _Writer, rng: random.Random) -> None:
    text = _recipe("fig4")
    fig4 = json.loads(text)
    path = w.file("fig4.json", text)
    w.op("fig4", "sweep", "--spec", path, [],
         {"kind": "fig4", "grid": fig4["sweep"]["grid"],
          "total": fig4["config"]["arrival_rates"][0][0],
          "mu": fig4["config"]["service_rates"][0]})
    text = _recipe("fig5")
    fig5 = json.loads(text)
    path = w.file("fig5.json", text)
    w.op("fig5", "optimize", "--spec", path, [],
         {"kind": "fig5", "grid": fig5["optimize"]["mu1_grid"],
          "total": fig5["optimize"]["total_arrival"]})
    for k in range(SMALL_DISTINCT):
        n = 2 + k % 3
        lams = [_rate(rng, 0.1, 2.0) for _ in range(n)]
        mus = [_rate(rng, 0.3, 3.0) for _ in range(n)]
        cfg = NetworkConfig(1, n, [lams], mus, "lcfs-s")
        path = w.config(f"distinct_{k:02d}.json", cfg,
                        HomogeneityClass.HETEROGENEOUS_SINGLE_SOURCE)
        w.op(f"distinct_{k:02d}", "analytic", "--config", path, ["--format", "json"],
             _distinct_check(lams, mus))
    for k in range(SMALL_SHARED):
        m = 2 + k % 2
        n = 2 + k % 3
        lams = [_rate(rng, 0.1, 1.0) for _ in range(m)]
        mu = _rate(rng, 0.5, 2.0)
        cfg = NetworkConfig(m, n, [[lam] * n for lam in lams], [mu] * n, "lcfs-s")
        path = w.config(f"shared_{k:02d}.json", cfg,
                        HomogeneityClass.HOMOGENEOUS_MULTI_SOURCE)
        w.op(f"shared_{k:02d}", "analytic", "--config", path, ["--format", "json"],
             {"kind": "shared", "servers": n, "rates": lams, "mu": mu,
              "closed_form": n <= 3})


_GENERATORS = {
    "sim_fig6": _sim_fig6,
    "sim_multisource": _sim_multisource,
    "chain_large": _chain_large,
    "exact_small": _exact_small,
}
WORKLOADS = tuple(_GENERATORS)


def generate(workload: str, seed: int, outdir: Path) -> list[dict]:
    """Write the inputs of one pass of `workload` under `outdir`; return its ops."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload '{workload}'")
    outdir.mkdir(parents=True, exist_ok=True)
    w = _Writer(outdir)
    _GENERATORS[workload](w, random.Random(f"{workload}:{seed}"))
    w.file("manifest.json", json.dumps(
        {"workload": workload, "seed": seed, "ops": w.ops}, indent=1) + "\n")
    return w.ops


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args()
    generate(args.workload, args.seed, Path(args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
