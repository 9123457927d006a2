"""The error contract of every command: exit 0, 1 or 2, and an exit 2 is one line.

Every command runs in-process through `cli.main` on values drawn from one set
that spans zero, subnormals, extreme magnitudes, inf and nan, with numpy's
warnings as errors. A traceback, a numpy warning, a multi-line refusal or a
message that leaks a repr or an internal name fails the property.
"""
import contextlib
import io
import json
import math
import re
import tempfile
import warnings
from pathlib import Path

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from aoinet import cli

VALUES = (0.0, 1e-320, 1e-310, 1e-300, 1e-200, 1e-30, 1e-8, 0.1, 0.5, 1.0, 3.0, 10.0,
          1e5, 1e30, 1e200, 1e300, 1e308, math.inf, math.nan)
value = st.sampled_from(VALUES)
# half the rates of a config are ordinary, so that most configs reach an engine
rate = st.one_of(st.sampled_from((0.1, 0.5, 1.0, 3.0, 10.0)), value)
# a numpy scalar's repr, or a parameter name that only the code knows
LEAK = re.compile(r"np\.float64\(|\btol\b|\blam1\b|\blam_i\b")
# simulated arrivals per stream, rate x horizon, are kept at or below this
MAX_LOAD = 1e5


@st.composite
def configs(draw, servers=st.integers(1, 3)):
    m, n = draw(st.integers(1, 2)), draw(servers)
    if draw(st.booleans()):  # exchangeable servers
        rows, mus = [[draw(rate)] * n for _ in range(m)], [draw(rate)] * n
    else:
        rows = [draw(st.lists(rate, min_size=n, max_size=n)) for _ in range(m)]
        mus = draw(st.lists(rate, min_size=n, max_size=n))
    discipline = draw(st.sampled_from(["lcfs-s", "lcfs-w", "fcfs"]))
    return {"sources": m, "servers": n, "arrival_rates": rows, "service_rates": mus,
            "discipline": discipline}


def small_or_refused(rates, horizon):
    """Whether the largest finite rate x horizon is small, or so large (past 2^52
    expected arrivals, inf or nan) that the simulator refuses it before drawing."""
    top = max((r for r in rates if math.isfinite(r)), default=0.0)
    return not MAX_LOAD < top * horizon <= 2.0**53


def run(argv, files=()):
    """(exit code, stdout, stderr) of `cli.main(argv)`, with `files` (name, doc) written first."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc in files:
            (Path(tmp) / name).write_text(json.dumps(doc), encoding="utf-8")
        argv = [a.replace("{tmp}", tmp) for a in argv]
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error", RuntimeWarning)
            code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def check(code, out, err, sweep=False):
    assert code in ((0, 1, 2) if sweep else (0, 2)), (code, out, err)
    if code == 2:
        assert out == "" and err.count("\n") == 1 and err.startswith("aoinet: error: "), err
    else:
        assert err == ""
    assert not LEAK.search(out + err), out + err


@settings(derandomize=True, max_examples=100, deadline=None)
@given(configs(), st.sampled_from(["text", "json"]))
def test_analytic_keeps_the_error_contract(config, fmt):
    files = [("config.json", config)]
    check(*run(["analytic", "--config", "{tmp}/config.json", "--format", fmt], files))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(configs(), value, st.integers(1, 3))
def test_simulate_keeps_the_error_contract(config, horizon, replications):
    assume(small_or_refused([r for row in config["arrival_rates"] for r in row], horizon))
    argv = ["simulate", "--config", "{tmp}/config.json", "--horizon", repr(horizon),
            "--replications", str(replications), "--format", "json"]
    check(*run(argv, [("config.json", config)]))


@settings(derandomize=True, max_examples=80, deadline=None)
@given(
    configs(servers=st.integers(1, 2)),
    st.sampled_from(cli._SWEEP_PARAMETERS),
    st.lists(rate, min_size=1, max_size=3),
    st.lists(st.sampled_from(cli._ENGINE_NAMES), min_size=1, max_size=3, unique=True),
    value,
)
def test_sweep_keeps_the_error_contract(config, parameter, grid, engines, horizon):
    # a finite grid in increasing order, else the spec is refused as it loads
    grid = sorted({g for g in grid if not math.isnan(g)}) or grid
    sweep = {"parameter": parameter, "grid": grid, "engines": engines}
    if "sim" in engines:
        rates = [r for row in config["arrival_rates"] for r in row]
        if parameter in ("per-server-arrival", "total-arrival", "tracked-source-rate"):
            rates += grid
        assume(small_or_refused(rates, horizon))
        sweep["horizon"] = horizon
    code, out, err = run(["sweep", "--spec", "{tmp}/spec.json"],
                         [("spec.json", {"config": config, "sweep": sweep})])
    check(code, out, err, sweep=True)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    st.sampled_from(["weighted", "hetero-n2", "spec"]),
    st.lists(st.sampled_from((-1.0, *VALUES)), min_size=1, max_size=3),
    rate, rate, rate,
    st.lists(rate, min_size=1, max_size=3),
)
def test_optimize_keeps_the_error_contract(kind, weights, total, a, b, grid):
    files = []
    if kind == "weighted":
        # with '=', a weight list that starts with '-' is not read as an option
        argv = ["--kind", kind, "--weights=" + ",".join(map(repr, weights)),
                "--total", repr(total), "--mu", repr(a)]
    elif kind == "hetero-n2":
        argv = ["--kind", kind, "--total", repr(total), "--mu1", repr(a), "--mu2", repr(b)]
    else:
        spec = {"kind": "hetero-n2", "total_arrival": total, "service_total": a,
                "mu1_grid": grid}
        argv, files = ["--spec", "{tmp}/spec.json"], [("spec.json", {"optimize": spec})]
    check(*run(["optimize", *argv], files))
