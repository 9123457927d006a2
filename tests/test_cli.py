"""CLI surface: engine routing, sweep specs, artifacts, exit codes."""
import argparse
import collections
import contextlib
import functools
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aoinet import analytic, builders, cli, shs, sim
from aoinet.analytic import aoi_hetero_n2, aoi_lcfs_homogeneous, aoi_multi_source_n2
from aoinet.cli import (
    CSV_HEADER,
    EngineError,
    SweepResult,
    SweepRow,
    apply_parameter,
    chain_aoi,
    closed_form_aoi,
    evaluate,
    load_sweep_spec,
    main,
    run_sweep,
    sweep_csv,
    sweep_json,
    _max_workers,
    _read_spec_text,
)
from aoinet.model import ConfigError, HomogeneityClass, NetworkConfig, classify

DATA = Path(__file__).parent / "data"


def cfg(m=1, n=2, rates=None, mus=None, disc="lcfs-s"):
    if rates is None:
        rates = [[1.0] * n for _ in range(m)]
    if mus is None:
        mus = [1.0] * n
    return NetworkConfig(m, n, rates, mus, disc)


def config_doc(m=1, n=2, rates=None, mus=None, disc="lcfs-s"):
    c = cfg(m, n, rates, mus, disc)
    return {
        "sources": c.sources,
        "servers": c.servers,
        "arrival_rates": [list(r) for r in c.arrival_rates],
        "service_rates": list(c.service_rates),
        "discipline": disc,
    }


def sweep_doc(config=None, **sweep):
    doc = {"config": config or config_doc(), "sweep": sweep}
    return json.dumps(doc)


# ---------------------------------------------------------------- engines


def test_closed_form_routes_homogeneous():
    assert closed_form_aoi(cfg(), 0) == pytest.approx(1.25, rel=1e-12)
    assert chain_aoi(cfg(), 0) == pytest.approx(1.25, rel=1e-10)


def test_closed_form_routes_shared_servers():
    shared = cfg(m=2, n=2, rates=[[0.5, 0.5], [0.5, 0.5]])
    want = aoi_multi_source_n2(0.5, 1.0, 1.0)
    assert closed_form_aoi(shared, 0) == pytest.approx(want, rel=1e-12)
    assert chain_aoi(shared, 1) == pytest.approx(want, rel=1e-10)


def test_closed_form_routes_distinct_servers():
    two = cfg(rates=[[2.0, 1.0]], mus=[1.0, 2.0])
    assert closed_form_aoi(two, 0) == pytest.approx(11.0 / 12.0, rel=1e-12)
    assert chain_aoi(two, 0) == pytest.approx(11.0 / 12.0, rel=1e-10)


def test_closed_form_gaps_fall_back_to_chain():
    wide = cfg(m=2, n=4, rates=[[0.5] * 4, [0.25] * 4])
    with pytest.raises(EngineError, match="4 shared servers"):
        closed_form_aoi(wide, 0)
    assert chain_aoi(wide, 0) > 0

    distinct = cfg(n=4, rates=[[0.5, 0.6, 0.7, 0.8]], mus=[1.0, 1.1, 1.2, 1.3])
    with pytest.raises(EngineError, match="4 distinct servers"):
        closed_form_aoi(distinct, 0)
    assert chain_aoi(distinct, 0) > 0


def test_idle_server_is_dropped_by_both_engines():
    # a server no source sends to never delivers: same bits as without it
    idle = cfg(n=3, rates=[[0.7, 0.0, 1.3]], mus=[1.0, 5.0, 2.0])
    two = cfg(n=2, rates=[[0.7, 1.3]], mus=[1.0, 2.0])
    assert closed_form_aoi(idle, 0) == closed_form_aoi(two, 0)
    assert chain_aoi(idle, 0) == chain_aoi(two, 0)
    shared = cfg(m=2, n=3, rates=[[0.5, 0.0, 0.5], [0.25, 0.0, 0.25]], mus=[1.0, 3.0, 1.0])
    both = cfg(m=2, n=2, rates=[[0.5, 0.5], [0.25, 0.25]])
    assert closed_form_aoi(shared, 1) == closed_form_aoi(both, 1)
    assert chain_aoi(shared, 1) == chain_aoi(both, 1)


def test_seven_servers_with_one_idle_are_solved_by_the_chain():
    seven = cfg(n=7, rates=[[0.5] * 3 + [0.0] + [0.5] * 3], mus=[1.0] * 3 + [9.0] + [1.0] * 3)
    want = aoi_lcfs_homogeneous(6, 0.5, 1.0)
    assert chain_aoi(seven, 0) == pytest.approx(want, rel=1e-10)
    assert closed_form_aoi(seven, 0) == want


def test_no_engine_for_distinct_multi_source():
    awkward = cfg(m=2, n=2, rates=[[0.5, 0.4], [0.3, 0.2]], mus=[1.0, 2.0])
    with pytest.raises(EngineError, match="multi-source"):
        closed_form_aoi(awkward, 0)
    with pytest.raises(EngineError, match="multi-source"):
        chain_aoi(awkward, 0)


def test_no_engine_for_other_disciplines():
    queued = cfg(disc="fcfs")
    with pytest.raises(EngineError, match="discipline 'fcfs'; use simulate"):
        closed_form_aoi(queued, 0)
    with pytest.raises(EngineError, match="use simulate"):
        chain_aoi(queued, 0)


# ---------------------------------------------------------------- sweep specs


def test_load_sweep_spec_defaults():
    spec = load_sweep_spec(
        sweep_doc(parameter="servers", grid=[1, 2, 3], engines=["analytic"])
    )
    assert spec.parameter == "servers"
    assert spec.grid == (1.0, 2.0, 3.0)
    assert spec.engines == ("analytic",)
    assert spec.run.horizon == 1e5
    assert spec.run.seed == 0
    assert spec.run.batches == 32
    assert spec.replications == 1
    assert [d.value for d in spec.disciplines] == ["lcfs-s"]


def test_load_sweep_spec_rejects_bad_documents():
    with pytest.raises(ConfigError, match="parse error at line"):
        load_sweep_spec("{nope")
    with pytest.raises(ConfigError, match="'config' and 'sweep'"):
        load_sweep_spec(json.dumps({"config": config_doc()}))
    with pytest.raises(ConfigError, match="parameter must be one of"):
        load_sweep_spec(sweep_doc(parameter="rho", grid=[1], engines=["analytic"]))
    with pytest.raises(ConfigError, match="strictly increasing"):
        load_sweep_spec(
            sweep_doc(parameter="servers", grid=[2, 1], engines=["analytic"])
        )
    with pytest.raises(ConfigError, match="non-empty list"):
        load_sweep_spec(sweep_doc(parameter="servers", grid=[], engines=["analytic"]))
    with pytest.raises(ConfigError, match="engines must be drawn from"):
        load_sweep_spec(sweep_doc(parameter="servers", grid=[1], engines=["magic"]))
    with pytest.raises(ConfigError, match="positive integers"):
        load_sweep_spec(
            sweep_doc(parameter="servers", grid=[1.5, 2.0], engines=["analytic"])
        )
    with pytest.raises(ConfigError, match="unknown discipline"):
        load_sweep_spec(
            sweep_doc(
                parameter="servers",
                grid=[1],
                engines=["sim"],
                disciplines=["lifo"],
            )
        )


def test_apply_parameter_servers_keeps_totals():
    base = cfg(m=2, n=2, rates=[[0.5, 0.5], [0.25, 0.25]])
    out = apply_parameter(base, "servers", 4.0)
    assert out.servers == 4
    assert out.source_total(0) == pytest.approx(1.0, rel=1e-12)
    assert out.source_total(1) == pytest.approx(0.5, rel=1e-12)
    assert out.service_rates == (1.0,) * 4


def test_apply_parameter_servers_needs_exchangeable_base():
    with pytest.raises(ConfigError, match="exchangeable"):
        apply_parameter(cfg(mus=[1.0, 2.0]), "servers", 3.0)


@pytest.mark.parametrize("value", [2.5, 0.0, -1.0, math.nan])
def test_apply_parameter_servers_needs_a_positive_integer(value):
    # a direct call is checked as a sweep point is, never truncated
    with pytest.raises(ConfigError, match="^servers values must be positive integers$"):
        apply_parameter(cfg(), "servers", value)


def test_sweep_disciplines_need_the_sim_engine():
    with pytest.raises(ConfigError, match="'disciplines' needs the 'sim' engine"):
        load_sweep_spec(sweep_doc(parameter="servers", grid=[1], engines=["analytic", "shs"],
                                  disciplines=["fcfs"]))
    # the run fields only the simulator reads stay accepted; horizon and seed
    # are reported in the sweep's metadata
    spec = load_sweep_spec(sweep_doc(parameter="servers", grid=[1], engines=["analytic"],
                                     horizon=50.0, seed=3, replications=7))
    assert (spec.run.horizon, spec.run.seed, spec.replications) == (50.0, 3, 7)


def test_apply_parameter_arrival_values():
    out = apply_parameter(cfg(), "per-server-arrival", 0.3)
    assert out.arrival_rates == ((0.3, 0.3),)
    out = apply_parameter(cfg(), "total-arrival", 3.0)
    assert out.arrival_rates == ((1.5, 1.5),)
    with pytest.raises(ConfigError, match="> 0"):
        apply_parameter(cfg(), "per-server-arrival", 0.0)
    with pytest.raises(ConfigError, match="single-source"):
        apply_parameter(
            cfg(m=2, rates=[[0.5, 0.5], [0.5, 0.5]]), "per-server-arrival", 0.3
        )


def test_apply_parameter_tracked_source_rate():
    base = cfg(m=2, n=2, rates=[[0.5, 0.5], [0.7, 0.7]])
    out = apply_parameter(base, "tracked-source-rate", 0.9)
    assert out.arrival_rates[0] == (0.9, 0.9)
    assert out.arrival_rates[1] == (0.7, 0.7)
    with pytest.raises(ConfigError, match="multi-source"):
        apply_parameter(cfg(), "tracked-source-rate", 0.9)


def test_apply_parameter_mu1_share():
    out = apply_parameter(cfg(mus=[3.0, 7.0]), "mu1-share", 2.0)
    assert out.service_rates == (2.0, 8.0)
    with pytest.raises(ConfigError, match="strictly between"):
        apply_parameter(cfg(), "mu1-share", 2.5)
    with pytest.raises(ConfigError, match="two-server"):
        apply_parameter(cfg(n=3), "mu1-share", 0.5)


def test_run_sweep_rows_in_grid_order():
    spec = load_sweep_spec(
        sweep_doc(parameter="servers", grid=[1, 2, 4], engines=["analytic", "shs"])
    )
    result = run_sweep(spec)
    assert [r.param for r in result.rows] == [1.0, 1.0, 2.0, 2.0, 4.0, 4.0]
    assert [r.engine for r in result.rows] == ["analytic", "shs"] * 3
    assert all(r.error == "" for r in result.rows)
    for a, s in zip(result.rows[::2], result.rows[1::2]):
        assert a.aoi == pytest.approx(s.aoi, rel=1e-9)


def test_run_sweep_error_rows():
    doc = sweep_doc(
        config=config_doc(n=1, rates=[[0.5]], disc="fcfs"),
        parameter="per-server-arrival",
        grid=[0.5, 2.0],
        engines=["sim"],
        horizon=2000.0,
    )
    result = run_sweep(load_sweep_spec(doc))
    assert len(result.rows) == 2
    assert result.rows[0].engine == "sim:fcfs"
    assert result.rows[0].error == "" and result.rows[0].aoi is not None
    assert "unstable under fcfs" in result.rows[1].error
    assert result.rows[1].aoi is None


def test_run_sweep_chain_underflow_is_an_error_row():
    # at these rates the chain would lose every service term and solve to age
    # 0, so its rate span refuses it; the closed form still gives 1/3 (three
    # mu = 1 servers)
    doc = sweep_doc(
        config=config_doc(n=3),
        parameter="total-arrival",
        grid=[1e200, 1.7e308],
        engines=["analytic", "shs"],
    )
    rows = run_sweep(load_sweep_spec(doc)).rows
    assert [r.engine for r in rows] == ["analytic", "shs"] * 2
    for analytic, shs in zip(rows[::2], rows[1::2]):
        assert analytic.aoi == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert shs.aoi is None and "(max rate / min rate) is above 1e+06" in shs.error


# pytest records warnings instead of printing them; as errors they escape main
@pytest.mark.filterwarnings("error")
def test_main_sweep_near_float_max_writes_nothing_to_stderr(tmp_config, tmp_path, capfd):
    spec_path = tmp_config(
        sweep_doc(config=config_doc(n=3), parameter="total-arrival", grid=[1.0, 1.7e308],
                  engines=["analytic", "shs"]),
        name="sweep.json",
    )
    out = tmp_path / "rows.csv"
    assert main(["sweep", "--spec", spec_path, "--out", str(out)]) == 1
    assert capfd.readouterr().err == ""
    last = out.read_text().strip().splitlines()[-1]
    assert last.startswith("1.7e+308,shs,0,,,rate span 5.67e+307")


def test_sweep_csv_golden():
    spec = load_sweep_spec(
        sweep_doc(
            config=config_doc(n=1, rates=[[1.0]]),
            parameter="servers",
            grid=[1, 2],
            engines=["analytic"],
        )
    )
    text = sweep_csv(run_sweep(spec))
    assert text == (
        "param,engine,source,aoi,ci_half_width,error\n"
        "1,analytic,0,2,,\n"
        "2,analytic,0,1.83333333333,,\n"
    )


def test_sweep_csv_escapes_commas():
    result = SweepResult(
        rows=[SweepRow(1.0, "analytic", 0, None, None, "bad, very bad")],
        seed=0,
        horizon=1.0,
        timestamp="t",
        version="v",
    )
    assert "bad; very bad" in sweep_csv(result)
    assert sweep_csv(result).startswith(CSV_HEADER + "\n")


def test_sweep_json_metadata():
    spec = load_sweep_spec(
        sweep_doc(parameter="servers", grid=[1], engines=["analytic"], seed=7)
    )
    doc = json.loads(sweep_json(run_sweep(spec)))
    assert doc["metadata"]["seed"] == 7
    assert doc["metadata"]["horizon"] == 1e5
    assert "timestamp" in doc["metadata"] and "version" in doc["metadata"]
    assert doc["rows"][0]["engine"] == "analytic"
    # base totals are preserved: two unit-rate servers collapse to one at 2.0
    assert doc["rows"][0]["aoi"] == pytest.approx(1.0 / 2.0 + 1.0)


def test_thread_count_override(monkeypatch):
    monkeypatch.setenv("AOI_THREADS", "1")
    assert _max_workers(10) == 1
    monkeypatch.setenv("AOI_THREADS", "8")
    assert _max_workers(3) == 3
    # zero and below mean one thread
    for value in ("0", "-3"):
        monkeypatch.setenv("AOI_THREADS", value)
        assert _max_workers(10) == 1
    monkeypatch.delenv("AOI_THREADS")
    assert _max_workers(2) >= 1


def test_thread_count_defaults_to_the_cpus_this_process_may_use(monkeypatch):
    monkeypatch.delenv("AOI_THREADS", raising=False)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
    assert _max_workers(10) == 2
    assert _max_workers(1) == 1
    # where the platform has no affinity call, the CPU count
    monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
    assert _max_workers(10) == 8


@pytest.mark.parametrize("value", ["abc", "2.5", ""])
def test_main_sweep_rejects_a_non_integer_thread_count(monkeypatch, capsys, value):
    monkeypatch.setenv("AOI_THREADS", value)
    assert main(["sweep", "--spec", "fig4"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"aoinet: error: AOI_THREADS must be an integer, not {value!r}\n"


def test_sweep_deterministic_across_thread_counts(monkeypatch):
    doc = sweep_doc(
        config=config_doc(n=1, rates=[[0.8]]),
        parameter="per-server-arrival",
        grid=[0.4, 0.8, 1.2],
        engines=["sim"],
        horizon=3000.0,
        seed=5,
    )
    monkeypatch.setenv("AOI_THREADS", "1")
    serial = sweep_csv(run_sweep(load_sweep_spec(doc)))
    monkeypatch.setenv("AOI_THREADS", "4")
    threaded = sweep_csv(run_sweep(load_sweep_spec(doc)))
    assert serial == threaded


def test_distinct_server_sweep_plans_its_chain_once(monkeypatch, capsys, tmp_config):
    # every point of a rate sweep has the same n, so its chains share one
    # plan; the pool's threads share it, and the bytes do not move
    spec = tmp_config(sweep_doc(
        config=config_doc(n=4, rates=[[0.5] * 4], mus=[1.0, 1.5, 2.0, 2.5]),
        parameter="per-server-arrival",
        grid=[0.2, 0.5, 1.0, 2.0, 4.0],
        engines=["shs"],
    ), "spec.json")
    builds = []
    real = shs._age_index
    monkeypatch.setattr(shs, "_age_index", lambda model: builds.append(model) or real(model))
    builders._orderings.cache_clear()
    outputs = []
    for threads in ("1", "2"):
        monkeypatch.setenv("AOI_THREADS", threads)
        assert main(["sweep", "--spec", spec]) == 0
        outputs.append(capsys.readouterr().out)
    assert len(builds) == 1
    assert outputs[0] == outputs[1]
    rows = outputs[0].splitlines()[1:]
    assert len(rows) == 5 and all(row.endswith(",") for row in rows)  # no error rows


# ---------------------------------------------------------------- recipes


def test_builtin_recipes_parse():
    for name in ("fig4", "fig6"):
        spec = load_sweep_spec(_read_spec_text(name))
        assert spec.grid
    doc = json.loads(_read_spec_text("fig5"))
    assert doc["optimize"]["kind"] == "hetero-n2"


def test_server_scaling_recipe_runs():
    spec = load_sweep_spec(_read_spec_text("fig4"))
    result = run_sweep(spec)
    assert all(r.error == "" for r in result.rows)
    ages = [r.aoi for r in result.rows if r.engine == "analytic"]
    assert len(ages) == len(spec.grid)
    assert all(a >= b for a, b in zip(ages, ages[1:]))


# ---------------------------------------------------------------- end to end


def test_main_analytic_text(tmp_config, capsys):
    path = tmp_config(json.dumps(config_doc()))
    assert main(["analytic", "--config", path]) == 0
    out = capsys.readouterr().out
    assert "analytic=1.25" in out
    assert "shs=1.25" in out
    assert "max relative disagreement" in out


def test_main_analytic_partial_engines(tmp_config, capsys):
    # chain covers cases the closed forms do not reach
    path = tmp_config(
        json.dumps(config_doc(m=2, n=4, rates=[[0.5] * 4, [0.25] * 4]))
    )
    assert main(["analytic", "--config", path]) == 0
    out = capsys.readouterr().out
    assert "analytic=error(" in out
    assert "shs=" in out


def test_main_analytic_no_engine(tmp_config, capsys):
    path = tmp_config(json.dumps(config_doc(disc="fcfs")))
    assert main(["analytic", "--config", path]) == 2
    assert "no analytic engine applies" in capsys.readouterr().err


def test_main_analytic_no_engine_names_both_errors(tmp_config, capsys):
    # seven distinct servers: past the closed forms and past the chain's cap
    n = 7
    doc = config_doc(n=n, rates=[[0.5 + 0.1 * j for j in range(n)]], mus=[1.0] * n)
    assert main(["analytic", "--config", tmp_config(json.dumps(doc))]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "analytic: no closed form for 7 distinct servers" in err
    assert "shs: heterogeneous builder supports at most 6 servers" in err


def test_main_analytic_json(tmp_config, tmp_path):
    path = tmp_config(json.dumps(config_doc()))
    out = tmp_path / "report.json"
    assert main(["analytic", "--config", path, "--format", "json", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["max_rel_disagreement"] < 1e-9
    assert doc["sources"][0]["analytic"] == pytest.approx(1.25)


def test_main_simulate_deterministic(tmp_config, tmp_path):
    path = tmp_config(json.dumps(config_doc()))
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        code = main(
            [
                "simulate",
                "--config",
                path,
                "--horizon",
                "2000",
                "--seed",
                "3",
                "--format",
                "json",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    doc = json.loads(outs[0])
    assert doc["replications"] == 1
    assert len(doc["aoi"]) == 1


def test_main_simulate_bad_config(tmp_config, capsys):
    path = tmp_config(json.dumps({"sources": 1}))
    assert main(["simulate", "--config", path]) == 2
    assert "aoinet: error:" in capsys.readouterr().err


def test_main_sweep_roundtrip(tmp_config, tmp_path):
    spec_path = tmp_config(
        sweep_doc(parameter="servers", grid=[1, 2], engines=["analytic"]),
        name="sweep.json",
    )
    out = tmp_path / "rows.csv"
    assert main(["sweep", "--spec", spec_path, "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3


def test_main_sweep_exit_one_on_error_rows(tmp_config, tmp_path):
    spec_path = tmp_config(
        sweep_doc(
            config=config_doc(n=1, rates=[[0.5]], disc="fcfs"),
            parameter="per-server-arrival",
            grid=[0.5, 2.0],
            engines=["sim"],
            horizon=1000.0,
        ),
        name="sweep.json",
    )
    out = tmp_path / "rows.csv"
    assert main(["sweep", "--spec", spec_path, "--out", str(out)]) == 1
    assert "unstable" in out.read_text()


def test_main_sweep_seed_override(tmp_config, tmp_path):
    spec_path = tmp_config(
        sweep_doc(
            config=config_doc(n=1, rates=[[0.8]]),
            parameter="per-server-arrival",
            grid=[0.8],
            engines=["sim"],
            horizon=2000.0,
            seed=1,
        ),
        name="sweep.json",
    )
    a, b, c = (tmp_path / x for x in ("a.csv", "b.csv", "c.csv"))
    main(["sweep", "--spec", spec_path, "--out", str(a)])
    main(["sweep", "--spec", spec_path, "--out", str(b)])
    main(["sweep", "--spec", spec_path, "--seed", "2", "--out", str(c)])
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_main_optimize_weighted(capsys):
    code = main(
        ["optimize", "--kind", "weighted", "--weights", "1,4", "--total", "3", "--mu", "1"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "rates: 1 2" in out
    assert "boundary: no" in out
    assert "grid check delta" in out


def test_main_optimize_hetero_json(tmp_path):
    out = tmp_path / "split.json"
    code = main(
        [
            "optimize",
            "--kind",
            "hetero-n2",
            "--total",
            "10",
            "--mu1",
            "30",
            "--mu2",
            "70",
            "--format",
            "json",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert sum(doc["rates"]) == pytest.approx(10.0, rel=1e-9)
    assert doc["grid_delta"] < 1e-5
    assert doc["objective"] == pytest.approx(
        aoi_hetero_n2(doc["rates"][0], doc["rates"][1], 30.0, 70.0), rel=1e-12
    )


def test_main_optimize_requires_arguments(capsys):
    assert main(["optimize"]) == 2
    assert "aoinet: error:" in capsys.readouterr().err
    assert main(["optimize", "--kind", "weighted"]) == 2


def assert_one_line_exit_2(capsys, argv, word):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("aoinet: error:") and err.count("\n") == 1 and word in err
    return err


@pytest.mark.parametrize(
    "key, value",
    [("total_arrival", None), ("mu1_grid", ["a"]),
     pytest.param("total_arrival", 10**400, id="total_arrival-huge-int"),
     pytest.param("kind", "weighted", id="kind-weighted"),
     pytest.param("mu1_grid", [2.0, 100.0], id="mu1_grid-at-service_total")],
)
def test_main_optimize_rejects_malformed_spec(tmp_path, capsys, key, value):
    doc = json.loads(_read_spec_text("fig5"))
    if value is None:
        del doc["optimize"][key]
    else:
        doc["optimize"][key] = value
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    assert_one_line_exit_2(capsys, ["optimize", "--spec", str(path)], key)


@pytest.mark.parametrize(
    "field, value",
    [
        (field, value)
        for field in ("horizon", "warmup", "seed", "batches", "replications")
        for value in (None, True, "x")
        # a null warmup means the default, 1% of the horizon
        if not (field == "warmup" and value is None)
    ]
    + [("disciplines", value) for value in (None, 5, "fcfs", [])]
    # an integer literal too large for a float
    + [pytest.param("horizon", 10**400, id="horizon-huge-int")],
)
def test_main_sweep_rejects_malformed_run_fields(tmp_path, capsys, field, value):
    path = tmp_path / "spec.json"
    path.write_text(
        sweep_doc(parameter="servers", grid=[1], engines=["analytic"], **{field: value})
    )
    assert_one_line_exit_2(capsys, ["sweep", "--spec", str(path)], field)


@pytest.mark.parametrize(
    "fields, word",
    [
        ({"horizon": -1}, "horizon"),
        ({"horizon": 0}, "horizon"),
        ({"warmup": -1}, "warmup"),
        ({"horizon": 10, "warmup": 10}, "warmup"),
        ({"batches": 1}, "batches"),
        ({"replications": 0}, "replications"),
    ],
    ids=["negative-horizon", "zero-horizon", "negative-warmup", "warmup-at-horizon",
         "one-batch", "no-replications"],
)
def test_main_sweep_rejects_out_of_range_run_fields(tmp_path, capsys, fields, word):
    # well-typed but unusable values end the run before any point is computed
    path = tmp_path / "spec.json"
    path.write_text(sweep_doc(parameter="servers", grid=[1], engines=["sim"], **fields))
    assert_one_line_exit_2(capsys, ["sweep", "--spec", str(path)], word)


def test_main_sweep_needs_a_sweep_object(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"config": config_doc(), "sweep": []}))
    assert_one_line_exit_2(capsys, ["sweep", "--spec", str(path)], "'sweep' must be an object")


# a base config each parameter applies to, so a grid point that got through
# would be evaluated
GRID_BASES = {
    "servers": config_doc(),
    "per-server-arrival": config_doc(),
    "total-arrival": config_doc(),
    "tracked-source-rate": config_doc(m=2, rates=[[0.5, 0.5], [0.5, 0.5]]),
    "mu1-share": config_doc(mus=[1.0, 2.0]),
}


@pytest.mark.parametrize("grid", [[1.0, math.nan], [1.0, math.inf], [-math.inf, 1.0]],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("parameter", list(GRID_BASES))
def test_main_sweep_rejects_non_finite_grid(tmp_path, capsys, parameter, grid):
    # NaN passes the strictly-increasing check, since every comparison with it is false
    path = tmp_path / "spec.json"
    path.write_text(sweep_doc(config=GRID_BASES[parameter], parameter=parameter, grid=grid,
                              engines=["analytic", "shs"]))
    assert main(["sweep", "--spec", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "aoinet: error: sweep grid values must be finite\n"


def test_main_sweep_nan_grid_matches_golden(capsys):
    assert main(["sweep", "--spec", str(DATA / "sweep_nan_grid.json")]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.encode("utf-8") == (DATA / "sweep_nan_grid.err").read_bytes()


def test_main_sweep_huge_servers_matches_golden(capsys):
    assert main(["sweep", "--spec", str(DATA / "sweep_huge_servers.json")]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.encode("utf-8") == (DATA / "sweep_huge_servers.err").read_bytes()


@pytest.mark.parametrize("value", [10_001, 1e9])
def test_main_sweep_refuses_too_many_servers(monkeypatch, tmp_path, capsys, value):
    assert load_sweep_spec(
        sweep_doc(parameter="servers", grid=[1, 10_000], engines=["analytic"])
    ).grid[-1] == 10_000
    # the spec check refuses the grid before any point is built
    monkeypatch.setattr(cli, "apply_parameter", None)
    path = tmp_path / "spec.json"
    path.write_text(sweep_doc(parameter="servers", grid=[2, value], engines=["analytic", "shs"]))
    assert main(["sweep", "--spec", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        f"aoinet: error: servers grid value {int(value)} is above the limit of 10000 servers\n"
    )


@pytest.mark.parametrize("case", ["wrong_base", "unknown_key"])
def test_main_sweep_refusal_matches_golden(monkeypatch, capsys, case):
    # refused while the spec loads: no engine runs
    monkeypatch.setattr(cli, "evaluate", None)
    assert main(["sweep", "--spec", str(DATA / f"sweep_{case}.json")]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.encode("utf-8") == (DATA / f"sweep_{case}.err").read_bytes()


@pytest.mark.parametrize(
    "config, parameter, grid, message",
    [
        # two sources on two servers, service total 2: 2.5 leaves the second server none
        (config_doc(m=2, rates=[[0.5, 0.5], [0.3, 0.3]]), "mu1-share", [0.5, 1.0, 2.5],
         "sweep grid value 2.5: mu1-share values must lie strictly between 0 and 2"),
        # 5e-324 split over four servers underflows to a zero rate
        (config_doc(n=4), "total-arrival", [5e-324, 1.0],
         "sweep grid value 4.94065645841e-324: arrival_rates[0] must have a positive sum"),
    ],
    ids=["mu1-share-above-total", "total-arrival-underflow"],
)
def test_main_sweep_refuses_a_grid_point_before_any_engine_runs(
    monkeypatch, tmp_path, capsys, config, parameter, grid, message
):
    monkeypatch.setattr(cli, "evaluate", None)
    path = tmp_path / "spec.json"
    path.write_text(sweep_doc(config=config, parameter=parameter, grid=grid,
                              engines=["analytic", "shs"]))
    assert main(["sweep", "--spec", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"aoinet: error: {message}\n"


@pytest.mark.parametrize(
    "extra, sweep_extra, message",
    [
        ({"extra": 1}, {"horizn": 1000.0}, "unknown field(s) in sweep spec: extra"),
        ({}, {"horizn": 1000.0, "replication": 5},
         "unknown field(s) in 'sweep': horizn, replication"),
    ],
    ids=["top-level", "in-sweep"],
)
def test_main_sweep_rejects_unknown_keys(tmp_path, capsys, extra, sweep_extra, message):
    doc = json.loads(sweep_doc(parameter="per-server-arrival", grid=[0.5], engines=["sim"],
                               **sweep_extra))
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({**doc, **extra}))
    assert main(["sweep", "--spec", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"aoinet: error: {message}\n"


@pytest.mark.parametrize(
    "where, message",
    [("top", "unknown field(s) in optimize spec: extra"),
     ("optimize", "unknown field(s) in 'optimize': mu1_gird")],
    ids=["top-level", "in-optimize"],
)
def test_main_optimize_rejects_unknown_keys(tmp_path, capsys, where, message):
    doc = json.loads(_read_spec_text("fig5"))
    if where == "top":
        doc["extra"] = 1
    else:
        doc["optimize"]["mu1_gird"] = [1.0]
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    assert main(["optimize", "--spec", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"aoinet: error: {message}\n"


@pytest.mark.parametrize("weights", ["1,x", "", "1,,2"])
def test_main_optimize_rejects_malformed_weights(capsys, weights):
    argv = ["optimize", "--kind", "weighted", "--weights", weights, "--total", "3", "--mu", "1"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"aoinet: error: --weights must be comma-separated numbers, not {weights!r}\n"


@pytest.mark.parametrize(
    "flags, word",
    [
        ("--kind weighted --weights 1,2 --total 1e-320 --mu 1", "1e-320"),
        ("--kind hetero-n2 --total 1e-320 --mu1 1 --mu2 2", "1e-320"),
        ("--kind weighted --weights 1,2 --total 1e-300 --mu 1", "overflows"),
        ("--kind hetero-n2 --total 1e308 --mu1 1e308 --mu2 1e308", "overflows"),
        # no numpy overflow warning may come before the error line
        ("--kind hetero-n2 --total 1e-310 --mu1 1 --mu2 2", "overflows"),
        ("--kind hetero-n2 --total 10 --mu1 30", "--mu2"),
        # the grid's float objective divides by a product that underflows to 0
        ("--kind weighted --weights 0.5,0.5 --total 1e-310 --mu 1e-8",
         "at total arrival rate 1e-310: objective is not finite"),
        # the split's own float products underflow to a zero divisor
        ("--kind weighted --weights=1e-320,1e-320 --total 1e-320 --mu 1e-310",
         "the split underflows at lam = 1e-320, mu = 1e-310"),
        ("--kind hetero-n2 --total 1e-320 --mu1 1e-320 --mu2 1e-300",
         "the split underflows at lam = 1e-320, mu1 = 1e-320, mu2 = 1e-300"),
    ],
    ids=["weighted-tiny-total", "hetero-tiny-total", "weighted-overflow", "hetero-overflow",
         "hetero-overflow-warning", "hetero-no-mu2", "weighted-zero-divisor",
         "weighted-underflow", "hetero-underflow"],
)
def test_main_optimize_refusals_name_the_input(capsys, flags, word):
    # the grid check resolves 1e-9 of the total, which is 0 for a subnormal
    # total; the line names the input, not internal variables or numpy reprs
    err = assert_one_line_exit_2(capsys, ["optimize", *flags.split()], word)
    assert not any(name in err for name in ("tol", "lam1", "np.float64("))


EXCHANGEABLE = (HomogeneityClass.HOMOGENEOUS_SINGLE_SOURCE,
                HomogeneityClass.HOMOGENEOUS_MULTI_SOURCE)


def sweep_base(kind, n, disc):
    """A base config of one class: exchangeable, shared, distinct or general."""
    distinct_rates, distinct_mus = [0.5 * (j + 1) for j in range(n)], [1.0 + j for j in range(n)]
    m, rates, mus = {
        "exchangeable": (1, [[0.5] * n], [1.0] * n),
        "shared": (2, [[0.5] * n, [0.25] * n], [1.0] * n),
        "distinct": (1, [distinct_rates], distinct_mus),
        "general": (2, [distinct_rates, [0.25] * n], distinct_mus),
    }[kind]
    return config_doc(m, n, rates, mus, disc)


def in_domain(config, parameter, value):
    """Whether `parameter` can take `value` on `config`, as the README states it."""
    if parameter == "servers":
        return classify(config) in EXCHANGEABLE and value >= 1 and value == int(value)
    if parameter in ("per-server-arrival", "total-arrival"):
        return config.sources == 1 and value > 0
    if parameter == "tracked-source-rate":
        return classify(config) is HomogeneityClass.HOMOGENEOUS_MULTI_SOURCE and value > 0
    return config.servers == 2 and 0 < value < sum(config.service_rates)


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    parameter=st.sampled_from(list(GRID_BASES)),
    kind=st.sampled_from(["exchangeable", "shared", "distinct", "general"]),
    n=st.integers(1, 3),
    disc=st.sampled_from(["lcfs-s", "fcfs"]),
    # mostly positive integers, which every parameter can take on some base
    grid=st.sets(st.one_of(st.sampled_from([1.0, 2.0, 3.0, 4.0]),
                           st.sampled_from([-1.0, 0.0, 0.5, 2.5])),
                 min_size=1, max_size=3).map(sorted),
    engines=st.sampled_from([["analytic"], ["shs"], ["analytic", "shs"]]),
)
def test_sweep_exits_2_or_writes_every_row(parameter, kind, n, disc, grid, engines):
    # a spec that loads gives one row per point, engine and source, and only an
    # engine fills a row's error; any other spec exits 2 with one line
    doc = sweep_base(kind, n, disc)
    config = NetworkConfig(**doc)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "spec.json"
        path.write_text(sweep_doc(config=doc, parameter=parameter, grid=grid, engines=engines))
        code, out, err = run_main(["sweep", "--spec", str(path)])
    bad = [v for v in grid if not in_domain(config, parameter, v)]
    if bad:
        assert code == 2 and out == ""
        assert err.startswith(f"aoinet: error: sweep grid value {bad[0]:.12g}: ")
        assert err.count("\n") == 1 and err.endswith("\n")
        return
    assert err == ""
    lines = out.splitlines()
    assert lines[0] == CSV_HEADER
    rows = [line.split(",") for line in lines[1:]]
    keys = [(v, e, i) for v in grid for e in engines for i in range(config.sources)]
    assert len(rows) == len(grid) * len(engines) * config.sources
    assert [tuple(r[:3]) for r in rows] == [(f"{v:.12g}", e, str(i)) for v, e, i in keys]
    for row, (v, e, i) in zip(rows, keys):
        _, _, error = evaluate(e, apply_parameter(config, parameter, v))[i]
        assert row[5] == error.replace(",", ";")
        assert (row[3] == "") == bool(error)
    assert code == (1 if any(row[5] for row in rows) else 0)


@pytest.mark.parametrize(
    "value, word",
    [("-1", "horizon"), ("0", "horizon"), ("nan", "horizon"), ("inf", "horizon"),
     ("1000", "warmup")],  # fig6's warmup is 3000
)
def test_main_sweep_checks_the_horizon_override(capsys, value, word):
    assert_one_line_exit_2(capsys, ["sweep", "--spec", "fig6", "--horizon", value], word)


@pytest.mark.parametrize(
    "field, value",
    [("arrival_rates", [[True, 1.0]]), ("service_rates", [True, 1.0]),
     pytest.param("arrival_rates", [[10**400, 1.0]], id="arrival_rates-huge-int")],
)
def test_main_analytic_rejects_bool_rates(tmp_path, capsys, field, value):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**config_doc(), field: value}))
    assert_one_line_exit_2(capsys, ["analytic", "--config", str(path)], field)


def test_main_optimize_recipe(tmp_path):
    out = tmp_path / "fig5.csv"
    assert main(["optimize", "--spec", "fig5", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "mu1,lambda1,lambda2,objective,boundary,grid_delta"
    assert len(lines) > 10
    for line in lines[1:]:
        assert float(line.split(",")[-1]) < 1e-5


OUTPUT_GOLDENS = [
    (["sweep", "--spec", "fig4"], "sweep_fig4.csv"),
    (["optimize", "--spec", "fig5"], "optimize_fig5.csv"),
    (
        ["optimize", "--kind", "hetero-n2", "--total", "10", "--mu1", "30",
         "--mu2", "70", "--format", "json"],
        "optimize_hetero_n2.json",
    ),
]


@pytest.mark.parametrize("argv, golden", OUTPUT_GOLDENS)
def test_main_output_matches_golden(capsys, argv, golden):
    # closed forms and small chain solves only, so the bytes hold across machines
    assert main(argv) == 0
    assert capsys.readouterr().out.encode("utf-8") == (DATA / golden).read_bytes()


def simulate_golden_argv(discipline):
    config = DATA / f"simulate_3x3_{discipline}.config.json"
    return ["simulate", "--config", str(config), "--horizon", "20000", "--seed", "7",
            "--replications", "3", "--format", "json"]


@pytest.mark.parametrize(
    "discipline, window",
    [
        *(pytest.param(d, None, id=d) for d in ("lcfs-s", "lcfs-w", "fcfs")),
        # the goldens' horizon is one window at the default window length;
        # lcfs-s and fcfs keep their bytes at any
        *(pytest.param(d, w, id=f"{d}-window{w}") for d in ("lcfs-s", "fcfs") for w in (64, 1000)),
    ],
)
def test_main_simulate_matches_golden(monkeypatch, capsys, discipline, window):
    # three sources on three distinct servers; the bytes pin the simulator's
    # random streams, kernels and integration
    if window is not None:
        monkeypatch.setattr(sim, "_WINDOW_ARRIVALS", window)
    assert main(simulate_golden_argv(discipline)) == 0
    golden = DATA / f"simulate_3x3_{discipline}.json"
    assert capsys.readouterr().out.encode("utf-8") == golden.read_bytes()


def _out_of_memory(*args, **kwargs):
    raise MemoryError("Unable to allocate 6.40 GiB for an array with shape (60000, 20001)")


def test_main_analytic_out_of_memory_is_an_shs_error(monkeypatch, tmp_config, capsys):
    # the closed form still answers, so the report is written and exits 0
    monkeypatch.setattr(cli, "build_single_source_homogeneous", _out_of_memory)
    path = tmp_config(json.dumps(config_doc(n=3)))
    assert main(["analytic", "--config", path, "--format", "json"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    (source,) = json.loads(out)["sources"]
    assert source["analytic"] == pytest.approx(aoi_lcfs_homogeneous(3, 1.0, 1.0))
    assert source["shs_error"].startswith("Unable to allocate 6.40 GiB")


def test_main_sweep_out_of_memory_is_an_error_row(monkeypatch, tmp_config, tmp_path, capsys):
    # a bare MemoryError has no message; its rows must still read as failed
    def bare(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "replicate", bare)
    spec = sweep_doc(parameter="per-server-arrival", grid=[0.5, 1.0],
                     engines=["analytic", "sim"], horizon=2000.0)
    out = tmp_path / "rows.csv"
    assert main(["sweep", "--spec", tmp_config(spec, "spec.json"), "--out", str(out)]) == 1
    assert capsys.readouterr().err == ""
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [r[1] for r in rows] == ["analytic", "sim:lcfs-s"] * 2
    for analytic_row, sim_row in zip(rows[::2], rows[1::2]):
        assert analytic_row[3] != "" and analytic_row[5] == ""
        assert sim_row[3:] == ["", "", "MemoryError"]


def test_main_simulate_out_of_memory_is_one_line(monkeypatch, tmp_config, capsys):
    monkeypatch.setattr(cli, "replicate", _out_of_memory)
    path = tmp_config(json.dumps(config_doc()))
    assert main(["simulate", "--config", path, "--horizon", "1e12"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "aoinet: error: Unable to allocate 6.40 GiB for an array with shape (60000, 20001)\n"
    )


@pytest.mark.parametrize(
    "rate, horizon, word",
    [
        pytest.param(2.0, "1e308", "horizon 1e+308 is not finite", id="horizon-overflow"),
        pytest.param(1e308, "1e5", "arrival rate 1e+308 times", id="rate-overflow"),
        pytest.param(2.0, "1e-300", "age 0.0 is not finite", id="sawtooth-underflow"),
        pytest.param(1e-155, "1e160", "age nan is not finite", id="sawtooth-overflow"),
    ],
)
def test_main_simulate_out_of_float_range_is_one_line(tmp_config, capsys, rate, horizon, word):
    path = tmp_config(json.dumps(config_doc(n=1, rates=[[rate]])))
    assert_one_line_exit_2(capsys, ["simulate", "--config", path, "--horizon", horizon], word)


# numpy cannot draw these: 2e300 arrivals exceed its largest array, and 2e17
# exceed memory; either fails at once, without allocating
@pytest.mark.parametrize("horizon", ["1e300", "1e17"])
def test_main_simulate_too_many_arrivals_is_one_line(tmp_config, capsys, horizon):
    path = tmp_config(json.dumps(config_doc(n=1, rates=[[2.0]])))
    assert main(["simulate", "--config", path, "--horizon", horizon]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        f"aoinet: error: arrival rate 2 times horizon {float(horizon):g} expects "
        f"too many arrivals to draw ({2 * float(horizon):.3g})\n"
    )


@pytest.mark.parametrize("horizon", [1e300, 1e17])
def test_main_sweep_too_many_arrivals_is_an_error_row(tmp_config, tmp_path, capsys, horizon):
    spec = sweep_doc(config=config_doc(n=1, rates=[[1.0]]), parameter="per-server-arrival",
                     grid=[2.0], engines=["sim"], horizon=horizon)
    out = tmp_path / "rows.csv"
    assert main(["sweep", "--spec", tmp_config(spec, "spec.json"), "--out", str(out)]) == 1
    assert capsys.readouterr().err == ""
    (row,) = (line.split(",") for line in out.read_text().splitlines()[1:])
    assert row[3:] == ["", "", f"arrival rate 2 times horizon {horizon:g} expects "
                               f"too many arrivals to draw ({2 * horizon:.3g})"]


def test_main_sweep_out_of_float_range_is_an_error_row(tmp_config, tmp_path, capsys):
    spec = sweep_doc(config=config_doc(n=1, rates=[[1.0]]), parameter="per-server-arrival",
                     grid=[1.0, 1e308], engines=["sim"], horizon=1000.0)
    out = tmp_path / "rows.csv"
    assert main(["sweep", "--spec", tmp_config(spec, "spec.json"), "--out", str(out)]) == 1
    assert capsys.readouterr().err == ""
    ok, overflow = (line.split(",") for line in out.read_text().splitlines()[1:])
    assert ok[3] != "" and ok[5] == ""
    assert overflow[3:] == ["", "", "arrival rate 1e+308 times horizon 1000 is not finite"]


@pytest.mark.parametrize(
    "n, lam, mu, word",
    [
        # the load lam / mu underflows to 0 and the closed form divides by it
        (1, 1e-300, 1e300, "analytic: float division by zero"),
        (3, 1e-300, 1e300, "analytic: float division by zero"),
        # the closed form gives nan, and the chain's exit rates overflow
        (2, 1e308, 1e-300, "analytic: average age nan is not finite and > 0; "
                           "shs: exit rate inf is not finite"),
    ],
    ids=["one-server-zero-load", "three-servers-zero-load", "two-servers-overflow"],
)
def test_main_analytic_out_of_float_range_is_one_line(tmp_config, capsys, n, lam, mu, word):
    doc = config_doc(n=n, rates=[[lam] * n], mus=[mu] * n)
    assert_one_line_exit_2(capsys, ["analytic", "--config", tmp_config(json.dumps(doc))], word)


def test_main_missing_file(capsys):
    assert main(["analytic", "--config", "/nonexistent/config.json"]) == 2
    assert "aoinet: error:" in capsys.readouterr().err


# one config per engine route, with the exit code; a config that no exact
# engine covers exits 2 with one stderr line (the .err golden) in either format
ANALYTIC_GOLDENS = [
    ("1x3_exchangeable", 0),
    ("2x2_shared", 0),
    ("2x3_shared", 0),
    ("2x4_shared", 0),  # past the shared-server closed forms
    ("1x2_distinct", 0),
    ("1x3_distinct", 0),
    ("1x5_distinct", 0),  # past the distinct-server closed forms
    ("1x7_one_idle", 0),  # solved as six exchangeable servers
    ("2x2_general", 2),
    ("1x2_fcfs", 2),
]


# (case, exit code, format, golden extension) of every analytic golden. The
# distinct-server chain's cap has a text golden only: the JSON prints every
# digit, and the last one there depends on the BLAS thread count.
ANALYTIC_RUNS = [
    (case, code, fmt, ext)
    for case, code in ANALYTIC_GOLDENS
    for fmt, ext in (("text", "txt"), ("json", "json"))
] + [("1x6_distinct", 0, "text", "txt")]


@pytest.mark.parametrize("case, code, fmt, ext", ANALYTIC_RUNS)
def test_main_analytic_matches_golden(capsys, case, code, fmt, ext):
    config = DATA / f"analytic_{case}.config.json"
    assert main(["analytic", "--config", str(config), "--format", fmt]) == code
    out, err = capsys.readouterr()
    if code == 0:
        assert err == ""
        assert out.encode("utf-8") == (DATA / f"analytic_{case}.{ext}").read_bytes()
    else:
        assert out == ""
        assert err.encode("utf-8") == (DATA / f"analytic_{case}.err").read_bytes()


# every name perfbench/tracing.py rebinds on aoinet.cli, and the two it
# rebinds on aoinet.analytic; its per-layer counts are right only while the
# CLI looks these up at call time, and instrument() fails on a missing name
TRACED_NAMES = [
    (cli, name)
    for name in (
        "load_config", "aoi_lcfs_homogeneous", "aoi_multi_source_n2", "aoi_multi_source_n3",
        "aoi_hetero_n2", "aoi_hetero_n3", "grid_minimize", "optimal_hetero_split_n2",
        "optimal_weighted_split", "build_single_source_homogeneous",
        "build_multi_source_homogeneous", "build_heterogeneous_single_source", "solve_age",
        "replicate", "run_sweep", "ThreadPoolExecutor",
    )
] + [(analytic, "solve_age"), (analytic, "build_heterogeneous_single_source")]


def test_traced_names_are_looked_up_at_call_time(monkeypatch, tmp_config, capsys):
    calls = collections.Counter()

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    keys = [f"{module.__name__}.{name}" for module, name in TRACED_NAMES]
    for key, (module, name) in zip(keys, TRACED_NAMES):
        monkeypatch.setattr(module, name, counting(key, getattr(module, name)))
    for case in ("1x3_exchangeable", "2x2_shared", "2x3_shared", "1x2_distinct", "1x3_distinct"):
        assert main(["analytic", "--config", str(DATA / f"analytic_{case}.config.json")]) == 0
    spec = sweep_doc(parameter="per-server-arrival", grid=[0.5, 1.0], engines=["sim"],
                     horizon=2000.0)
    assert main(["sweep", "--spec", tmp_config(spec, "spec.json")]) == 0
    assert main(["simulate", "--config", tmp_config(json.dumps(config_doc())),
                 "--horizon", "2000"]) == 0
    assert main(["optimize", "--kind", "weighted", "--weights", "1,4", "--total", "3",
                 "--mu", "1"]) == 0
    assert main(["optimize", "--kind", "hetero-n2", "--total", "10", "--mu1", "30",
                 "--mu2", "70"]) == 0
    capsys.readouterr()
    # analytic.py keeps its two names for the tracer to rebind, and calls neither
    assert [key for key in keys if not calls[key]] == [
        "aoinet.analytic.solve_age", "aoinet.analytic.build_heterogeneous_single_source"]


# ---------------------------------------------------------------- parser


def test_main_builds_its_parser_once(monkeypatch, tmp_config, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    # argparse names its own class inside __init__, so count there, not by subclassing
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    # an empty cache, as in a fresh process
    monkeypatch.setattr(cli, "_parser", functools.cache(cli._parser.__wrapped__))
    config = str(DATA / "analytic_1x2_distinct.config.json")
    calls = [
        ["analytic", "--config", config],
        ["simulate", "--config", tmp_config(json.dumps(config_doc())), "--horizon", "2000"],
        ["sweep", "--spec", "fig4"],
        ["optimize", "--kind", "hetero-n2", "--total", "10", "--mu1", "30", "--mu2", "70"],
    ]
    assert main(calls[0]) == 0
    assert built  # the parser and its subparsers
    first = list(built)
    for _ in range(3):
        for argv in calls:
            assert main(argv) == 0
    capsys.readouterr()
    assert built == first


def golden_runs():
    """(argv, exit code, golden file) for every golden under tests/data.

    A run that exits 0 writes its golden on stdout; one that exits 2, on stderr.
    """
    runs = [(argv, 0, golden) for argv, golden in OUTPUT_GOLDENS]
    runs += [(["sweep", "--spec", "fig6"], 0, "sweep_fig6.csv")]
    runs += [
        (["sweep", "--spec", str(DATA / f"sweep_{case}.json")], 2, f"sweep_{case}.err")
        for case in ("nan_grid", "huge_servers", "wrong_base", "unknown_key",
                     "disciplines_without_sim")
    ]
    runs += [
        (["optimize", "--kind", "weighted", "--weights=1e-320,1e-320", "--total", "1e-320",
          "--mu", "1e-310"], 2, "optimize_weighted_underflow.err"),
        (["optimize", "--kind", "hetero-n2", "--total", "1e-320", "--mu1", "1e-320",
          "--mu2", "1e-300"], 2, "optimize_hetero_underflow.err"),
    ]
    runs += [
        (simulate_golden_argv(d), 0, f"simulate_3x3_{d}.json")
        for d in ("lcfs-s", "lcfs-w", "fcfs")
    ]
    runs += [
        (["analytic", "--config", str(DATA / f"analytic_{case}.config.json"), "--format", fmt],
         code, f"analytic_{case}.{ext if code == 0 else 'err'}")
        for case, code, fmt, ext in ANALYTIC_RUNS
    ]
    return runs


def test_usage_errors_leave_the_shared_parser_intact(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    errors = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exit_info:
            main(["analytic"])
        assert exit_info.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        errors.append(err)
    assert errors[0] == errors[1]
    assert errors[0].splitlines()[-1] == (
        "aoinet analytic: error: the following arguments are required: --config"
    )
    with pytest.raises(SystemExit) as exit_info:
        main(["no-such-command"])
    assert exit_info.value.code == 2
    capsys.readouterr()

    runs = golden_runs()
    inputs = [*DATA.glob("*.config.json"), *DATA.glob("sweep_*.json")]
    assert {golden for _, _, golden in runs} == {p.name for p in set(DATA.iterdir()) - set(inputs)}
    for argv, code, golden in runs:
        assert main(argv) == code, argv
        out, err = capsys.readouterr()
        written, other = (out, err) if code == 0 else (err, out)
        assert other == ""
        assert written.encode("utf-8") == (DATA / golden).read_bytes(), golden
