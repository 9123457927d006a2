"""Tests of the benchmark itself: generator, tracing, checks and metric tables.

    python3 -m pytest -q perfbench/tests
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _files(d: Path) -> dict[str, bytes]:
    return {f.name: f.read_bytes() for f in sorted(d.iterdir())}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(tmp_path, workload):
    workloads.generate(workload, 7, tmp_path / "a")
    workloads.generate(workload, 7, tmp_path / "b")
    workloads.generate(workload, 8, tmp_path / "c")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")


def _runner(tmp_path: Path, workload: str, op_ids=None) -> run.Runner:
    ops = workloads.generate(workload, 3, tmp_path)
    if op_ids is not None:
        ops = [op for op in ops if op["id"] in op_ids]
    return run.Runner(ops, tmp_path)


@pytest.mark.parametrize("workload,op_ids", [
    ("exact_small", None),
    ("sim_multisource", {"general_00", "general_04", "general_08", "reference_n2"}),
])
def test_traced_pass_prints_the_same_bytes(tmp_path, workload, op_ids):
    runner = _runner(tmp_path, workload, op_ids)
    runner.run_pass()
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        runner.run_pass(tracer)
    # the runner fails any op whose output differs from its first pass
    assert runner.failures == []
    assert runner.attempted == 2 * len(runner.ops)
    names = {s[2] for s in tracer.spans}
    assert "cli.main" in names and "model.load_config" in names
    assert names & {"shs.solve_age", "sim.simulate.lcfs-s"}


def test_instrument_restores_the_package():
    from aoinet import cli, shs, sim

    before = (cli.solve_age, shs.stationary_distribution, sim.simulate, cli.ThreadPoolExecutor)
    with tracing.instrument(tracing.Tracer()):
        assert cli.solve_age is not before[0]
    assert (cli.solve_age, shs.stationary_distribution, sim.simulate,
            cli.ThreadPoolExecutor) == before


def _scale_ages(out: str, factor: float) -> str:
    """Scale the chain-engine ages of `analytic` output, or every simulated age."""
    doc = json.loads(out)
    if "sources" in doc:
        for e in doc["sources"]:
            e["shs"] *= factor
    else:
        doc["aoi"] = [a * factor for a in doc["aoi"]]
    return json.dumps(doc)


@pytest.mark.parametrize("workload,op_id,factor", [
    ("exact_small", "distinct_00", 1 + 1e-6),
    ("exact_small", "shared_00", 1 + 1e-6),
    ("chain_large", "equal_0", 1 + 1e-6),
    ("sim_multisource", "reference_n2", 1.1),
])
def test_wrong_age_in_checker_input_is_a_failed_op(tmp_path, workload, op_id, factor):
    runner = _runner(tmp_path, workload, {op_id})
    runner.run_pass()
    assert runner.failures == []

    call = runner._call

    def corrupted(argv, tracer):
        rc, out = call(argv, tracer)
        return rc, _scale_ages(out, factor)

    runner._call = corrupted
    runner.run_pass()
    assert len(runner.failures) == 1 and runner.failures[0].startswith(op_id)


def test_relabelled_copy_must_match_its_original():
    op = {"check": {"kind": "distinct", "lams": [1.0, 2.0, 1.5], "mus": [1.0, 1.0, 1.0],
                    "closed_form": False, "group": "g"}}
    out = json.dumps({"sources": [{"source": 0, "shs": 0.9}]})
    groups: dict = {}
    assert checks.check(op, 0, out, groups) is None
    assert checks.check(op, 0, out.replace("0.9", "0.91"), groups) is not None


def test_self_time_subtracts_the_union_of_children():
    spans = [
        (1, 0, "sweep.run_sweep", 0.0, 10.0, 1),
        (2, 1, "sweep.point", 1.0, 5.0, 2),
        (3, 1, "sweep.point", 3.0, 6.0, 3),  # overlaps the other point
        (4, 2, "sim.simulate.fcfs", 2.0, 4.0, 2),
    ]
    selfs = tracing.self_times(spans)
    assert selfs == {1: 5.0, 2: 2.0, 3: 3.0, 4: 2.0}


def test_measure_scales_each_op_by_the_reference_next_to_it():
    class Scripted:
        ops = [{"id": "a"}, {"id": "b"}]
        # (pass wall, op latencies, reference times around them); the third
        # pass's wall runs past the time limit
        passes = iter([
            (1.0, [0.3, 0.2], [1.0, 1.0, 1.0]),
            (1.0, [0.6, 0.4], [2.0, 2.0, 3.0]),  # the machine ran at half speed
            (10.0, [0.3, 0.4], [1.0, 4.0, 1.0]),  # a slow kernel run is ignored
        ])

        def run_pass(self, reference):
            return next(self.passes)

    t = run.measure(Scripted(), 5.0)
    assert t.walls == [1.0, 1.0, 10.0]
    assert t.raw == [0.3, 0.4]
    r = run.REFERENCE_S
    assert t.scaled == pytest.approx([0.3 * r, 0.2 * r])
    assert run.at_reference_speed(0.5, 2.0, 3.0) == pytest.approx(0.25 * r)


def test_reference_is_the_geometric_mean_of_the_kernels(monkeypatch):
    # "array" takes twice its nominal time, "interp" four times its nominal time
    array, interp = run.KERNELS["array"][1], run.KERNELS["interp"][1]
    clock = iter([0.0, 2 * array, 10.0, 10.0 + 4 * interp])
    monkeypatch.setattr(run.time, "perf_counter", lambda: next(clock))
    assert run.reference_s(("array", "interp")) == pytest.approx(run.REFERENCE_S * 8**0.5)


def test_benchmark_json_matches_the_printed_metrics():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in doc["workloads"]} <= set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == tracing.PER_LAYER_UNITS


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact_small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
