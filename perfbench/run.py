"""Benchmark for aoinet: seeded workloads through the CLI, checked and timed.

    python3 perfbench/run.py --workload exact_small --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. Set-up runs the input generator
(`workloads.py`) in a fresh interpreter SETUP_REPS times. The run then calls
`aoinet.cli.main([...])` in this process on the generated files: one untimed
warm-up pass over the workload's ops, then whole passes until `--seconds` is
used up. Every op's output is checked (`checks.py`) and compared with its
output in the first pass. `--trace 1` alternates untraced and traced passes
(`tracing.py`) and reports per-layer metrics instead of end-to-end ones.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines before it are for people.
Workloads, metrics and known gaps are described in perfbench/README.md.
"""
from __future__ import annotations

import os

# one process per workload; the sweep pool gets one thread per CPU this process
# may run on, BLAS one thread (on two shared vCPUs a second BLAS thread made the
# dense chain solves no faster and their times noisier). Set before numpy is
# first imported.
NPROC = len(os.sched_getaffinity(0))
THREAD_CAPS = {
    "AOI_THREADS": str(NPROC),
    **{var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
}
os.environ.update(THREAD_CAPS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import functools  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if not (ROOT / "src" / "aoinet").is_dir():
    sys.exit(f"perfbench: {ROOT} has no src/aoinet to benchmark")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

# glibc serves a large allocation with a fresh mmap until freeing one raises
# that threshold, up to 32 MB. Which call first raises it changes how fast every
# later allocation is, the reference kernels' included: one run read the kernel
# 13-22% faster after a 4 MB array was freed, so its timings read slower. Freeing
# a 30 MB array here puts the threshold near its ceiling in every run, whatever
# the package or the benchmark allocates later. The array is never written, so
# it adds nothing to the peak resident memory.
np.empty(30 << 20, dtype=np.uint8)

import tracing  # noqa: E402
from aoinet import cli  # noqa: E402
from checks import check  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPS = 7
SETUP_TIMEOUT_S = 60
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "peak_rss_mb": "MB",
}
MAX_REPORTED_FAILURES = 10

# The reference kernels. The machine the benchmark was tuned on changes speed by
# up to 1.4x in phases that can outlast a run, and every raw timing moves with
# it. So each timing is divided by the time of fixed kernels, run right next to
# it, and multiplied by REFERENCE_S: it reads as seconds on a machine where each
# kernel takes its nominal time. The kernels run no aoinet code, so a change to
# the package does not move them. "array" is a few steps of Gaussian
# elimination on a fixed 300x300 matrix (720 KB, within L2): numpy row updates,
# with their allocations, driven from a short Python loop. "array_large" is the
# same on 720x720 (4 MB, beyond L2), the size of chain_large's age systems.
# "interp" is dict and float work in the interpreter alone.
REFERENCE_S = 0.003


def _elimination_kernel(n: int, steps: int):
    rng = np.random.default_rng(0)
    u, v = rng.random(n), rng.random(n)

    def kernel() -> None:
        a = np.add.outer(u, v)  # built on each run, so no matrix stays resident
        a.flat[:: n + 1] += n
        for k in range(steps):
            f = a[k + 1 :, k] / a[k, k]
            a[k + 1 :, k:] -= np.outer(f, a[k, k:])

    return kernel


def _interp_kernel() -> float:
    d: dict[int, float] = {}
    s = 0.0
    for i in range(3000):
        d[i % 97] = d.get(i % 97, 0.0) + i * 0.5
        s += d[i % 97] / (i + 1)
    return s


KERNELS = {  # name: (kernel, nominal seconds)
    "array": (_elimination_kernel(300, 10), 0.0025),
    "array_large": (_elimination_kernel(720, 4), 0.006),
    "interp": (_interp_kernel, 0.001),
}
# The kernels whose speed a workload's timings follow. chain_large spends its
# time in eliminations on 720 unknowns; scaled by "array", whose matrix stays
# in L2, its wall_s once spread 0.16 of its median over ten seeds, the fast runs
# reading slowest. The other workloads and set-up (a fresh interpreter importing
# aoinet) run interpreter work and small numpy arrays in turn; sim_multisource
# spread 0.06 by "array" alone and 0.02 by "array" and "interp".
WORKLOAD_KERNELS = {"chain_large": ("array_large",)}
DEFAULT_KERNELS = ("array", "interp")


def reference_s(kernels: tuple[str, ...] = DEFAULT_KERNELS) -> float:
    """Run each of `kernels` once; REFERENCE_S times the geometric mean of
    their times as shares of their nominal times."""
    product = 1.0
    for name in kernels:
        kernel, nominal = KERNELS[name]
        t0 = time.perf_counter()
        kernel()
        product *= (time.perf_counter() - t0) / nominal
    return REFERENCE_S * product ** (1 / len(kernels))


def at_reference_speed(t: float, ref_before: float, ref_after: float) -> float:
    """`t` scaled by the kernel times on either side of it; the lower one is
    taken, as a kernel run can only be slowed by interference, never sped up."""
    return t * REFERENCE_S / min(ref_before, ref_after)


def setup(workload: str, seed: int, workdir: Path) -> tuple[list[float], list[float]]:
    """Generate the inputs SETUP_REPS times in fresh interpreters.

    Returns the wall times and the same times at reference speed. Exits with
    status 1 when a generator run fails or the runs disagree.
    """
    shutil.rmtree(workdir, ignore_errors=True)
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(workdir)]
    times, scaled, digests = [], [], set()
    ref = reference_s()
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
        ref_before, ref = ref, reference_s()
        scaled.append(at_reference_speed(times[-1], ref_before, ref))
        if proc.returncode != 0:
            sys.stderr.write(f"perfbench: input generation failed:\n{proc.stderr}")
            sys.exit(1)
        digest = hashlib.sha256()
        for f in sorted(workdir.iterdir()):
            digest.update(f.name.encode() + b"\0" + f.read_bytes())
        digests.add(digest.hexdigest())
    if len(digests) != 1:
        sys.stderr.write("perfbench: input generation is not deterministic\n")
        sys.exit(1)
    return times, scaled


def machine_record() -> dict:
    cpu = ""
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as f:
        cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), "")
    caches = {}
    for d in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        with contextlib.suppress(OSError):
            level, kind, size = ((d / f).read_text().strip() for f in ("level", "type", "size"))
            caches[f"L{level} {kind}"] = size
    blas = {}
    with contextlib.suppress(TypeError, KeyError):  # the build report varies by numpy version
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": NPROC,
        "cpu_model": cpu,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version")},
        "thread_caps": THREAD_CAPS,
    }


class Runner:
    """Runs passes over the ops of one workload and checks their outputs."""

    def __init__(self, ops: list[dict], workdir: Path) -> None:
        self.ops = ops
        self.argvs = [
            [op["command"], op["flag"], str(workdir / op["file"]), *op["args"]] for op in ops
        ]
        self.first_outputs: dict[str, str] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def _call(self, argv: list[str], tracer) -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = tracer.call("cli.main", cli.main, (argv,)) if tracer else cli.main(argv)
            except SystemExit as e:
                rc = e.code if isinstance(e.code, int) else 2
            except Exception:  # a traceback is a failed op; the run goes on
                rc = -1
                err.write(traceback.format_exc())
        return rc, out.getvalue() if rc == 0 else err.getvalue()

    def run_pass(self, tracer=None, reference=None) -> tuple[float, list[float], list[float]]:
        """One pass over every op; returns its wall time, per-op latencies and
        the times of `reference`, which when given runs before every op and
        after the last one (so op i lies between reference runs i and i + 1).

        Outputs are checked after the timed part.
        """
        latencies, refs, results = [], [], []
        t_start = time.perf_counter()
        for argv in self.argvs:
            if reference:
                refs.append(reference())
            t0 = time.perf_counter()
            results.append(self._call(argv, tracer))
            latencies.append(time.perf_counter() - t0)
        if reference:
            refs.append(reference())
        wall = time.perf_counter() - t_start
        groups: dict = {}
        for op, (rc, out) in zip(self.ops, results):
            self.attempted += 1
            reason = check(op, rc, out, groups)
            if reason is None and self.first_outputs.setdefault(op["id"], out) != out:
                reason = "output differs from the first pass"
            if reason is not None:
                self.failures.append(f"{op['id']}: {reason}")
        return wall, latencies, refs

    def output_digest(self) -> str:
        """sha256 over every op's output; equal across runs of one commit and seed."""
        h = hashlib.sha256()
        for op_id, out in sorted(self.first_outputs.items()):
            h.update(op_id.encode() + b"\0" + out.encode() + b"\0")
        return h.hexdigest()


def _p90(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


class Timings(NamedTuple):
    walls: list[float]  # pass wall times, reference runs included
    raw: list[float]  # each op's median latency over the passes
    scaled: list[float]  # each op's median latency at reference speed
    refs: list[float]  # every reference kernel time


def measure(runner: Runner, seconds: float, reference=reference_s) -> Timings:
    """Untraced passes, each op timed between two runs of `reference`, until
    `seconds` would be exceeded (at least one)."""
    walls: list[float] = []
    raw: list[list[float]] = [[] for _ in runner.ops]
    scaled: list[list[float]] = [[] for _ in runner.ops]
    all_refs: list[float] = []
    reference()  # its first run pays for the allocator
    start = time.perf_counter()
    while True:
        wall, lat, refs = runner.run_pass(reference=reference)
        walls.append(wall)
        all_refs.extend(refs)
        for i, t in enumerate(lat):
            raw[i].append(t)
            scaled[i].append(at_reference_speed(t, refs[i], refs[i + 1]))
        if time.perf_counter() - start + wall > seconds:
            return Timings(walls, [statistics.median(x) for x in raw],
                           [statistics.median(x) for x in scaled], all_refs)


def measure_traced(runner: Runner, seconds: float, workdir: Path) -> dict[str, float]:
    """Alternate untraced and traced passes; per-layer metrics of the traced ones."""
    tracer = tracing.Tracer()
    untraced: list[float] = []
    traced: list[float] = []
    start = time.perf_counter()
    while True:
        untraced.append(runner.run_pass()[0])
        tracer.keep_objects = not traced
        with tracing.instrument(tracer):
            traced.append(runner.run_pass(tracer)[0])
        if time.perf_counter() - start + untraced[-1] + traced[-1] > seconds:
            break
    tracing.write_spans(tracer, workdir / "spans.jsonl")
    print(f"# traced passes: {len(traced)}, spans: {len(tracer.spans)}, "
          f"written to {workdir / 'spans.jsonl'}")
    return tracing.layer_metrics(tracer, traced, untraced)


def main() -> int:
    p = argparse.ArgumentParser(description="aoinet benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    workdir = ROOT / ".perfbench" / f"{args.workload}-{args.seed}"
    setup_times, setup_scaled = setup(args.workload, args.seed, workdir)

    machine = machine_record()
    print("# machine " + json.dumps(machine))
    ops = json.loads((workdir / "manifest.json").read_text(encoding="utf-8"))["ops"]
    runner = Runner(ops, workdir)
    runner.run_pass()  # warm-up: checked, not timed

    record: dict = {"machine": machine}
    if args.trace:
        units = tracing.PER_LAYER_UNITS
        metrics = measure_traced(runner, args.seconds, workdir)
    else:
        units = END_TO_END_UNITS
        kernels = WORKLOAD_KERNELS.get(args.workload, DEFAULT_KERNELS)
        t = measure(runner, args.seconds, functools.partial(reference_s, kernels))
        op_ids = [op["id"] for op in ops]
        record["setup_raw_s"] = setup_times
        record["op_median_raw_s"] = dict(zip(op_ids, t.raw))
        record["op_median_scaled_s"] = dict(zip(op_ids, t.scaled))
        metrics = {
            "setup_s": statistics.median(setup_scaled),
            "wall_s": sum(t.scaled),
            "op_p50_s": statistics.median(t.scaled),
            "op_p90_s": _p90(t.scaled),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        print(f"# {len(t.walls)} timed passes of {len(ops)} ops; op percentiles over "
              f"{len(t.scaled)} samples, each op's median over the passes")
        print(f"# raw: setup median {statistics.median(setup_times):.4g} s, summed op "
              f"medians {sum(t.raw):.4g} s; reference kernel median "
              f"{statistics.median(t.refs):.4g} s, min {min(t.refs):.4g} s "
              f"(kernels {', '.join(kernels)}; timings are scaled to {REFERENCE_S} s)")

    failed = len(runner.failures)
    print(f"# output sha256 {runner.output_digest()}")
    for reason in runner.failures[:MAX_REPORTED_FAILURES]:
        print(f"# FAILED {reason}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(f"error_rate {failed / runner.attempted:.6g} ratio "
          f"({failed} failed of {runner.attempted} ops)")
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    (workdir / "result.json").write_text(json.dumps({**record, **result}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
