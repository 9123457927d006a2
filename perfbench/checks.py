"""Output checks for the benchmark's CLI calls.

`check(op, rc, out, groups)` returns None when the call's output is right and
a one-line reason when it is not. An op fails on a nonzero exit, an `error`
row or field, or a failed check; `run.py` counts failures into `error_rate`.
References come from the closed forms in `aoinet.analytic`, imported from the
module itself so the benchmark's tracing never wraps them.
"""
from __future__ import annotations

import csv
import io
import json
import math

from aoinet.analytic import (
    aoi_hetero_n2,
    aoi_lcfs_homogeneous,
    aoi_multi_source_n2,
    aoi_multi_source_n3,
)

EXACT_RTOL = 1e-9
SIM_RTOL = 0.02
SIM_CI_FACTOR = 3.0
# fig5's golden-section split must land this close, relative to the total rate
FIG5_DELTA_RTOL = 1e-4


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b))


def _finite_positive(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x) and x > 0


def _sim_close(aoi: float, ci: float, ref: float) -> bool:
    return abs(aoi - ref) <= max(SIM_CI_FACTOR * ci, SIM_RTOL * ref)


def _csv_rows(out: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(out)))


def _check_fig6(c: dict, out: str, groups: dict) -> str | None:
    rows = _csv_rows(out)
    expected = len(c["grid"]) * len(c["disciplines"])
    if len(rows) != expected:
        return f"{len(rows)} rows, expected {expected}"
    for r in rows:
        if r["error"]:
            return f"error row at {r['param']} {r['engine']}: {r['error']}"
        aoi, ci = float(r["aoi"]), float(r["ci_half_width"])
        if not (_finite_positive(aoi) and math.isfinite(ci) and ci >= 0):
            return f"bad age {r['aoi']} at {r['param']} {r['engine']}"
        if r["engine"] == "sim:lcfs-s":
            ref = aoi_lcfs_homogeneous(c["servers"], float(r["param"]), c["mu"])
            if not _sim_close(aoi, ci, ref):
                return f"lcfs-s at {r['param']}: {aoi} vs closed form {ref} (ci {ci})"
    return None


def _sim_doc(out: str, sources: int) -> tuple[dict | None, str | None]:
    doc = json.loads(out)
    if len(doc["aoi"]) != sources or len(doc["ci_half_width"]) != sources:
        return None, f"{len(doc['aoi'])} ages for {sources} sources"
    if doc["deliveries"] != doc["useful_deliveries"] + doc["discarded_stale"]:
        return None, "deliveries != useful + stale"
    for a, ci in zip(doc["aoi"], doc["ci_half_width"]):
        if not (_finite_positive(a) and math.isfinite(ci) and ci >= 0):
            return None, f"bad age {a} (ci {ci})"
    return doc, None


def _check_sim(c: dict, out: str, groups: dict) -> str | None:
    return _sim_doc(out, c["sources"])[1]


def _check_sim_ref(c: dict, out: str, groups: dict) -> str | None:
    rates = c["rates"]
    doc, bad = _sim_doc(out, len(rates))
    if bad:
        return bad
    closed = aoi_multi_source_n2 if c["servers"] == 2 else aoi_multi_source_n3
    total = sum(rates)
    for i, (a, ci) in enumerate(zip(doc["aoi"], doc["ci_half_width"])):
        ref = closed(rates[i], total, c["mu"])
        if not _sim_close(a, ci, ref):
            return f"source {i}: {a} vs closed form {ref} (ci {ci})"
    return None


def _entries(out: str, sources: int, closed_form: bool) -> tuple[list | None, str | None]:
    """Per-source (analytic or None, shs) from `analytic --format json` output."""
    doc = json.loads(out)
    if len(doc["sources"]) != sources:
        return None, f"{len(doc['sources'])} entries for {sources} sources"
    values = []
    for e in doc["sources"]:
        if "shs_error" in e:
            return None, f"source {e['source']}: shs error {e['shs_error']}"
        if closed_form and "analytic_error" in e:
            return None, f"source {e['source']}: analytic error {e['analytic_error']}"
        shs = e["shs"]
        analytic = e.get("analytic") if closed_form else None
        if not _finite_positive(shs) or (closed_form and not _finite_positive(analytic)):
            return None, f"source {e['source']}: bad age in {e}"
        if closed_form and _rel(analytic, shs) > EXACT_RTOL:
            return None, f"source {e['source']}: analytic {analytic} != shs {shs}"
        values.append((analytic, shs))
    return values, None


def _check_distinct(c: dict, out: str, groups: dict) -> str | None:
    values, bad = _entries(out, 1, c["closed_form"])
    if bad:
        return bad
    aoi = values[0][1]
    lams, mus = c["lams"], c["mus"]
    if len(lams) == 2 and _rel(aoi, aoi_hetero_n2(*lams, *mus)) > EXACT_RTOL:
        return f"shs {aoi} != two-server closed form"
    # the age is at least the time since the last arrival, and at most what
    # the best single server achieves on its own
    lower = 1.0 / sum(lams)
    upper = min(1.0 / lam + 1.0 / mu for lam, mu in zip(lams, mus))
    if not (lower * (1 - EXACT_RTOL) <= aoi <= upper * (1 + EXACT_RTOL)):
        return f"age {aoi} outside [{lower}, {upper}]"
    if "group" in c:
        first = groups.setdefault(c["group"], aoi)
        if _rel(first, aoi) > EXACT_RTOL:
            return f"relabelled servers give {aoi}, original {first}"
    return None


def _check_equal_rate(c: dict, out: str, groups: dict) -> str | None:
    values, bad = _entries(out, 1, True)
    if bad:
        return bad
    ref = aoi_lcfs_homogeneous(c["servers"], c["lam"], c["mu"])
    for v in values[0]:
        if _rel(v, ref) > EXACT_RTOL:
            return f"{v} != closed form {ref}"
    return None


def _check_shared(c: dict, out: str, groups: dict) -> str | None:
    rates = c["rates"]
    values, bad = _entries(out, len(rates), c["closed_form"])
    if bad:
        return bad
    closed = {2: aoi_multi_source_n2, 3: aoi_multi_source_n3}.get(c["servers"])
    for i, (_, aoi) in enumerate(values):
        if aoi < 1.0 / (c["servers"] * rates[i]) * (1 - EXACT_RTOL):
            return f"source {i}: age {aoi} below its mean inter-arrival time"
        if closed and _rel(aoi, closed(rates[i], sum(rates), c["mu"])) > EXACT_RTOL:
            return f"source {i}: shs {aoi} != closed form"
    return None


def _check_fig4(c: dict, out: str, groups: dict) -> str | None:
    rows = _csv_rows(out)
    if len(rows) != 2 * len(c["grid"]):
        return f"{len(rows)} rows, expected {2 * len(c['grid'])}"
    by_point: dict[float, dict[str, float]] = {}
    for r in rows:
        if r["error"]:
            return f"error row at {r['param']} {r['engine']}: {r['error']}"
        by_point.setdefault(float(r["param"]), {})[r["engine"]] = float(r["aoi"])
    for k in c["grid"]:
        v = by_point.get(float(k), {})
        if set(v) != {"analytic", "shs"}:
            return f"servers={k}: engines {sorted(v)}"
        if _rel(v["analytic"], v["shs"]) > EXACT_RTOL:
            return f"servers={k}: analytic {v['analytic']} != shs {v['shs']}"
        ref = aoi_lcfs_homogeneous(int(k), c["total"] / k, c["mu"])
        if _rel(v["analytic"], ref) > EXACT_RTOL:
            return f"servers={k}: {v['analytic']} != closed form {ref}"
    return None


def _check_fig5(c: dict, out: str, groups: dict) -> str | None:
    rows = _csv_rows(out)
    if len(rows) != len(c["grid"]):
        return f"{len(rows)} rows, expected {len(c['grid'])}"
    for r in rows:
        if not _finite_positive(float(r["objective"])):
            return f"mu1={r['mu1']}: objective {r['objective']}"
        if float(r["grid_delta"]) > FIG5_DELTA_RTOL * c["total"]:
            return f"mu1={r['mu1']}: grid_delta {r['grid_delta']}"
    return None


_CHECKS = {
    "fig6": _check_fig6,
    "sim": _check_sim,
    "sim_ref": _check_sim_ref,
    "distinct": _check_distinct,
    "equal_rate": _check_equal_rate,
    "shared": _check_shared,
    "fig4": _check_fig4,
    "fig5": _check_fig5,
}


def check(op: dict, rc: int, out: str, groups: dict) -> str | None:
    """Reason the op failed, or None.

    `out` is the call's stdout, or its stderr when rc is nonzero. `groups`
    carries values from op to op within one pass.
    """
    if rc != 0:
        return f"exit code {rc}: {out.strip().splitlines()[-1:]}"
    try:
        return _CHECKS[op["check"]["kind"]](op["check"], out, groups)
    except (ValueError, KeyError, TypeError) as e:
        return f"unreadable output: {type(e).__name__}: {e}"
