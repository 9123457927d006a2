"""Arrival-rate allocation: closed-form optima and a 1-D numeric fallback."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .analytic import aoi_hetero_n2, aoi_multi_source_n2
from .model import positive_rate

# relative half-width below which the two-server split degenerates to 0/0
_EQUAL_SERVICE_RTOL = 1e-9
_COARSE_POINTS = 65
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class SplitResult:
    """An arrival-rate allocation with its objective value.

    boundary is True when the optimum pushes all rate onto one server.
    """

    rates: tuple[float, ...]
    objective: float
    boundary: bool


def optimal_weighted_split(
    weights: list[float] | tuple[float, ...], lam: float, mu: float
) -> SplitResult:
    """Split total rate lam across sources to minimize the weighted age sum.

    For the two-exchangeable-server system the weighted sum of per-source
    ages is minimized at rates proportional to sqrt(weight). Equal weights
    give the exactly equal split.
    """
    lam = positive_rate("lam", lam)
    mu = positive_rate("mu", mu)
    weights = [float(w) for w in weights]
    if not weights:
        raise ValueError("need at least one weight")
    if any(not math.isfinite(w) or w <= 0 for w in weights):
        raise ValueError("weights must be finite and > 0")

    if all(w == weights[0] for w in weights):
        rates = tuple([lam / len(weights)] * len(weights))
    else:
        roots = [math.sqrt(w) for w in weights]
        total = sum(roots)
        rates = tuple(lam * r / total for r in roots)
    try:
        objective = sum(
            w * aoi_multi_source_n2(r, lam, mu) for w, r in zip(weights, rates)
        )
    except ZeroDivisionError:
        # subnormal rates underflow a product, and so a divisor, to 0
        raise ValueError(f"the split underflows at lam = {lam!r}, mu = {mu!r}") from None
    return SplitResult(rates=rates, objective=objective, boundary=False)


def _interior_first_rate(lam: float, mu1: float, mu2: float) -> float:
    # positive root of (1-c) x^2 + 2x(mu2 + c(lam+mu1)) + mu2^2 - c(lam+mu1)^2,
    # whose discriminant collapses to c (lam+mu1+mu2)^2
    a = lam + mu1
    c = mu1 * (lam + mu2) / (mu2 * a)
    return (math.sqrt(c) * (a + mu2) - (mu2 + c * a)) / (1.0 - c)


def optimal_hetero_split_n2(lam: float, mu1: float, mu2: float) -> SplitResult:
    """Split one source's total rate lam across two distinct servers.

    Minimizes the single-source average age over (lam1, lam2 = lam - lam1).
    Slow-enough servers get starved entirely (boundary split); otherwise the
    interior stationary point of the age formula is returned. Equal service
    rates give the equal split, taken as the explicit limit to avoid 0/0.
    """
    lam = positive_rate("lam", lam)
    mu1 = positive_rate("mu1", mu1)
    mu2 = positive_rate("mu2", mu2)

    def refused(what: str) -> ValueError:
        return ValueError(f"the split {what} at lam = {lam!r}, mu1 = {mu1!r}, mu2 = {mu2!r}")

    # rates near the float maximum overflow the products to inf or nan, and
    # subnormal ones underflow them, and so a divisor, to 0
    try:
        c = mu1 * (lam + mu2) / (mu2 * (lam + mu1))
    except ZeroDivisionError:
        c = 0.0
    if not 0.0 < c < math.inf:
        raise refused("underflows" if c == 0.0 else "overflows")
    boundary = False
    if abs(c - 1.0) < _EQUAL_SERVICE_RTOL:
        lam1 = 0.5 * lam
    elif c < 1.0:
        # server 1 is the weaker one; starve it if even rate zero is optimal
        if mu2 * mu2 - mu1 * (lam + mu1) * (lam + mu2) / mu2 >= 0.0:
            lam1 = 0.0
            boundary = True
        else:
            lam1 = _interior_first_rate(lam, mu1, mu2)
    else:
        if mu1 * mu1 - mu2 * (lam + mu1) * (lam + mu2) / mu1 >= 0.0:
            lam1 = lam
            boundary = True
        else:
            lam1 = lam - _interior_first_rate(lam, mu2, mu1)
    lam1 = min(max(lam1, 0.0), lam)
    lam2 = lam - lam1
    try:
        objective = aoi_hetero_n2(lam1, lam2, mu1, mu2)
    except ZeroDivisionError:
        raise refused("underflows") from None
    return SplitResult(rates=(lam1, lam2), objective=objective, boundary=boundary)


def grid_minimize(
    objective: Callable[[float], float], lo: float, hi: float, tol: float = 1e-8
) -> tuple[float, float]:
    """Minimize a 1-D objective on [lo, hi]: coarse scan, then golden section.

    Returns (argmin, value). Exact for unimodal objectives (including
    monotone ones, which resolve to the boundary); a local minimizer
    otherwise. Non-finite objective values raise ValueError.
    """
    lo = float(lo)
    hi = float(hi)
    if not (hi > lo):
        raise ValueError("need hi > lo")
    if not (tol > 0):
        raise ValueError("tol must be > 0")

    def f(x: float) -> float:
        try:
            y = float(objective(x))
        except ZeroDivisionError:
            y = math.inf  # a float divisor that underflows to 0
        if not math.isfinite(y):
            raise ValueError(f"objective is not finite at {x!r}")
        return y

    # the points are Python floats, so the objective runs on float arithmetic;
    # an objective that computes in numpy has its overflow refused by f, not warned
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        xs = np.linspace(lo, hi, _COARSE_POINTS).tolist()
        ys = [f(x) for x in xs]
        k = int(np.argmin(ys))
        a = xs[max(k - 1, 0)]
        b = xs[min(k + 1, _COARSE_POINTS - 1)]
        while b - a > tol:
            c = b - _INVPHI * (b - a)
            d = a + _INVPHI * (b - a)
            if f(c) <= f(d):
                b = d
            else:
                a = c
        x = 0.5 * (a + b)
        return x, f(x)
