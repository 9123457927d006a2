"""Closed-form average ages for the network classes that admit them.

All formulas are for preemptive (LCFS-S) service with Poisson arrivals and
exponential servers; rates are per server unless stated otherwise.
"""
from __future__ import annotations

import math

from .builders import build_heterogeneous_single_source
from .model import positive_rate
from .shs import solve_age


def aoi_lcfs_homogeneous(n: int, lam: float, mu: float) -> float:
    """Average age for one source over n exchangeable preemptive servers.

    With rho = lam/mu:

        (1/mu) * [ (1 + sum_{j=1}^{n-1} P_j) / (n rho) + P_{n-1} / n^2 ]

    where P_j is the product over i=1..j of rho (n-i+1) / (i + (n-i) rho).
    n = 1 reduces to 1/lam + 1/mu.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError("n must be a positive integer")
    lam = positive_rate("lam", lam)
    mu = positive_rate("mu", mu)
    rho = lam / mu
    total = 0.0
    prod = 1.0
    for i in range(1, n):
        prod *= rho * (n - i + 1) / (i + (n - i) * rho)
        total += prod
    return ((1.0 + total) / (n * rho) + prod / n**2) / mu


def aoi_multi_source_n2(lam_i: float, lam: float, mu: float) -> float:
    """Average age of one source among many sharing two exchangeable servers.

    lam_i is the tracked source's per-server rate, lam the per-server total
    over all sources (lam_i <= lam).
    """
    lam_i = positive_rate("lam_i", lam_i)
    lam = positive_rate("lam", lam)
    mu = positive_rate("mu", mu)
    if lam_i > lam:
        raise ValueError("lam_i cannot exceed the per-server total rate lam")
    return 1.0 / (2.0 * (lam + mu)) + (lam + mu) / (2.0 * mu * lam_i)


def aoi_multi_source_n3(lam_i: float, lam: float, mu: float) -> float:
    """Average age of one source among many sharing three exchangeable servers.

    Arguments as in aoi_multi_source_n2. With rho = lam/mu and
    rho_i = lam_i/mu:

        (rho+1)(2 (rho+1)^2 + 5 rho_i) / (3 mu rho_i (2 (rho+1)^2 + rho_i))

    Obtained by eliminating the four age unknowns of the reduced
    three-server balance system; at rho_i = rho it coincides with
    aoi_lcfs_homogeneous(3, lam, mu).
    """
    lam_i = positive_rate("lam_i", lam_i)
    lam = positive_rate("lam", lam)
    mu = positive_rate("mu", mu)
    if lam_i > lam:
        raise ValueError("lam_i cannot exceed the per-server total rate lam")
    rho = lam / mu
    rho_i = lam_i / mu
    g = 2.0 * (rho + 1.0) ** 2
    return (rho + 1.0) * (g + 5.0 * rho_i) / (3.0 * mu * rho_i * (g + rho_i))


def aoi_hetero_n2(lam1: float, lam2: float, mu1: float, mu2: float) -> float:
    """Average age for one source over two distinct preemptive servers.

    Either arrival rate may be zero (that server then never receives
    updates), but not both.
    """
    for name, v in (("lam1", lam1), ("lam2", lam2)):
        if not (math.isfinite(v) and v >= 0):
            raise ValueError(f"{name} must be finite and >= 0")
    if lam1 + lam2 <= 0:
        raise ValueError("lam1 + lam2 must be > 0")
    mu1 = positive_rate("mu1", mu1)
    mu2 = positive_rate("mu2", mu2)
    lam = lam1 + lam2
    mu = mu1 + mu2
    cross = mu1 * lam2 / (lam1 + mu2) + mu2 * lam1 / (lam2 + mu1)
    return 1.0 / mu + 1.0 / lam + cross / (mu * lam)


def aoi_hetero_n3(
    arrival_rates: list[float] | tuple[float, ...],
    service_rates: list[float] | tuple[float, ...],
) -> float:
    """Average age for one source over three distinct preemptive servers.

    Thin wrapper over the six-state chain solve; all rates must be positive.
    """
    if len(arrival_rates) != 3 or len(service_rates) != 3:
        raise ValueError("need exactly three arrival and three service rates")
    return solve_age(build_heterogeneous_single_source(arrival_rates, service_rates)).aoi
