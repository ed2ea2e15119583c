"""Subcarrier-count optimisation for bulk selection.

Throughput kappa(K, density) = K * (1 - Phi_bulk(K)) is unimodal in the
relaxed real-valued subcarrier count, though not globally concave (its
tail turns convex), so a doubling bracket followed by bounded Brent
search finds the relaxed optimum; integer optima follow the stated
rounding rules. A cut-off density marks where an outage ceiling becomes
unattainable even at K = 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from scipy import optimize as sopt

from .analytic import (
    DEFAULT_QUADRATURE,
    DomainError,
    QuadratureSettings,
    _u_freespace,
    _u_region,
    log_outage_bulk,
    outage_bulk,
    outage_floor,
)
from .channel import SystemParams
from .geometry import Region

_K_CAP = 2**16
_K_HI_START = 2.0  # first K of the doubling bracket


class UnboundedOptimumError(RuntimeError):
    """Bracket expansion ran past the cap; parameters are degenerate."""


@dataclass(frozen=True)
class OptimizationResult:
    """Relaxed and integer-optimal subcarrier counts.

    feasible is False only in the constrained problem when no K >= 1
    meets the outage ceiling; then k_opt = 0.
    """

    k_relaxed: float
    k_opt: int
    kappa_opt: float
    feasible: bool
    psi: float | None = None


def throughput(subcarriers: float, params: SystemParams, region: Region,
               density: float,
               q: QuadratureSettings = DEFAULT_QUADRATURE) -> float:
    """kappa(K, density) for bulk selection; K may be real (relaxed)."""
    if subcarriers <= 0:
        raise ValueError("subcarriers must be > 0")
    phi = outage_bulk(params, region, density, q, subcarriers=subcarriers)
    return subcarriers * (1.0 - phi)


def _relaxed_optimum(kappa) -> float:
    """Maximise a unimodal kappa over K > 0 by bounded Brent search.

    Doubling at integer K brackets the maximum: once kappa(2 k_hi) <=
    kappa(k_hi) it lies below 2 k_hi, and above k_hi / 2 if the loop
    doubled at least once (kappa(k_hi) > kappa(k_hi / 2)). Brent's
    method (parabolic steps within golden section) then refines it to
    1e-6.
    """
    lo, k_hi = 1e-9, _K_HI_START
    best = kappa(k_hi)
    while (doubled := kappa(2.0 * k_hi)) > best:
        lo, k_hi, best = k_hi, 2.0 * k_hi, doubled
        if k_hi > _K_CAP:
            raise UnboundedOptimumError(
                f"throughput still increasing past K = {_K_CAP}")
    res = sopt.minimize_scalar(lambda k: -kappa(k), bounds=(lo, 2.0 * k_hi),
                               method="bounded", options={"xatol": 1e-6})
    return float(res.x)


def optimize_K_unconstrained(params: SystemParams, region: Region,
                             density: float,
                             q: QuadratureSettings = DEFAULT_QUADRATURE
                             ) -> OptimizationResult:
    """Maximise kappa over the relaxed K, then round.

    The ceiling wins the rounding tie: k_opt = ceil if
    kappa(ceil) >= kappa(floor), else floor.
    """
    if density <= 0:
        raise ValueError("density must be > 0")

    def kappa(k: float) -> float:
        return throughput(k, params, region, density, q)

    k_relaxed = _relaxed_optimum(kappa)
    k_floor = max(1, math.floor(k_relaxed))
    k_ceil = max(1, math.ceil(k_relaxed))
    kappa_ceil = kappa(k_ceil)
    kappa_floor = kappa(k_floor) if k_floor < k_ceil else kappa_ceil
    if kappa_ceil >= kappa_floor:
        k_opt, kappa_opt = k_ceil, kappa_ceil
    else:
        k_opt, kappa_opt = k_floor, kappa_floor
    return OptimizationResult(k_relaxed=k_relaxed, k_opt=k_opt,
                              kappa_opt=kappa_opt, feasible=True)


def optimize_K_constrained(params: SystemParams, region: Region,
                           density: float, psi: float,
                           q: QuadratureSettings = DEFAULT_QUADRATURE
                           ) -> OptimizationResult:
    """Maximise kappa subject to Phi_bulk(K) <= psi; k_opt = floor(relaxed).

    Infeasibility (even K = 1 violates psi, or psi is below the outage
    floor of a finite region) is reported via feasible=False and
    k_opt = 0, not an exception.
    """
    if not 0 < psi <= 1:
        raise ValueError("psi must be in (0, 1]")
    if density <= 0:
        raise ValueError("density must be > 0")

    def phi(k: float) -> float:
        return outage_bulk(params, region, density, q, subcarriers=k)

    if region.kind == "disc" and psi < outage_floor(density, region.area):
        return OptimizationResult(k_relaxed=0.0, k_opt=0, kappa_opt=0.0,
                                  feasible=False, psi=psi)
    if phi(1.0) > psi:
        return OptimizationResult(k_relaxed=0.0, k_opt=0, kappa_opt=0.0,
                                  feasible=False, psi=psi)

    unconstrained = optimize_K_unconstrained(params, region, density, q)
    if phi(unconstrained.k_relaxed) <= psi:
        k_relaxed = unconstrained.k_relaxed
    else:
        # Phi is increasing in the relaxed K, so the ceiling binds; log Phi
        # is nearly linear in K, so brentq needs fewer steps on it
        log_psi = math.log(psi)
        k_relaxed = sopt.brentq(
            lambda k: log_outage_bulk(params, region, density, q,
                                      subcarriers=k) - log_psi,
            1.0, max(unconstrained.k_relaxed, 1.0 + 1e-9), xtol=1e-9)
    k_opt = max(1, math.floor(k_relaxed))
    kappa_opt = throughput(k_opt, params, region, density, q)
    return OptimizationResult(k_relaxed=k_relaxed, k_opt=k_opt,
                              kappa_opt=kappa_opt, feasible=True, psi=psi)


def _neg_log_ceiling(psi: float) -> float:
    """-log(psi), +0.0 at psi = 1 where every density meets the ceiling."""
    if not 0 < psi <= 1:
        raise ValueError("psi must be in (0, 1]")
    return 0.0 - math.log(psi)


def cutoff_density(psi: float, params: SystemParams, region: Region,
                   q: QuadratureSettings = DEFAULT_QUADRATURE) -> float:
    """Density below which the ceiling psi cannot be met even at K = 1."""
    return _neg_log_ceiling(psi) / (2.0 * _u_region(region, 1.0, params, q))


def cutoff_density_freespace(psi: float, params: SystemParams) -> float:
    """Free-space (alpha=2) approximation of the plane cut-off density."""
    return _neg_log_ceiling(psi) / (2.0 * _u_freespace(params, 1.0))
