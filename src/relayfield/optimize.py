"""Subcarrier-count optimisation for bulk selection.

Throughput kappa(K, density) = K * (1 - Phi_bulk(K)), with
Phi_bulk = exp(-2 density u(K)), is unimodal in the relaxed real-valued
subcarrier count, though not globally concave (its tail turns convex).
Its slope alone finds the maximum: doubling K while kappa'(K) > 0
brackets it, and safeguarded Newton steps on kappa'(K) = 0 refine it,
each from one cached integrator pass that returns u, u' and u''; every u
a solve reads comes from that cache. Under an outage ceiling psi the
relaxed optimum is the root of log u(K) = log(-log psi / (2 density)),
found the same way. Integer optima follow the stated rounding rules and
are evaluated at integer K only. A cut-off density marks where an
outage ceiling becomes unattainable even at K = 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .analytic import (
    DEFAULT_QUADRATURE,
    QuadratureSettings,
    _u_derivatives,
    _u_freespace,
    outage_floor,
)
from .channel import SystemParams
from .geometry import Region

_K_CAP = 2**16
_K_HI_START = 2.0  # first K of the doubling bracket
# A Newton step of size d leaves an error near d**2 / K after it, as
# kappa and log u vary on the scale of K; stopping once d**2 <= _STEP_SQ * K
# leaves a few 1e-9 in K at most (1.5e-10 measured over the fig7, fig8 and
# plane optimize-k grids), far below the 1e-6 the solves promise.
_STEP_SQ = 1e-9
# Bisection alone narrows the widest bracket, 2 * _K_CAP, below any
# accepted step within about 40 halvings.
_MAX_STEPS = 60


class UnboundedOptimumError(RuntimeError):
    """Bracket expansion ran past the cap; parameters are degenerate."""


class ConvergenceError(RuntimeError):
    """A Newton search hit its step cap without converging."""


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
    if density < 0:
        raise ValueError("density must be >= 0")
    # 1 - Phi as -expm1(log Phi), exact where Phi is close to 1
    u = _u_derivatives(region, subcarriers, params, q)[0]
    return -subcarriers * math.expm1(-2.0 * density * u)


def _newton(f, k: float, lo: float, hi: float, what: str) -> float:
    """Root of a decreasing f inside (lo, hi), from k.

    f(k) returns the value and slope of f at k, and each value narrows
    the bracket. A step that leaves the bracket, or a slope that is not
    negative, is replaced by bisection. Returns k plus the first step
    short enough (_STEP_SQ) without evaluating f there, or k where f is
    0. After _MAX_STEPS values without either, raises ConvergenceError.
    """
    for _ in range(_MAX_STEPS):
        value, slope = f(k)
        if value > 0:
            lo = k
        elif value < 0:
            hi = k
        else:
            return k
        step = -value / slope if slope < 0 else math.nan
        if lo < k + step < hi:
            if step * step <= _STEP_SQ * k:
                return k + step
            k += step
        else:
            k = 0.5 * (lo + hi)
    raise ConvergenceError(
        f"{what} did not converge in {_MAX_STEPS} Newton steps "
        f"(bracket [{lo!r}, {hi!r}])")


def _peak(params: SystemParams, region: Region, density: float,
          q: QuadratureSettings) -> float:
    """Relaxed maximiser of kappa over K > 0.

    kappa is unimodal, so the sign of its slope brackets the maximum: K
    doubles from _K_HI_START while kappa'(K) > 0, which leaves a bracket
    [lo, hi] with kappa'(lo) > 0 > kappa'(hi), or lo = 0, where kappa
    vanishes, if kappa'(_K_HI_START) <= 0 already. Newton steps on
    kappa' = 0 then start from hi / 2, which is lo unless lo = 0, with
    kappa' = 1 - Phi + 2 density K u' Phi and
    kappa'' = Phi (4 density u' + 2 density K u'' - 4 density**2 K u'**2).
    The bracket's passes at K = 2, 4, 8, ... do not depend on the
    density, so the derivative cache serves them across densities.
    """
    def slope(k: float) -> tuple[float, float]:
        u, du, d2u = _u_derivatives(region, k, params, q)
        phi = math.exp(-2.0 * density * u)
        return (2.0 * density * k * du * phi - math.expm1(-2.0 * density * u),
                phi * density * (4.0 * du + 2.0 * k * d2u
                                 - 4.0 * density * k * du * du))

    lo, hi = 0.0, _K_HI_START
    while slope(hi)[0] > 0:
        lo, hi = hi, 2.0 * hi
        if hi > _K_CAP:
            raise UnboundedOptimumError(
                f"throughput still increasing past K = {_K_CAP}")
    return _newton(slope, max(lo, hi / 2.0), lo, hi, "throughput maximum")


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

    k_relaxed = _peak(params, region, density, q)
    k_floor = max(1, math.floor(k_relaxed))
    k_ceil = max(1, math.ceil(k_relaxed))
    kappa_ceil = throughput(k_ceil, params, region, density, q)
    kappa_floor = (throughput(k_floor, params, region, density, q)
                   if k_floor < k_ceil else kappa_ceil)
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
    if density <= 0:
        raise ValueError("density must be > 0")

    # Phi <= psi where u >= target, and u falls with K; this checks psi
    target = _neg_log_ceiling(psi) / (2.0 * density)
    if ((region.kind == "disc" and psi < outage_floor(density, region.area))
            or _u_derivatives(region, 1.0, params, q)[0] < target):
        return OptimizationResult(k_relaxed=0.0, k_opt=0, kappa_opt=0.0,
                                  feasible=False, psi=psi)

    k_relaxed = _peak(params, region, density, q)
    u_peak = _u_derivatives(region, k_relaxed, params, q)[0]
    if u_peak < target:
        # the ceiling binds; log u is nearly linear in K, so its chord
        # through K = 1 and the peak starts Newton close to the root
        log_target = math.log(target)
        log_one = math.log(_u_derivatives(region, 1.0, params, q)[0])
        chord = 1.0 + (k_relaxed - 1.0) * (log_one - log_target) / (
            log_one - math.log(u_peak))

        def gap(k: float) -> tuple[float, float]:
            u, du, _ = _u_derivatives(region, k, params, q)
            return math.log(u) - log_target, du / u

        k_relaxed = _newton(gap, chord, 1.0, k_relaxed, "outage ceiling")
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
    neg_log = _neg_log_ceiling(psi)
    return neg_log / (2.0 * _u_derivatives(region, 1.0, params, q)[0])


def cutoff_density_freespace(psi: float, params: SystemParams) -> float:
    """Free-space (alpha=2) approximation of the plane cut-off density."""
    return _neg_log_ceiling(psi) / (2.0 * _u_freespace(params, 1.0))
