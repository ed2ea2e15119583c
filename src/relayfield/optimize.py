"""Subcarrier-count optimisation for bulk selection.

Throughput kappa(K, density) = K * (1 - Phi_bulk(K)), with
Phi_bulk = exp(-2 density u(K)), is unimodal in the relaxed real-valued
subcarrier count, though not globally concave (its tail turns convex).
Its slope alone finds the maximum: doubling K while kappa'(K) > 0
brackets it, and safeguarded Newton steps on kappa'(K) = 0 refine it.
Under an outage ceiling psi the relaxed optimum is the root of
log u(K) = log(-log psi / (2 density)), found the same way; whether the
ceiling binds is read from u at the peak, a Taylor step from the peak
search's last pass. Integer optima follow the stated rounding rules and
are evaluated at integer K only. A cut-off density marks where an
outage ceiling becomes unattainable even at K = 1.

Each (density, ceiling) pair's solve is a generator (`_solve`) that
yields the Ks whose u, u' and u'' it needs next. `optimize_K_sweep` runs
a list of pairs in lockstep: each round gathers the Ks of every open
solve and reads them from `analytic._u_derivatives`, the optimiser's one
source of u, whose store integrates those it lacks in one pass and keeps
every K for later rounds, solves and sweeps. `optimize_K` solves one
pair as a sweep of one; fig8 sweeps its three ceilings' pairs together.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

from .analytic import (
    DEFAULT_QUADRATURE,
    QuadratureSettings,
    _u_derivatives,
    _u_freespace,
    outage_floor,
)
from .channel import SystemParams, check_density
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


class UnboundedOptimumError(ArithmeticError):
    """Bracket expansion ran past the cap; parameters are degenerate."""


class ConvergenceError(ArithmeticError):
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


def _kappa(k: float, density: float, u: float) -> float:
    # 1 - Phi as -expm1(log Phi), exact where Phi is close to 1
    return -k * math.expm1(-2.0 * density * u)


def throughput(subcarriers: float, params: SystemParams, region: Region,
               density: float,
               q: QuadratureSettings = DEFAULT_QUADRATURE) -> float:
    """kappa(K, density) for bulk selection; K may be real (relaxed)."""
    if not subcarriers > 0:
        raise ValueError("subcarriers must be > 0")
    check_density(density)
    u = _u_derivatives(region, (subcarriers,), params, q)[0][0]
    return _kappa(subcarriers, density, u)


def _newton(f, k: float, lo: float, hi: float, what: str):
    """Root of a decreasing f inside (lo, hi), from k, as solve steps.

    Yields (k,) for u, u' and u'' at each k it visits, and f maps k and
    them to the value and slope of f there; each value narrows the
    bracket. A step that leaves the bracket, or a slope that is not
    negative, is replaced by bisection. Returns k plus the first step d
    short enough (_STEP_SQ), without a pass there, or k where f is 0;
    with it, u there, by the Taylor step u + d u' + d**2 u'' / 2 from
    the last pass, whose error is O(d**3). After _MAX_STEPS values
    without either, raises ConvergenceError.
    """
    for _ in range(_MAX_STEPS):
        [(u, du, d2u)] = yield (k,)
        value, slope = f(k, u, du, d2u)
        if value > 0:
            lo = k
        elif value < 0:
            hi = k
        else:
            return k, u
        step = -value / slope if slope < 0 else math.nan
        if lo < k + step < hi:
            if step * step <= _STEP_SQ * k:
                return k + step, u + step * (du + 0.5 * step * d2u)
            k += step
        else:
            k = 0.5 * (lo + hi)
    raise ConvergenceError(
        f"{what} did not converge in {_MAX_STEPS} Newton steps "
        f"(bracket [{lo!r}, {hi!r}])")


def _peak(density: float):
    """Relaxed maximiser of kappa over K > 0, and u there, as solve steps.

    kappa is unimodal, so the sign of its slope brackets the maximum: K
    doubles from _K_HI_START while kappa'(K) > 0, which leaves a bracket
    [lo, hi] with kappa'(lo) > 0 > kappa'(hi), or lo = 0, where kappa
    vanishes, if kappa'(_K_HI_START) <= 0 already. Newton steps on
    kappa' = 0 then start from hi / 2, which is lo unless lo = 0, with
    kappa' = 1 - Phi + 2 density K u' Phi and
    kappa'' = Phi (4 density u' + 2 density K u'' - 4 density**2 K u'**2).
    The bracket's passes at K = 2, 4, 8, ... do not depend on the
    density, so the store serves them across densities.
    """
    def slope(k, u, du, d2u):
        phi = math.exp(-2.0 * density * u)
        return (2.0 * density * k * du * phi - math.expm1(-2.0 * density * u),
                phi * density * (4.0 * du + 2.0 * k * d2u
                                 - 4.0 * density * k * du * du))

    lo, hi = 0.0, _K_HI_START
    while True:
        [at_hi] = yield (hi,)
        if slope(hi, *at_hi)[0] <= 0:
            break
        lo, hi = hi, 2.0 * hi
        if hi > _K_CAP:
            raise UnboundedOptimumError(
                f"throughput still increasing past K = {_K_CAP}")
    return (yield from _newton(slope, max(lo, hi / 2.0), lo, hi,
                               "throughput maximum"))


def _solve(region: Region, density: float, psi: float | None):
    """One density's solve, as a generator of solve steps.

    Each step yields the tuple of Ks whose u, u' and u'' the solve needs
    next and is sent them as a list of triples; the generator returns
    the OptimizationResult.
    Unconstrained, kappa is maximised over the relaxed K, which is then
    rounded; the ceiling wins the tie: k_opt = ceil if
    kappa(ceil) >= kappa(floor), else floor. Under the ceiling psi the
    relaxed optimum is the peak, or where the ceiling binds the root of
    log u(K) = log(-log psi / (2 density)), and k_opt is its floor.
    """
    if psi is None:
        k_relaxed, _ = yield from _peak(density)
        ks = tuple(sorted({max(1, math.ceil(k_relaxed)),
                           max(1, math.floor(k_relaxed))}, reverse=True))
        kappas = [_kappa(k, density, u)
                  for k, (u, _, _) in zip(ks, (yield ks))]
        best = 1 if len(ks) > 1 and kappas[1] > kappas[0] else 0
        return OptimizationResult(k_relaxed=k_relaxed, k_opt=ks[best],
                                  kappa_opt=kappas[best], feasible=True)

    # Phi <= psi where u >= target, and u falls with K
    target = _neg_log_ceiling(psi) / (2.0 * density)
    infeasible = OptimizationResult(k_relaxed=0.0, k_opt=0, kappa_opt=0.0,
                                    feasible=False, psi=psi)
    if region.kind == "disc" and psi < outage_floor(density, region.area):
        return infeasible
    [(u_one, _, _)] = yield (1.0,)
    if u_one < target:
        return infeasible

    k_relaxed, u_peak = yield from _peak(density)
    if u_peak < target:
        # the ceiling binds; log u is nearly linear in K, so its chord
        # through K = 1 and the peak starts Newton close to the root
        log_target, log_one = math.log(target), math.log(u_one)
        chord = 1.0 + (k_relaxed - 1.0) * (log_one - log_target) / (
            log_one - math.log(u_peak))
        k_relaxed, _ = yield from _newton(
            lambda k, u, du, d2u: (math.log(u) - log_target, du / u),
            chord, 1.0, k_relaxed, "outage ceiling")
    k_opt = max(1, math.floor(k_relaxed))
    [(u, _, _)] = yield (k_opt,)
    return OptimizationResult(k_relaxed=k_relaxed, k_opt=k_opt,
                              kappa_opt=_kappa(k_opt, density, u),
                              feasible=True, psi=psi)


def optimize_K_sweep(params: SystemParams, region: Region, densities,
                     psi: float | None | Sequence[float | None] = None,
                     q: QuadratureSettings = DEFAULT_QUADRATURE
                     ) -> list[OptimizationResult]:
    """The optimum of each (density, ceiling) pair, in the given order.

    psi is one ceiling for every density, or a sequence of ceilings, one
    per density; a ceiling of None asks for the unconstrained optimum.
    The pairs' solves run in lockstep: each round takes every open
    solve's next step at once, and the Ks they ask for that the store
    lacks are integrated in one pass, so that pairs which ask for the
    same K (the ceilings of one density share its peak search) share
    its pass. Infeasibility under a ceiling (even K = 1 violates it, or
    it is below the outage floor of a finite region) is reported via
    feasible=False and k_opt = 0, not an exception.
    """
    psis = (list(psi) if isinstance(psi, Sequence)
            else [psi] * len(densities))
    if len(psis) != len(densities):
        raise ValueError("psi needs one ceiling per density")
    if not all(density > 0 for density in densities):
        raise ValueError("density must be > 0")
    for ceiling in set(psis) - {None}:
        _neg_log_ceiling(ceiling)
    solves = [_solve(region, density, ceiling)
              for density, ceiling in zip(densities, psis)]
    results: list[OptimizationResult | None] = [None] * len(solves)
    sent = dict.fromkeys(range(len(solves)))
    while True:
        asks = {}
        for i, values in sent.items():
            try:
                asks[i] = solves[i].send(values)
            except StopIteration as done:
                results[i] = done.value
        if not asks:
            return results
        got = iter(_u_derivatives(
            region, [k for ks in asks.values() for k in ks], params, q))
        sent = {i: [next(got) for _ in ks] for i, ks in asks.items()}


def optimize_K(params: SystemParams, region: Region, density: float,
               psi: float | None = None,
               q: QuadratureSettings = DEFAULT_QUADRATURE
               ) -> OptimizationResult:
    """Maximise kappa over K at one density, subject to Phi_bulk(K) <= psi
    if psi is given: a sweep of one pair (`_solve` states the rounding).

    Infeasibility is reported via feasible=False and k_opt = 0.
    """
    return optimize_K_sweep(params, region, [density], psi, q)[0]


def _neg_log_ceiling(psi: float) -> float:
    """-log(psi), +0.0 at psi = 1 where every density meets the ceiling."""
    if not 0 < psi <= 1:
        raise ValueError("psi must be in (0, 1]")
    return 0.0 - math.log(psi)


def cutoff_density(psi: float, params: SystemParams, region: Region,
                   q: QuadratureSettings = DEFAULT_QUADRATURE) -> float:
    """Density below which the ceiling psi cannot be met even at K = 1."""
    neg_log = _neg_log_ceiling(psi)
    return neg_log / (2.0 * _u_derivatives(region, (1.0,), params, q)[0][0])


def cutoff_density_freespace(psi: float, params: SystemParams) -> float:
    """Free-space (alpha=2) approximation of the plane cut-off density."""
    return _neg_log_ceiling(psi) / (2.0 * _u_freespace(params, 1.0))
