"""Scheme comparison, diversity slopes and the diversity bound.

The per-subcarrier over bulk outage ratio phi(density) admits an exact
alternating-sum form in the area integrals Delta(k), a small-density
quadratic approximation, and an inverse giving the minimum relay density
for a target advantage. The Delta(k) come from `analytic._delta_table`,
which integrates them, and phi's alternating sum is the guarded one that
Phi_ps uses (`analytic._exp_inclusion_exclusion`); this module holds
only the formulas on them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from scipy import optimize

from .analytic import (
    DEFAULT_QUADRATURE,
    DomainError,
    QuadratureSettings,
    _delta_table,
    _exp_inclusion_exclusion,
    _inclusion_exclusion,
    exp_integral_E,
    lower_incomplete_gamma,
    outage_bulk,
    outage_ps,
)
from .channel import SystemParams, check_density
from .geometry import Region

_CROSS_CHECK_RTOL = 1e-5


@dataclass(frozen=True)
class RatioResult:
    """Outage ratio per-subcarrier/bulk at one relay density."""

    phi: float
    phi_approx: float
    density: float


@dataclass(frozen=True)
class DiversityEstimate:
    """Finite-window diversity slope in decades of outage per decade of SNR."""

    slope: float
    snr_window: tuple[float, float]


def delta_k(k: int, params: SystemParams, region: Region,
            q: QuadratureSettings = DEFAULT_QUADRATURE) -> float:
    """Area integral of 1 - F**k - (1-F)**K over the region.

    Positive and bounded for 1 <= k <= K when K >= 2.
    """
    if not 1 <= k <= params.subcarriers:
        raise ValueError("need 1 <= k <= subcarriers")
    return _delta_table(params, region, q)[k - 1]


def _quadratic_coefficient(deltas: Sequence[float]) -> float:
    """The density**2 / 2 coefficient of phi's small-density expansion."""
    return math.fsum(_inclusion_exclusion([d**2 for d in deltas]))


def outage_ratio(params: SystemParams, region: Region, density: float,
                 q: QuadratureSettings = DEFAULT_QUADRATURE) -> RatioResult:
    """Exact outage ratio phi = Phi_ps / Phi_bulk at one density.

    Evaluates both the Delta-based alternating sum and the two outage
    integrals; Phi_ps = phi Phi_bulk is the same identity, so disagreement
    beyond _CROSS_CHECK_RTOL, relative and absolute on the scale of
    Phi_bulk, signals a numerical problem. The check is taken multiplied
    through by Phi_bulk, so that it still holds where Phi_bulk underflows
    to 0.
    """
    check_density(density)
    phi = _exp_inclusion_exclusion(
        [density * d for d in _delta_table(params, region, q)])
    ps = outage_ps(params, region, density, q)
    bulk = outage_bulk(params, region, density, q)
    if not math.isclose(ps, phi * bulk, rel_tol=_CROSS_CHECK_RTOL,
                        abs_tol=_CROSS_CHECK_RTOL * bulk):
        raise ArithmeticError(
            f"ratio cross-check failed: Delta-sum {phi!r} vs Phi_ps {ps!r} "
            f"over Phi_bulk {bulk!r}")
    approx = outage_ratio_approx(params, region, density, q)
    return RatioResult(phi=phi, phi_approx=approx, density=density)


def outage_ratio_approx(params: SystemParams, region: Region, density: float,
                        q: QuadratureSettings = DEFAULT_QUADRATURE) -> float:
    """Quadratic small-density approximation of the outage ratio."""
    check_density(density)
    return 1.0 + 0.5 * density**2 * _quadratic_coefficient(
        _delta_table(params, region, q))


@dataclass(frozen=True)
class MinDensityResult:
    """Minimum relay density for a target outage-ratio advantage.

    density_approx comes from the closed small-density formula;
    density_exact from numerically inverting the exact ratio.
    """

    density_approx: float
    density_exact: float
    epsilon: float


def min_density_for_advantage(epsilon: float, params: SystemParams,
                              region: Region,
                              q: QuadratureSettings = DEFAULT_QUADRATURE
                              ) -> MinDensityResult:
    """Smallest density with phi(density) <= epsilon, plus its approximation."""
    if not 0 < epsilon <= 1:
        raise ValueError("epsilon must be in (0, 1]")
    deltas = _delta_table(params, region, q)
    quad_sum = _quadratic_coefficient(deltas)
    if epsilon == 1.0:
        return MinDensityResult(0.0, 0.0, epsilon)
    if not quad_sum < 0:
        raise DomainError("epsilon target inconsistent with the sign of the "
                          "quadratic coefficient")
    approx = math.sqrt(2.0 * (epsilon - 1.0) / quad_sum)

    def gap(density: float) -> float:
        phi = _exp_inclusion_exclusion([density * d for d in deltas])
        return phi - epsilon

    hi = max(approx, 1e-6)
    while gap(hi) > 0:
        hi *= 2.0
        if hi > 1e9:
            raise ArithmeticError("could not bracket the exact inverse")
    exact = optimize.brentq(gap, 0.0, hi, xtol=1e-12, rtol=1e-12)
    return MinDensityResult(density_approx=approx, density_exact=exact,
                            epsilon=epsilon)


def diversity_slope(log_outage_curve: Callable[[float], float],
                    snr_lo: float, snr_hi: float) -> DiversityEstimate:
    """Finite-window diversity slope of a curve of ln(outage) against SNR.

    The curve is taken in log domain, where outages far below double
    range stay finite (see analytic.log_outage_bulk).
    """
    if not 0 < snr_lo < snr_hi:
        raise ValueError("need snr_hi > snr_lo > 0")
    log_lo, log_hi = log_outage_curve(snr_lo), log_outage_curve(snr_hi)
    # log_lo - log_hi, not -(log_hi - log_lo): a flat curve gives 0, not -0
    slope = (log_lo - log_hi) / (math.log(snr_hi) - math.log(snr_lo))
    return DiversityEstimate(slope=slope, snr_window=(snr_lo, snr_hi))


def appendix_bound_T1(params: SystemParams) -> float:
    """Closed-form radial bound used in the infinite-region diversity proof.

    (P_t/(K s N_0))**(2/a) * exp(-K s N_0 (2 r_SD)**a / P_t)
        * gamma_lower(2/a, K s N_0 r_SD**a / P_t)
    + (r_SD**2 / a) * E_{(a-2)/a}((1 + 2**a) K s N_0 r_SD**a / P_t)
    """
    a = params.path_loss
    c = params.subcarriers * params.threshold / params.snr_budget
    r = params.r_sd
    term1 = ((1.0 / c) ** (2.0 / a) * math.exp(-c * (2.0 * r) ** a)
             * lower_incomplete_gamma(2.0 / a, c * r**a))
    term2 = (r**2 / a) * exp_integral_E((a - 2.0) / a, (1.0 + 2.0**a) * c * r**a)
    return term1 + term2

