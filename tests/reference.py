"""Oracles the package is tested against; no package code calls them.

The per-trial object pipeline is the oracle of the vectorised Monte
Carlo kernel. One trial is a Topology of relays (sample_topology), a
FadingRealization of hop gains (draw_fading), their relay-by-subcarrier
end-to-end SNR matrix (snr_matrix) and a selection (select_bulk or
select_per_subcarrier); trial_outage decides the trial. It is written
for clarity, one relay and one trial at a time.

The quadrature oracles check the Gauss-Legendre integrals and closed
forms of `relayfield.analytic` and `relayfield.metrics`: quad, adaptive
scipy quadrature at given tolerances; integrand_H, the relay kernel at
points (r, theta); and appendix_bound_T1_quadrature, the diversity
bound's defining integral.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from relayfield import (
    DEFAULT_QUADRATURE,
    ConfigurationError,
    QuadratureError,
    QuadratureSettings,
    Region,
    Scheme,
    SystemParams,
)


def quad(f, lo, hi, q: QuadratureSettings, what: str) -> float:
    """scipy's adaptive quad of f over [lo, hi] at q's tolerances, with
    at most 200 subintervals; QuadratureError if it warns."""
    val, err, info, *msg = integrate.quad(
        f, lo, hi, epsabs=q.abs_tol, epsrel=q.rel_tol,
        limit=200, full_output=True)
    if msg:
        raise QuadratureError(f"quadrature did not converge in {what}",
                              val, err)
    return val


def integrand_H(n: float, r, theta, params: SystemParams):
    """Kernel of all outage integrals, r * exp(-c (r**alpha + r_mD**alpha)),
    c = n*s/(P_t/N_0), with r_mD from relay_dest_distance.

    Accepts real n (relaxed K) and arrays of r and theta.
    """
    if np.any(np.asarray(r) < 0):
        raise ValueError("r must be >= 0")
    c = n * params.threshold / params.snr_budget
    alpha = params.path_loss
    r_md = relay_dest_distance(r, theta, params.r_sd)
    return r * np.exp(-c * (r**alpha + r_md**alpha))


def appendix_bound_T1_quadrature(params: SystemParams,
                                 q: QuadratureSettings = DEFAULT_QUADRATURE
                                 ) -> float:
    """Direct quadrature of the defining integral of
    metrics.appendix_bound_T1."""
    a = params.path_loss
    c = params.subcarriers * params.threshold / params.snr_budget
    r_sd = params.r_sd
    return quad(lambda r: r * math.exp(-c * (r**a + (2.0 * max(r, r_sd))**a)),
                0.0, math.inf, q, "appendix_bound_T1")


@dataclass(frozen=True)
class RelayPoint:
    """Polar position of one relay relative to the source at the origin."""

    r_sm: float
    theta: float

    def __post_init__(self):
        if self.r_sm < 0:
            raise ConfigurationError("r_sm must be >= 0")


@dataclass(frozen=True)
class Topology:
    """One sampled relay configuration (array-backed for speed)."""

    r_sm: np.ndarray
    theta: np.ndarray
    region: Region
    density: float

    @property
    def n_relays(self) -> int:
        return len(self.r_sm)

    @property
    def relays(self) -> tuple[RelayPoint, ...]:
        return tuple(RelayPoint(float(r), float(t))
                     for r, t in zip(self.r_sm, self.theta))


def sample_topology(region: Region, density: float,
                    rng: np.random.Generator) -> Topology:
    """Draw one homogeneous PPP realisation over a disc.

    The relay count is Poisson(density * area); given the count, points
    are uniform over the disc (radius density proportional to r).
    """
    if density < 0:
        raise ConfigurationError("density must be >= 0")
    radius = region.outer_radius()
    if math.isinf(radius):
        raise ConfigurationError(
            "the plane holds infinitely many relays; sample a disc")
    area = math.pi * radius**2
    n = rng.poisson(density * area)
    r = radius * np.sqrt(rng.random(n))
    theta = 2.0 * math.pi * rng.random(n)
    return Topology(r_sm=r, theta=theta, region=region, density=density)


def relay_dest_distance(r_sm, theta, r_sd):
    """Relay-to-destination distance by the law of cosines.

    Accepts scalars or numpy arrays.
    """
    d2 = r_sd**2 + np.asarray(r_sm) ** 2 - 2.0 * r_sd * np.asarray(r_sm) * np.cos(theta)
    # roundoff can push the collocated case slightly negative
    return np.sqrt(np.maximum(d2, 0.0))


@dataclass(frozen=True)
class FadingRealization:
    """Channel gains with shape (2 hops, n_relays, subcarriers)."""

    gains: np.ndarray

    @property
    def n_relays(self) -> int:
        return self.gains.shape[1]

    @property
    def subcarriers(self) -> int:
        return self.gains.shape[2]


def draw_fading(topology: Topology, subcarriers: int,
                rng: np.random.Generator) -> FadingRealization:
    """Draw unit-mean exponential gains for every hop/relay/subcarrier.

    Inverse transform -ln(1 - U) with U in [0, 1), so the argument of
    the log never hits zero.
    """
    if subcarriers < 1:
        raise ValueError("subcarriers must be >= 1")
    shape = (2, topology.n_relays, subcarriers)
    gains = -np.log1p(-rng.random(shape))
    return FadingRealization(gains=gains)


def _hop_snr(snr_budget, gain, distance, path_loss):
    """Single-hop SNR; a zero-length hop has infinite SNR."""
    dist = np.asarray(distance, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        attenuation = np.where(dist > 0, dist, np.nan) ** (-path_loss)
        attenuation = np.where(dist > 0, attenuation, np.inf)
        out = snr_budget * np.asarray(gain, dtype=float) * attenuation
    # 0 * inf at a zero-length hop: a dead gain still means zero SNR
    return np.where(np.asarray(gain) == 0, 0.0, out)


def end_to_end_snr(params: SystemParams, relay: RelayPoint,
                   g1: float, g2: float) -> float:
    """min of the two hop SNRs for one relay and one subcarrier."""
    if g1 < 0 or g2 < 0:
        raise ValueError("gains must be >= 0")
    r_md = relay_dest_distance(relay.r_sm, relay.theta, params.r_sd)
    snr1 = _hop_snr(params.snr_budget, g1, relay.r_sm, params.path_loss)
    snr2 = _hop_snr(params.snr_budget, g2, r_md, params.path_loss)
    return float(min(snr1, snr2))


def snr_matrix(params: SystemParams, topology: Topology,
               fading: FadingRealization) -> np.ndarray:
    """End-to-end SNR for every relay and subcarrier, shape (M, K)."""
    r_sm = topology.r_sm[:, None]
    r_md = relay_dest_distance(topology.r_sm, topology.theta, params.r_sd)[:, None]
    snr1 = _hop_snr(params.snr_budget, fading.gains[0], r_sm, params.path_loss)
    snr2 = _hop_snr(params.snr_budget, fading.gains[1], r_md, params.path_loss)
    return np.minimum(snr1, snr2)


def e2e_cdf(params: SystemParams, r_sm: float, r_md: float, x: float):
    """CDF of the end-to-end SNR at a fixed relay position.

    F(x) = 1 - exp(-(x/(P_t/N_0)) * (r_sm**alpha + r_md**alpha)).
    """
    if np.any(np.asarray(x) < 0):
        raise ValueError("x must be >= 0")
    a = params.path_loss
    return -np.expm1(-(np.asarray(x, dtype=float) / params.snr_budget)
                     * (r_sm**a + r_md**a))


class NoCandidateError(ValueError):
    """Selection requested on an empty relay set."""


@dataclass(frozen=True)
class SelectionOutcome:
    """Selected relay and achieved SNR per subcarrier."""

    scheme: Scheme
    chosen: np.ndarray    # relay index per subcarrier
    achieved: np.ndarray  # linear SNR per subcarrier


def select_bulk(snr: np.ndarray) -> SelectionOutcome:
    """One relay for all subcarriers, maximising its worst-subcarrier SNR.

    Ties break to the lowest relay index.
    """
    snr = np.asarray(snr, dtype=float)
    if snr.ndim != 2 or snr.shape[0] == 0:
        raise NoCandidateError("need at least one relay")
    worst = snr.min(axis=1)
    m = int(np.argmax(worst))
    k = snr.shape[1]
    return SelectionOutcome(scheme=Scheme.BULK,
                            chosen=np.full(k, m, dtype=int),
                            achieved=snr[m].copy())


def select_per_subcarrier(snr: np.ndarray) -> SelectionOutcome:
    """Each subcarrier independently picks its best relay.

    The same relay may serve several subcarriers; ties break to the
    lowest relay index.
    """
    snr = np.asarray(snr, dtype=float)
    if snr.ndim != 2 or snr.shape[0] == 0:
        raise NoCandidateError("need at least one relay")
    chosen = snr.argmax(axis=0)
    achieved = snr[chosen, np.arange(snr.shape[1])]
    return SelectionOutcome(scheme=Scheme.PER_SUBCARRIER,
                            chosen=chosen, achieved=achieved)


def trial_outage(topology: Topology, fading: FadingRealization,
                 params: SystemParams, scheme: Scheme) -> bool:
    """True iff this realisation is in outage under the given scheme.

    An empty topology counts as outage.
    """
    if topology.n_relays == 0:
        return True
    snr = snr_matrix(params, topology, fading)
    if scheme is Scheme.BULK:
        outcome = select_bulk(snr)
    else:
        outcome = select_per_subcarrier(snr)
    return bool(outcome.achieved.min() < params.threshold)
