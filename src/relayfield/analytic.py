"""Exact, asymptotic and closed-form outage expressions.

The exact results are integrals of the relay kernel
H(n) = r * exp(-c * (r**alpha + r_mD**alpha)), c = n*s/(P_t/N_0),
over the half-disc (a symmetry factor 2 covers theta in [pi, 2pi)).
`_integrate` evaluates them for a whole vector of c in one numpy pass,
on a tensor Gauss-Legendre grid in (r, theta). The cs of a call share
one cached grid of r**alpha + r_mD**alpha (`_grid`, which builds its
own angular rule), whose radial range ends at the disc's radius, or at
the call's largest cut, where the kernel has fallen e**-40 below its
peak bound, with the neglected tail bounded in closed form; its error
estimate is the difference against the rule with twice the nodes.
Each rule evaluates exp(-c e), e the table, in one buffer reused across
its batches, on the argument floored at -700 (`_EXP_FLOOR`): numpy's
vector exp leaves its fast path below about -707.5 (15-19 ns per value
between -708 and -750, 0.9 ns at -700), where u(1..K) on the plane,
sharing u(1)'s grid, send about an eighth of their arguments. A node
whose g is below e**-700 (about 9.9e-305) reads e**-700 instead, so an
integral moves by at most e**-700 times the grid's half-area (see
`_integrate`), below the last bit of any integral above about 1e-280.

This module is the only one that integrates the kernel. It gives u(n),
the integral of H(n) over a `Region` (`u(n, params, region)`), to the
outage formulas (`_u_values`, cached per batch of n) and Delta(1..K) to
`metrics` (`_delta_table`), reducing each row over the grid. The
optimiser reads u, u' and u'' through `_u_derivatives` from a store
kept per n: `_store`, an lru_cache of the 8 configurations used last,
each a dict of at most 512 entries. It fills what it lacks with one
derivative pass: one product of exp(-c e), e the exponent table, with
the table [w, e w, e**2 w] that the grid's cache entry builds beside it.
Both exact outages read one batch per configuration, u(1..K) from
`_u_values`: Phi_ps sums it and Phi_bulk reads its last entry, so a
configuration asking for both integrates once. The store stays apart
from it: an entry's last bits depend on the pass that computed it (see
`_u_derivatives`), and the optimiser's passes batch whatever Ks a round
lacks, so one cache for both would make an outage's last bits depend
on what ran before it. On the plane at alpha = 2 u(n) has the closed
form `_u_freespace`. Phi_ps and the ratio phi in `metrics` share one
guarded sum of exponentials (`_exp_inclusion_exclusion`); Phi_ps's
exponents are exact inner sums of the batch's u (`_inner_sums`).
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy import special

from .channel import SystemParams, check_density
from .geometry import Region


class QuadratureError(ArithmeticError):
    """Quadrature missed its tolerance; carries the best estimate of the
    integral and the estimate of its error."""

    def __init__(self, message: str, estimate: float,
                 error: float = math.nan):
        super().__init__(f"{message} (estimate {estimate!r}, "
                         f"error estimate {error!r})")
        self.estimate = estimate
        self.error = error


class NumericalInstabilityError(ArithmeticError):
    """Alternating binomial sum cancelled beyond double precision.

    Use a smaller subcarrier count or higher-precision arithmetic.
    """


class DomainError(ValueError):
    """Operation called outside its supported parameter domain."""


@dataclass(frozen=True)
class QuadratureSettings:
    """Tolerances of every quadrature.

    An integral is accepted once its error estimate is at most
    max(abs_tol, rel_tol * |integral|).
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-8

    def __post_init__(self):
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise ValueError("tolerances must be > 0")


DEFAULT_QUADRATURE = QuadratureSettings()

# binom(K, K/2) approaches 1/eps near K = 64; beyond that the
# alternating sums cancel below double precision
MAX_SUBCARRIERS_EXACT = 64


# The radial range ends where exp(-c r**alpha) has fallen e**-_CUT_NATS
# below the kernel's peak bound exp(-2c (r_sd/2)**alpha); the cs of a
# call share one grid, cut at the largest cut, the smallest c's.
_CUT_NATS = 40.0
# Nodes per panel of the first coarse rule; the rule it is checked
# against, whose value is returned, has twice as many. The nodes double
# while an integral misses its tolerance, up to _MAX_NODES per panel (the
# first level, of 32, always runs).
_FIRST_NODES = 16
_MAX_NODES = 200
# Grid values evaluated at once over a call's shared grid: keeps the
# batch buffer near 256 kB.
_BATCH_NODES = 2**15
# Floor of exp's argument in each rule, above where numpy's vector exp
# leaves its fast path (about -707.5).
_EXP_FLOOR = -700.0


def _exponent(r, cos_theta, alpha: float, r_sd: float):
    """r**alpha + r_mD**alpha at (r, theta): times c = n*s/(P_t/N_0), minus
    the log of the probability that a relay there clears both hops on n
    subcarriers. Broadcasts over arrays."""
    r2 = r * r
    rmd2 = np.maximum(r_sd * r_sd + r2 - 2.0 * r_sd * r * cos_theta, 0.0)
    return r2 ** (alpha / 2.0) + rmd2 ** (alpha / 2.0)


@lru_cache(maxsize=8)
def _legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights of n points on [0, 1]."""
    x, w = special.roots_legendre(n)
    return 0.5 * (x + 1.0), 0.5 * w


def _panel_rule(edges: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights, n per panel between consecutive edges; panels of
    zero width are left out."""
    x, w = _legendre(n)
    width = edges[1:] - edges[:-1]
    keep = width > 0
    start, width = edges[:-1][keep, None], width[keep, None]
    return (start + width * x).ravel(), (width * w).ravel()


class _Rule:
    """One tensor rule over [0, outer] x [0, pi]: the exponent table
    r**alpha + r_mD**alpha on its (r, theta) grid, radial weights
    r * w_r and angular weights; the c-independent part of a rule,
    shared read-only by every c and every call that ends at the same
    radius."""

    def __init__(self, exponent: np.ndarray, rw: np.ndarray,
                 w_theta: np.ndarray):
        self.exponent, self.rw, self.w_theta = exponent, rw, w_theta
        for part in (exponent, rw, w_theta):
            part.flags.writeable = False

    @cached_property
    def moment_table(self) -> np.ndarray:
        """[w, e w, e**2 w] over the flattened grid, e the exponent and
        w the product weight: the derivative pass's rows are one product
        of exp(-c e) with it. Built on first use, from the same entry,
        into one array, with e**2 w as (e e) w."""
        e = self.exponent.ravel()
        table = np.empty((3, e.size))
        w = table[0]
        np.multiply.outer(self.rw, self.w_theta,
                          out=w.reshape(self.exponent.shape))
        np.multiply(e, w, out=table[1])
        np.multiply(e, e, out=table[2])
        table[2] *= w
        table.flags.writeable = False
        return table


@lru_cache(maxsize=8)
def _grid(alpha: float, r_sd: float, outer: float, n: int) -> _Rule:
    """The rule of n nodes per panel over [0, outer] x [0, pi]."""
    # radial panel ends: the kernel peaks near r_sd/2 for large c,
    # r_mD**alpha has its kink at r_sd, and outer/4 bounds the far-field
    # panel at small c
    r, w_r = _panel_rule(np.minimum(
        [0.0, 0.5 * r_sd, r_sd, max(r_sd, 0.25 * outer), outer], outer), n)
    # more angular nodes towards theta = 0, where the mass gathers as c grows
    theta, w_theta = _panel_rule(np.array([0.0, math.pi / 4.0, math.pi]), n)
    return _Rule(_exponent(r[:, None], np.cos(theta), alpha, r_sd),
                 r * w_r, w_theta)


def _integrate(region: Region, cs, params: SystemParams,
               q: QuadratureSettings, what: str,
               h=lambda g: (g,), slopes=(1.0,), moments: int = 0
               ) -> np.ndarray:
    """Integrals of r * h(g) over the half region, [0, pi] in theta, for
    each c of cs, where g = exp(x) and x = -c * (r**alpha + r_mD**alpha).

    h maps grid values of g to those of one or more integrands, the j-th
    at most slopes[j] * g. moments = m (at most 2) asks for the
    derivative pass instead: the row of g and m more, the integrals of
    r * x**j * g for j = 1..m, c**j times the j-th derivative in c of
    the integral of r * g, all from one product of exp(-c e), e the
    exponent, with the rule's table [w, e w, e**2 w]; h and slopes keep
    their defaults there. Returns shape (len(slopes) + m, len(cs)). All
    cs share one grid, cut at the largest of their cuts. The error
    estimate is the difference against the rule with half the nodes plus
    a closed-form bound on the cut-off tail at that cut: slopes[j] times
    that of g for the rows of h, and one from the upper incomplete gamma
    function for the moment rows. Every row must meet the tolerance.
    While one is above it the nodes are doubled, up to _MAX_NODES per
    panel, beyond which QuadratureError is raised.

    Each rule evaluates g in one buffer, allocated per rule and reused
    by its batches, from x floored at _EXP_FLOOR = -700, which keeps
    numpy's vector exp on its fast path (it slows 15-20 fold just below
    about -707.5). Where g would be below e**-700 it reads e**-700, so
    the j-th row of h moves by at most slopes[j] * e**-700 times the
    grid's half-area pi outer**2 / 2, below the last bit of any integral
    above about 1e-280, and moment row j by at most e**-700 times the
    half-area times the largest |x|**j on the grid.
    """
    alpha, r_sd = params.path_loss, params.r_sd
    radius = region.outer_radius()
    cs = np.asarray(cs, dtype=float)
    with np.errstate(divide="ignore"):
        cut = (_CUT_NATS / cs + 2.0 * (0.5 * r_sd) ** alpha) ** (1.0 / alpha)
    outer = float(np.minimum(radius, cut.max()))
    tail = np.zeros((len(slopes) + moments, cs.size))
    if outer < radius:
        # Past the cut y = c (r**alpha + r_mD**alpha) >= c r**alpha >=
        # X = c outer**alpha >= _CUT_NATS, where y**j e**-y falls with y,
        # so the tail of |x**j| g is at most
        # pi int_outer^inf r (c r**alpha)**j exp(-c r**alpha) dr
        #     = pi Gamma(2/alpha + j, X) / (alpha c**(2/alpha)).
        # As Gamma(a, X) <= X**(a-1) e**-X max(1, X / (X - a + 1)), the
        # bound of g (j = 0, a <= 1) is pi outer**(2-alpha) e**-X / (alpha c)
        # and that of x**j g is X**j X / (X - 2/alpha - j + 1) times it.
        x_cut = cs * outer**alpha
        g_tail = (math.pi * outer ** (2.0 - alpha) * np.exp(-x_cut)
                  / (alpha * cs))
        tail[:len(slopes)] = np.outer(slopes, g_tail)
        for j in range(1, moments + 1):
            tail[len(slopes) + j - 1] = (g_tail * x_cut ** (j + 1)
                                         / (x_cut - 2.0 / alpha - j + 1.0))

    powers = np.arange(moments + 1)[:, None]

    def rule(n: int) -> np.ndarray:
        grid = _grid(alpha, r_sd, outer, n)
        step = max(1, _BATCH_NODES // grid.exponent.size)
        buf = np.empty((min(step, cs.size),) + grid.exponent.shape)
        parts = []
        for at in (slice(i, i + step) for i in range(0, cs.size, step)):
            g = buf[:len(cs[at])]
            np.multiply(-cs[at, None, None], grid.exponent, out=g)
            np.maximum(g, _EXP_FLOOR, out=g)
            np.exp(g, out=g)
            if moments:
                # row j: (-c)**j times the weighted sum of e**j g
                parts.append(grid.moment_table[:moments + 1]
                             @ g.reshape(len(g), -1).T * (-cs[at]) ** powers)
            else:
                parts.append([(v @ grid.w_theta * grid.rw).sum(axis=-1)
                              for v in h(g)])
        return np.concatenate(parts, axis=1)

    n, coarse = 2 * _FIRST_NODES, rule(_FIRST_NODES)
    while True:
        fine = rule(n)
        error = np.abs(fine - coarse) + tail
        excess = error / np.maximum(q.abs_tol, q.rel_tol * np.abs(fine))
        if (excess <= 1.0).all():
            return fine
        if 2 * n > _MAX_NODES:
            worst = np.unravel_index(np.argmax(excess), excess.shape)
            raise QuadratureError(
                f"{what} missed its tolerance with {n} nodes per panel",
                float(fine[worst]), float(error[worst]))
        n, coarse = 2 * n, fine


@lru_cache(maxsize=4096)
def _u_values(region: Region, ns: tuple[float, ...], params: SystemParams,
              q: QuadratureSettings) -> tuple[float, ...]:
    """u(n) for each n of ns from one integrator pass; cached, so that
    sweeps reuse them across densities. Every u the outage formulas use
    comes from here: the batch (1..K) of `_u_batch` at K <= the cap, and
    a lone (n,) for `u`, a real K and K past the cap. Each n must be at
    least 0, and above 0 on the plane, else DomainError."""
    cs = [n * params.threshold / params.snr_budget for n in ns]
    if region.kind == "plane" and min(cs) <= 0:
        raise DomainError("plane integral diverges for n <= 0")
    for n in ns:
        if not n >= 0:  # NaN fails too
            raise DomainError(f"u(n) needs n >= 0, got {n!r}")
    return tuple(_integrate(region, cs, params, q,
                            f"u over the {region.kind}")[0].tolist())


# entries the store keeps per configuration
_STORE_SIZE = 512


@lru_cache(maxsize=8)
def _store(region: Region, params: SystemParams,
           q: QuadratureSettings) -> dict:
    """u, u' and u'' of one configuration by n: the optimiser's one source
    of u, filled by `_u_derivatives`. Kept per n, so that a sweep's later
    rounds (the ceilings of one density share its peak search) and later
    sweeps reuse every pass; the 8 configurations used last are kept."""
    return {}


def _u_derivatives(region: Region, ns, params: SystemParams,
                   q: QuadratureSettings) -> list[tuple[float, float, float]]:
    """u(n), u'(n) and u''(n) for each n of ns, from the store; the ns it
    lacks are integrated together, in one derivative pass. With
    x = -c (r**alpha + r_mD**alpha), u' = int r x g / n and
    u'' = int r x**2 g / n**2.

    The configuration's dict of n is looked up once per call, and trimmed
    to its _STORE_SIZE newest entries, oldest integrated first; a read
    does not renew an entry. An entry's last bits depend on the pass that
    computed it: the same n integrated alone or in a batch, even on the
    same grid, can differ in its last bits, as the BLAS reduction over
    the grid changes with the batch width. So a sweep and the one-density
    solves it batches agree to about 1e-9 in K_relaxed, not bit for bit.
    """
    known = _store(region, params, q)
    missing = [n for n in dict.fromkeys(ns) if n not in known]
    if missing:
        n = np.asarray(missing, dtype=float)
        u, first, second = _integrate(region, n * params.threshold
                                      / params.snr_budget, params, q,
                                      f"u and its derivatives over the "
                                      f"{region.kind}", moments=2)
        known.update(zip(missing, zip(u.tolist(), (first / n).tolist(),
                                      (second / (n * n)).tolist())))
    values = [known[key] for key in ns]
    while len(known) > _STORE_SIZE:
        del known[next(iter(known))]
    return values


@lru_cache(maxsize=256)
def _delta_table(params: SystemParams, region: Region,
                 q: QuadratureSettings) -> tuple[float, ...]:
    """Delta(1..K), the integrals of 1 - F**k - (1-F)**K over the whole
    region, from one evaluation of the kernel on the grid."""
    big_k = params.subcarriers

    def integrands(g):
        # 1 - f**k - g**K with f = 1 - g, in a form that keeps 1 - f**k
        # accurate where g is small
        log_f, g_big_k = np.log1p(-g), g**big_k
        return (-np.expm1(k * log_f) - g_big_k for k in range(1, big_k + 1))

    # each integrand is at most k * g, which bounds its cut-off tail; the
    # factor 2 covers the half-plane theta in [pi, 2pi)
    c = params.threshold / params.snr_budget
    return tuple((2.0 * _integrate(region, (c,), params, q, "delta_k",
                                   integrands, range(1, big_k + 1))[:, 0]
                  ).tolist())


def u(n: float, params: SystemParams, region: Region,
      q: QuadratureSettings = DEFAULT_QUADRATURE) -> float:
    """Integral of H(n) over the half region, [0, pi] in theta."""
    return _u_values(region, (n,), params, q)[0]


def _u_batch(params: SystemParams, region: Region,
             q: QuadratureSettings) -> tuple[float, ...]:
    """u(1..K), K = params.subcarriers, from one pass: the batch that
    Phi_ps sums and Phi_bulk reads u(K) from."""
    return _u_values(region, tuple(range(1, params.subcarriers + 1)),
                     params, q)


def log_outage_bulk(params: SystemParams, region: Region, density: float,
                    q: QuadratureSettings = DEFAULT_QUADRATURE,
                    subcarriers: float | None = None) -> float:
    """Natural log of the bulk outage probability (underflow-safe).

    u(K) is the last entry of the batch u(1..K) that `outage_ps` sums, so
    a configuration asking for both schemes integrates once, and its bulk
    value depends on the configuration alone, not on which scheme ran
    first. Past MAX_SUBCARRIERS_EXACT, where no Phi_ps exists, u(K) is
    integrated alone; so is u(subcarriers), which overrides
    params.subcarriers and may be real (relaxed K).
    """
    check_density(density)
    if subcarriers is None and params.subcarriers <= MAX_SUBCARRIERS_EXACT:
        u_k = _u_batch(params, region, q)[-1]
    else:
        n = params.subcarriers if subcarriers is None else subcarriers
        u_k = u(n, params, region, q)
    return -2.0 * density * u_k


def outage_bulk(params: SystemParams, region: Region, density: float,
                q: QuadratureSettings = DEFAULT_QUADRATURE,
                subcarriers: float | None = None) -> float:
    """Bulk-selection outage probability over either region."""
    return math.exp(log_outage_bulk(params, region, density, q, subcarriers))


@lru_cache(maxsize=128)
def _signed_binomials(big_k: int) -> tuple[int, ...]:
    """binom(K, k) (-1)**(k+1) for k = 1..K, as exact integers. Every
    alternating sum takes its binomials here, so K is capped here."""
    if big_k > MAX_SUBCARRIERS_EXACT:
        raise NumericalInstabilityError(
            f"subcarrier count {big_k} exceeds the double-precision "
            f"cancellation limit {MAX_SUBCARRIERS_EXACT}")
    return tuple(math.comb(big_k, k) * (-1) ** (k + 1)
                 for k in range(1, big_k + 1))


def _inclusion_exclusion(values) -> list[float]:
    """binom(K, k) (-1)**(k+1) values[k-1] for k = 1..K, K = len(values)."""
    return [b * v for b, v in zip(_signed_binomials(len(values)), values)]


def _exp_inclusion_exclusion(rates) -> float:
    """The inclusion-exclusion sum of exp(-rates[k-1]) over k = 1..K,
    K = len(rates), guarded against cancellation: Phi_ps and the ratio
    phi both lie in [0, 1], so a sum outside it by more than its rounding
    slack raises NumericalInstabilityError; within it, it is clamped. A
    rate so negative that exp(-rate) overflows, an inner sum S(k) that
    cancelled, raises it too."""
    try:
        terms = _inclusion_exclusion([math.exp(-rate) for rate in rates])
    except OverflowError:
        raise NumericalInstabilityError(
            f"alternating sum's exponent {-min(rates)!r} overflows a double; "
            f"reduce the subcarrier count or tighten quadrature tolerances"
        ) from None
    total = math.fsum(terms)
    slack = 1e-12 + 1e-15 * max(abs(t) for t in terms)
    if total < -slack or total > 1.0 + slack:
        raise NumericalInstabilityError(
            f"alternating sum left [0, 1] ({total!r}); reduce the subcarrier "
            f"count or tighten quadrature tolerances")
    return min(max(total, 0.0), 1.0)


@lru_cache(maxsize=64)
def _inner_sums(u: tuple[float, ...]) -> tuple[float, ...]:
    """S(k), the inclusion-exclusion sum of u(1..k), for k = 1..len(u),
    exact and rounded once; cached, as sweeps reuse them across densities.

    S(k) = D^k g(0), D g(j) = g(j) - g(j + 1), g = (0, -u(1), ..., -u(K)),
    taken in integers over the largest denominator of the u (a power of
    2), and int / int rounds correctly. An exact sum is still only as
    good as u's last bits, which the binomials amplify, so a large K can
    still leave [0, 1] in `_exp_inclusion_exclusion`."""
    _signed_binomials(len(u))  # the subcarrier cap
    ratios = [x.as_integer_ratio() for x in u]
    scale = max(d for _, d in ratios)
    row, sums = [0, *(-n * (scale // d) for n, d in ratios)], []
    for _ in u:
        row = [a - b for a, b in zip(row, row[1:])]
        sums.append(row[0] / scale)
    return tuple(sums)


def _outage_ps_from_u(density: float, u: tuple[float, ...]) -> float:
    """Per-subcarrier outage from u(1..K): the inclusion-exclusion sum of
    exp(-2 density S(k)) over k."""
    return _exp_inclusion_exclusion([2.0 * density * s
                                     for s in _inner_sums(u)])


def outage_ps(params: SystemParams, region: Region, density: float,
              q: QuadratureSettings = DEFAULT_QUADRATURE) -> float:
    """Per-subcarrier outage probability over either region."""
    check_density(density)
    return _outage_ps_from_u(density, _u_batch(params, region, q))


def _u_freespace(params: SystemParams, n: float) -> float:
    """Closed-form u(n) over the plane at alpha = 2."""
    if params.path_loss != 2:
        raise DomainError("closed form requires path_loss == 2")
    ns = n * params.threshold
    return (math.pi * params.snr_budget / (4.0 * ns)
            * math.exp(-params.r_sd**2 * ns / (2.0 * params.snr_budget)))


def log_outage_bulk_plane_freespace(params: SystemParams,
                                    density: float) -> float:
    """Log of the free-space (alpha=2) plane bulk closed form."""
    return -2.0 * density * _u_freespace(params, params.subcarriers)


def outage_bulk_plane_freespace(params: SystemParams, density: float) -> float:
    """Free-space (alpha=2) closed form of the plane bulk outage."""
    return math.exp(log_outage_bulk_plane_freespace(params, density))


def outage_ps_plane_freespace(params: SystemParams, density: float) -> float:
    """Free-space (alpha=2) closed form of the plane per-subcarrier outage."""
    return _outage_ps_from_u(density, tuple(
        _u_freespace(params, n) for n in range(1, params.subcarriers + 1)))


def tau_alpha(alpha: float, r_sd: float, region: Region) -> float:
    """Coefficient of the high-SNR expansion: the mean of
    r**alpha + r_mD**alpha over the disc, from the shared grid's exponent
    table over the half-disc area; InfiniteAreaError on the plane."""
    half_area = 0.5 * region.area
    grid = _grid(alpha, r_sd, region.radius, 2 * _FIRST_NODES)
    return float((grid.exponent @ grid.w_theta * grid.rw).sum()) / half_area


def _asymptotic_correction(params: SystemParams, region: Region) -> float:
    tau = tau_alpha(params.path_loss, params.r_sd, region)
    return params.subcarriers * params.threshold * tau / params.snr_budget


def _out_of_range(corr: float) -> DomainError:
    return DomainError("asymptotic expansion leaves double range at "
                       f"K*s*tau/(P_t/N_0) = {corr:.3g}")


def asymptotic_bulk_disc(params: SystemParams, region: Region,
                         density: float) -> float:
    """High-SNR expansion of the disc bulk outage."""
    check_density(density)
    corr = _asymptotic_correction(params, region)
    try:
        # (-density pi) r**2, not -density region.area: the other rounding
        # moves some sweeps' values in their last bit
        value = math.exp(-density * math.pi * region.radius**2 * (1.0 - corr))
    except OverflowError:
        raise _out_of_range(corr) from None
    if corr >= 1:
        warnings.warn("outside the asymptotic validity region "
                      f"(K*s*tau/(P_t/N_0) = {corr:.3g} >= 1)", stacklevel=2)
    return value


def asymptotic_ps_disc(params: SystemParams, region: Region,
                       density: float) -> float:
    """High-SNR expansion of the disc per-subcarrier outage.

    Raw: outside its validity region it can leave [floor, 1], which a
    warning flags, or double range, a DomainError; nothing is clamped.
    """
    check_density(density)
    tau = tau_alpha(params.path_loss, params.r_sd, region)
    area = region.area
    floor = math.exp(-density * area)
    try:
        value = floor * (1.0 - params.subcarriers * (1.0 - math.exp(
            density * area * params.threshold * tau / params.snr_budget)))
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise _out_of_range(_asymptotic_correction(params, region))
    if not (floor <= value <= 1.0):
        warnings.warn(f"per-subcarrier asymptotic left [floor, 1] "
                      f"({value!r}); outside its validity region",
                      stacklevel=2)
    return value


def outage_floor(density: float, area: float) -> float:
    """Void probability exp(-density * area): the scheme-independent floor."""
    if not (0 < area < math.inf):
        raise ValueError("area must be finite and positive")
    check_density(density)
    return math.exp(-density * area)


def lower_incomplete_gamma(a: float, x: float) -> float:
    """Unregularised lower incomplete gamma integral_0^x t**(a-1) e**-t dt."""
    if not a > 0:
        raise ValueError("a must be > 0")
    if not x >= 0:
        raise ValueError("x must be >= 0")
    return float(special.gammainc(a, x) * special.gamma(a))


def exp_integral_E(nu: float, x: float) -> float:
    """Generalised exponential integral integral_1^inf e**(-x t) / t**nu dt
    for real order nu <= 1 (the diversity bound takes (alpha-2)/alpha)
    and x > 0. For nu < 1 it is x**(nu-1) * Gamma(1-nu) * Q(1-nu, x), Q
    the regularised upper incomplete gamma function. Values below double
    range (x beyond about 708) may read 0.
    """
    if not x > 0:
        raise ValueError("x must be > 0")
    if not nu <= 1:
        raise DomainError(f"exp_integral_E takes orders nu <= 1, got {nu}")
    if nu == 1:
        return float(special.exp1(x))
    return float(x ** (nu - 1.0) * special.gamma(1.0 - nu)
                 * special.gammaincc(1.0 - nu, x))
