import math
import os
import subprocess
import sys
import warnings
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate, special

import relayfield
import relayfield.analytic
from relayfield import (
    DEFAULT_QUADRATURE,
    ConfigurationError,
    DomainError,
    InfiniteAreaError,
    NumericalInstabilityError,
    QuadratureError,
    QuadratureSettings,
    Region,
    SystemParams,
    asymptotic_bulk_disc,
    asymptotic_ps_disc,
    exp_integral_E,
    log_outage_bulk,
    lower_incomplete_gamma,
    outage_bulk,
    outage_bulk_plane_freespace,
    outage_floor,
    outage_ps,
    outage_ps_plane_freespace,
    tau_alpha,
    u,
)
from relayfield.analytic import (
    _BATCH_NODES,
    _CUT_NATS,
    _delta_table,
    _exponent,
    _grid,
    _inner_sums,
    _integrate,
    _panel_rule,
    _outage_ps_from_u,
    _store,
    _u_derivatives,
    _u_freespace,
    _u_values,
)
from relayfield.cli import main
from reference import integrand_H, quad

TIGHT = QuadratureSettings(abs_tol=1e-300, rel_tol=1e-13)


def _mc_integral(kernel, r_max, samples, seed):
    """Plain Monte Carlo oracle for the half-domain integrals.

    Integrates kernel(r, theta) over [0, r_max] x [0, pi] in chunks,
    returning the estimate and its standard error.
    """
    rng = np.random.default_rng(seed)
    total = total_sq = 0.0
    n = 0
    chunk = 2_000_000
    while n < samples:
        r = r_max * rng.random(chunk)
        theta = math.pi * rng.random(chunk)
        h = kernel(r, theta)
        total += h.sum()
        total_sq += (h * h).sum()
        n += chunk
    area = r_max * math.pi
    mean = total / n
    se = area * math.sqrt((total_sq / n - mean * mean) / n)
    return area * mean, se


def test_integrand_examples(params):
    assert integrand_H(1.0, 0.0, 0.0, params) == 0.0
    # r = 5, theta = pi/2: r_md**2 = 50
    got = integrand_H(1.0, 5.0, math.pi / 2, params)
    assert got == pytest.approx(5.0 * math.exp(-0.75), rel=1e-12)
    # scaling n doubles the exponent
    assert integrand_H(2.0, 5.0, math.pi / 2, params) == pytest.approx(
        5.0 * math.exp(-1.5), rel=1e-12)
    with pytest.raises(ValueError):
        integrand_H(1.0, -1.0, 0.0, params)
    # arrays broadcast to the scalar values
    r, theta = np.array([[0.0], [5.0]]), np.array([0.0, math.pi / 2])
    assert np.array_equal(integrand_H(1.0, r, theta, params), [
        [integrand_H(1.0, float(a), float(b), params) for b in theta]
        for a in r[:, 0]])
    with pytest.raises(ValueError):
        integrand_H(1.0, np.array([1.0, -1.0]), 0.0, params)


def test_u_disc_degenerate_and_monotone(params):
    # n = 0 kills the exponential, leaving the half-disc area
    assert u(0.0, params, Region.disc(5.0)) == pytest.approx(
        math.pi * 12.5, rel=1e-10)
    values = [u(n, params, Region.disc(5.0))
              for n in (0.0, 1.0, 2.0, 4.0, 8.0)]
    assert all(a > b for a, b in zip(values, values[1:]))
    with pytest.raises(ValueError):
        u(1.0, params, Region.disc(0.0))


def test_u_disc_against_monte_carlo(params):
    def kernel(r, theta):
        r_md2 = 25.0 + r * r - 10.0 * r * np.cos(theta)
        return r * np.exp(-0.04 * (r * r + r_md2))

    est, se = _mc_integral(kernel, 5.0, 40_000_000, seed=2024)
    quad = u(4.0, params, Region.disc(5.0))
    assert abs(quad - est) < max(3 * se, 1e-4 * quad)
    assert quad == pytest.approx(8.705482784086396, rel=1e-9)


def test_u_plane_against_monte_carlo():
    # alpha = 4 exercises the plane's radial cut-off away from the
    # free-space closed form; the kernel is negligible beyond r = 8
    p = SystemParams(snr_budget=100.0, path_loss=4.0, threshold=1.0,
                     subcarriers=4, r_sd=5.0)

    def kernel(r, theta):
        r_md2 = 25.0 + r * r - 10.0 * r * np.cos(theta)
        return r * np.exp(-0.01 * (r**4 + r_md2 * r_md2))

    est, se = _mc_integral(kernel, 8.0, 20_000_000, seed=77)
    quad = u(1.0, p, Region.plane())
    assert abs(quad - est) < max(3 * se, 1e-4 * quad)
    with pytest.raises(DomainError):
        u(0.0, p, Region.plane())


@pytest.mark.parametrize("c", [0.3, 0.4])
def test_tiny_u_keeps_its_relative_accuracy(c):
    # u is 8e-12 and 2e-15 here, below the default abs_tol of 1e-10; a
    # nested quad at the default tolerances was 8 % and 36 % off
    p = SystemParams(snr_budget=1.0, path_loss=4.0, threshold=1.0,
                     subcarriers=4, r_sd=5.0)
    tight = QuadratureSettings(abs_tol=1e-300, rel_tol=1e-12)

    def angular(theta):
        # the kernel is below exp(-3000) beyond r = 10
        return quad(lambda r: r * math.exp(-c * (
            r**4 + (25.0 + r * r - 10.0 * r * math.cos(theta)) ** 2)),
            0.0, 10.0, tight, "radial")

    oracle = quad(angular, 0.0, math.pi, tight, "angular")
    assert u(c, p, Region.plane()) == pytest.approx(oracle, rel=1e-10, abs=0.0)


@pytest.mark.parametrize("n", [1.0, 4.0, 40.0, 320.0])
def test_u_disc_matches_the_bessel_oracle(params, n):
    # at alpha = 2 the angular integral is pi * I0(2 c r r_sd), which
    # leaves a 1-D radial integral; n = 320 gives u near 1e-18
    c = n * params.threshold / params.snr_budget
    tight = QuadratureSettings(abs_tol=1e-300, rel_tol=1e-13)
    oracle = quad(lambda r: math.pi * r
                   * math.exp(-c * (r * r + (r - 5.0) ** 2))
                   * special.i0e(2.0 * c * r * 5.0),
                   0.0, 5.0, tight, "bessel oracle")
    assert u(n, params, Region.disc(5.0)) == pytest.approx(
        oracle, rel=1e-12, abs=0.0)


@contextmanager
def _first_rule_only():
    """The integrator capped at its first level, 32 nodes per panel. The
    cap is no part of a cache key, so the u cache is emptied around it."""
    _u_values.cache_clear()
    try:
        with pytest.MonkeyPatch.context() as m:
            m.setattr(relayfield.analytic, "_MAX_NODES", 32)
            yield
    finally:
        _u_values.cache_clear()


@pytest.mark.parametrize("c", [1e-4, 1e-3, 1e-2])
def test_first_rule_resolves_the_wide_plane_kernel(c):
    # small c spreads the kernel out to r ~ c**-0.5; the far-field panel
    # keeps the first coarse rule within 1e-10, so no refinement is needed
    p = SystemParams(snr_budget=1.0, path_loss=2.0, threshold=1.0,
                     subcarriers=4, r_sd=5.0)
    strict = QuadratureSettings(abs_tol=1e-300, rel_tol=1e-10)
    with _first_rule_only():
        first = u(c, p, Region.plane(), strict)
    assert first == pytest.approx(u(c, p, Region.plane()), rel=1e-12,
                                  abs=0.0)


def test_integrator_raises_with_its_estimate_past_the_cap():
    # c = 3.2 at alpha = 4 is too peaked to meet rel_tol 1e-12 within
    # 32 nodes per panel; the estimate is still close
    p = SystemParams(snr_budget=10.0, path_loss=4.0, threshold=1.0,
                     subcarriers=32, r_sd=5.0)
    strict = QuadratureSettings(abs_tol=1e-300, rel_tol=1e-12)
    with _first_rule_only(), pytest.raises(QuadratureError) as caught:
        u(32.0, p, Region.plane(), strict)
    assert caught.value.estimate == pytest.approx(3.0228e-111, rel=1e-3,
                                                  abs=0.0)
    assert caught.value.error > 1e-12 * caught.value.estimate
    assert u(32.0, p, Region.plane()) == pytest.approx(
        caught.value.estimate, rel=1e-3, abs=0.0)


@pytest.mark.parametrize("alpha, big_k, snr", [
    (4.0, 32, 10.0), (4.0, 32, 1000.0), (2.0, 16, 10.0), (2.0, 16, 1000.0)])
def test_shared_grid_keeps_every_u_within_tolerance(alpha, big_k, snr):
    # u(1..K) share the grid cut for u(1); each must still meet the
    # default tolerances against a tight per-n integral, or at alpha = 2
    # against the closed form
    p = SystemParams(snr_budget=snr, path_loss=alpha, threshold=1.0,
                     subcarriers=big_k, r_sd=5.0)
    ns = tuple(range(1, big_k + 1))
    batched = _u_values(Region.plane(), ns, p, DEFAULT_QUADRATURE)
    if alpha == 2.0:
        refs = [_u_freespace(p, n) for n in ns]
    else:
        tight = QuadratureSettings(abs_tol=1e-300, rel_tol=1e-12)
        refs = [_u_values(Region.plane(), (n,), p, tight)[0] for n in ns]
    q = DEFAULT_QUADRATURE
    for got, ref in zip(batched, refs):
        assert abs(got - ref) <= max(q.abs_tol, q.rel_tol * abs(ref))


def _unfloored_rule(key, cs, h=lambda g: (g,), moments=0) -> np.ndarray:
    """One rule of `_integrate` on the grid `_grid(*key)`, with exp taken
    out of place on the raw argument, so far nodes underflow freely; the
    same batches and reductions as the integrator."""
    grid = _grid(*key)
    cs = np.asarray(cs, dtype=float)
    powers = np.arange(moments + 1)[:, None]
    step = max(1, _BATCH_NODES // grid.exponent.size)
    parts = []
    for at in (slice(i, i + step) for i in range(0, cs.size, step)):
        if moments:
            g = np.exp(-cs[at, None] * grid.exponent.ravel())
            parts.append(grid.moment_table[:moments + 1] @ g.T
                         * (-cs[at]) ** powers)
        else:
            g = np.exp(-cs[at, None, None] * grid.exponent)
            parts.append([(v @ grid.w_theta * grid.rw).sum(axis=-1)
                          for v in h(g)])
    return np.concatenate(parts, axis=1)


def _integrate_against_unfloored(region, cs, params, **kwargs):
    """`_integrate`'s result, the unfloored rule at the grid it returned
    from, and that grid's key (alpha, r_sd, outer, n)."""
    keys = []

    def recording(*key):
        keys.append(key)
        return _grid(*key)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(relayfield.analytic, "_grid", recording)
        got = _integrate(region, cs, params, DEFAULT_QUADRATURE, "u",
                         **kwargs)
    ref = _unfloored_rule(keys[-1], cs, kwargs.get("h", lambda g: (g,)),
                          kwargs.get("moments", 0))
    return got, ref, keys[-1]


@pytest.mark.parametrize("snr", [10.0, 100.0, 1000.0])
@pytest.mark.parametrize("alpha, big_k", [(4.0, 32), (2.0, 16)])
@pytest.mark.parametrize("batch", ["u(1..K)", "u(K)"])
def test_exp_floor_leaves_the_plane_u_bitwise(alpha, big_k, snr, batch):
    # exp's argument is floored at -700, where g is below 1e-304; no u
    # here moves by a bit, though u(1..K) floors 3-50 % of its nodes
    p = SystemParams(snr_budget=snr, path_loss=alpha, threshold=1.0,
                     subcarriers=big_k, r_sd=5.0)
    ns = range(1, big_k + 1) if batch == "u(1..K)" else (big_k,)
    cs = np.array([n / snr for n in ns])
    got, ref, key = _integrate_against_unfloored(Region.plane(), cs, p)
    assert (got == ref).all()
    if batch == "u(1..K)":
        assert (cs[:, None, None] * _grid(*key).exponent > 700.0).any()


def test_exp_floor_leaves_the_disc_u_bitwise():
    # the grid ends at u(1)'s cut, r = 7.99, inside the disc of radius 8,
    # so u(16) floors a tenth of its nodes
    p = SystemParams(snr_budget=100.0, path_loss=4.0, threshold=1.0,
                     subcarriers=16, r_sd=5.0)
    cs = np.arange(1, 17) / 100.0
    got, ref, key = _integrate_against_unfloored(Region.disc(8.0), cs, p)
    assert (got == ref).all()
    assert (cs[:, None, None] * _grid(*key).exponent > 700.0).any()


def test_exp_floor_leaves_the_moment_rows_bitwise(tmp_path):
    # every derivative pass of fig7, re-run against the unfloored rule
    _u_values.cache_clear()
    _store.cache_clear()
    passes = []

    def recording(region, cs, params, *args, moments=0, **kwargs):
        passes.append((region, np.array(cs, dtype=float), params))
        return _integrate(region, cs, params, *args, moments=moments,
                          **kwargs)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(relayfield.analytic, "_integrate", recording)
        assert main(["--mode", "figure", "--figure", "fig7",
                     "--output", str(tmp_path / "fig7.csv")]) == 0
    assert passes
    for region, cs, params in passes:
        got, ref, _ = _integrate_against_unfloored(region, cs, params,
                                                   moments=2)
        assert got.shape == (3, cs.size) and (got == ref).all()


@pytest.mark.parametrize("region, big_k", [
    (Region.plane(), 8), (Region.disc(5.0), 4)])
def test_exp_floor_leaves_the_delta_integrands_bitwise(region, big_k):
    p = SystemParams(snr_budget=100.0, path_loss=2.0, threshold=1.0,
                     subcarriers=big_k, r_sd=5.0)
    calls = []

    def recording(*args, **kwargs):
        calls.append(args)
        return _integrate(*args, **kwargs)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(relayfield.analytic, "_integrate", recording)
        _delta_table.__wrapped__(p, region, DEFAULT_QUADRATURE)
    (_, cs, _, _, _, h, slopes), = calls
    got, ref, _ = _integrate_against_unfloored(region, cs, p, h=h,
                                               slopes=slopes)
    assert got.shape == (big_k, 1) and (got == ref).all()


def test_exp_floor_bounds_a_wholly_underflowing_integral():
    # at c = 1000 every node's argument is below -12,000: the unfloored
    # rule reads 0 and the floored one e**-700 times the grid's half-area,
    # the bound the floor puts on any integral's move
    p = SystemParams(snr_budget=1e-3, path_loss=2.0, threshold=1.0,
                     subcarriers=1, r_sd=5.0)
    (got,), (ref,), key = _integrate_against_unfloored(Region.disc(5.0),
                                                       (1000.0,), p)
    half_area = 0.5 * math.pi * key[2] ** 2
    assert ref[0] == 0.0
    assert got[0] == pytest.approx(math.exp(-700.0) * half_area,
                                   rel=1e-12, abs=0.0)
    assert abs(got[0] - ref[0]) <= math.exp(-700.0) * half_area * (1 + 1e-12)


def test_cold_u_reuses_the_disc_grid():
    # the disc's grid ends at its radius for every n, so only the first
    # cold u builds it
    p = SystemParams(snr_budget=37.0, path_loss=2.0, threshold=1.0,
                     subcarriers=4, r_sd=5.0)
    _grid.cache_clear()
    u(1.25, p, Region.disc(5.0))
    built = _grid.cache_info()
    assert built.misses > 0
    u(2.5, p, Region.disc(5.0))
    after = _grid.cache_info()
    assert after.misses == built.misses and after.hits > built.hits


def _rule_from_scratch(alpha, r_sd, outer, n):
    """exponent, rw, w_theta and moment_table of _grid's rule, each built
    afresh: the angular rule recomputed and the table stacked row by row."""
    r, w_r = _panel_rule(np.minimum(
        [0.0, 0.5 * r_sd, r_sd, max(r_sd, 0.25 * outer), outer], outer), n)
    theta, w_theta = _panel_rule(np.array([0.0, math.pi / 4.0, math.pi]), n)
    exponent = _exponent(r[:, None], np.cos(theta), alpha, r_sd)
    rw = r * w_r
    e, w = exponent.ravel(), np.multiply.outer(rw, w_theta).ravel()
    return exponent, rw, w_theta, np.stack([w, e * w, e * e * w])


@pytest.mark.parametrize("alpha", [2.0, 3.0, 4.0])
@pytest.mark.parametrize("kind", ["disc", "plane"])
@pytest.mark.parametrize("n", [16, 32, 64])
def test_cached_angular_rule_builds_the_same_grid(alpha, kind, n):
    # a grid built after another grid of the same node count, with its
    # moment table written in place, equals a build from scratch array
    # for array, and every array is read-only; the plane's outer radius
    # is the cut of c = 1e-2
    r_sd = 5.0
    outer = 5.0 if kind == "disc" else (
        _CUT_NATS / 1e-2 + 2.0 * (0.5 * r_sd) ** alpha) ** (1.0 / alpha)
    _grid.cache_clear()
    _grid(alpha, r_sd, 2.0 * outer, n)
    rule = _grid(alpha, r_sd, outer, n)
    built = (rule.exponent, rule.rw, rule.w_theta, rule.moment_table)
    for got, ref in zip(built, _rule_from_scratch(alpha, r_sd, outer, n)):
        assert got.shape == ref.shape and np.array_equal(got, ref)
        assert not got.flags.writeable
    assert rule.moment_table.shape == (3, rule.exponent.size)


@pytest.mark.parametrize("n", [0.3, 1.0, 4.0, 13.7])
def test_derivative_rows_match_the_freespace_closed_form(params, n):
    # u = pi P/(4 n s) exp(-B n) with B = s r_sd**2 / (2 P), P = P_t/N_0,
    # so u' = -u (1/n + B) and u'' = u ((1/n + B)**2 + 1/n**2)
    u, du, d2u = _u_derivatives(Region.plane(), (n,), params,
                                DEFAULT_QUADRATURE)[0]
    ref = _u_freespace(params, n)
    b = params.threshold * params.r_sd**2 / (2.0 * params.snr_budget)
    rel = DEFAULT_QUADRATURE.rel_tol
    assert u == pytest.approx(ref, rel=rel, abs=0.0)
    assert du == pytest.approx(-ref * (1.0 / n + b), rel=rel, abs=0.0)
    assert d2u == pytest.approx(ref * ((1.0 / n + b) ** 2 + 1.0 / n**2),
                                rel=rel, abs=0.0)


@pytest.mark.parametrize("alpha,region", [
    (3.0, Region.disc(5.0)), (4.0, Region.disc(5.0)), (4.0, Region.plane())])
@pytest.mark.parametrize("n", [0.5, 2.0, 9.3])
def test_derivative_rows_match_central_differences(params, alpha, region, n):
    # five-point differences of u at tight tolerances with h = 1e-3 n
    # agree to about 3e-10; on the plane the moment rows carry their
    # own cut-off tail bound
    p = SystemParams(snr_budget=params.snr_budget, path_loss=alpha,
                     threshold=params.threshold, subcarriers=4,
                     r_sd=params.r_sd)
    u, du, d2u = _u_derivatives(region, (n,), p, TIGHT)[0]
    h = 1e-3 * n
    f = {i: _u_values(region, (n + i * h,), p, TIGHT)[0]
         for i in (-2, -1, 0, 1, 2)}
    assert u == pytest.approx(f[0], rel=1e-12, abs=0.0)
    assert du == pytest.approx(
        (f[-2] - 8.0 * f[-1] + 8.0 * f[1] - f[2]) / (12.0 * h),
        rel=1e-8, abs=0.0)
    assert d2u == pytest.approx(
        (16.0 * (f[-1] + f[1]) - f[-2] - f[2] - 30.0 * f[0]) / (12.0 * h * h),
        rel=1e-8, abs=0.0)



@pytest.mark.parametrize("alpha", [2.0, 4.0])
@pytest.mark.parametrize("region", [Region.disc(5.0), Region.plane()],
                         ids=["disc", "plane"])
def test_store_hands_over_one_derivative_pass_bitwise(monkeypatch, alpha,
                                                      region):
    # from a cold store, the triples are the rows of one moments=2 pass
    # over the same cs, as u, first / n and second / n**2, bit for bit;
    # a second call, in another order, integrates nothing
    p = SystemParams(snr_budget=100.0, path_loss=alpha, threshold=1.0,
                     subcarriers=4, r_sd=5.0)
    ns = np.array([0.5, 1.0, 2.0, 3.7, 8.0])
    u, first, second = _integrate(region, ns * p.threshold / p.snr_budget,
                                  p, DEFAULT_QUADRATURE, "u", moments=2)
    expected = list(zip(u.tolist(), (first / ns).tolist(),
                        (second / (ns * ns)).tolist()))
    _store.cache_clear()
    calls = []

    def counting(*args, **kwargs):
        calls.append(kwargs["moments"])
        return _integrate(*args, **kwargs)

    monkeypatch.setattr(relayfield.analytic, "_integrate", counting)
    assert _u_derivatives(region, ns.tolist(), p,
                          DEFAULT_QUADRATURE) == expected
    assert calls == [2]
    assert _u_derivatives(region, ns[::-1].tolist(), p,
                          DEFAULT_QUADRATURE) == expected[::-1]
    assert calls == [2]

def test_bulk_outage_spot_values(params, disc):
    assert outage_bulk(params, disc, 1.0) == pytest.approx(
        2.7448191127058575e-08, rel=1e-8)
    assert outage_bulk(params, Region.disc(5.0), 1.0) == pytest.approx(
        math.exp(-2.0 * u(4.0, params, Region.disc(5.0))), rel=1e-12)
    assert log_outage_bulk(params, disc, 1.0) == pytest.approx(
        -2.0 * 8.705482784086396, rel=1e-9)


def test_ps_outage_spot_value(params):
    assert outage_ps(params, Region.disc(5.0), 1.0) == pytest.approx(
        1.2371493662280298e-21, rel=1e-6)


@pytest.mark.parametrize("region", [Region.disc(5.0), Region.plane()],
                         ids=["disc", "plane"])
def test_bulk_outage_reads_u_of_k_from_the_per_subcarrier_batch(
        region, integrations, cold_caches):
    # plane alpha 2, K 16, SNR 1000 is where u(16) alone and in the batch
    # differ in their last bits; either scheme first, bulk is the same
    # value, and each order integrates u(1..16) once
    p = SystemParams(snr_budget=1000.0, path_loss=2.0, threshold=1.0,
                     subcarriers=16, r_sd=5.0)
    bulk = outage_bulk(p, region, 0.5)
    ps = outage_ps(p, region, 0.5)
    cold_caches()
    assert outage_ps(p, region, 0.5) == ps
    assert outage_bulk(p, region, 0.5) == bulk
    assert integrations == [16, 16]
    u_k = relayfield.analytic._u_values(region, tuple(range(1, 17)), p,
                                        DEFAULT_QUADRATURE)[-1]
    assert log_outage_bulk(p, region, 0.5) == -2.0 * 0.5 * u_k
    assert integrations == [16, 16]


def test_bulk_outage_integrates_alone_past_the_cap_or_at_a_real_k(
        integrations):
    # no per-subcarrier outage exists at K 65 to share a batch with, and
    # a relaxed K has no batch
    p = SystemParams(snr_budget=100.0, path_loss=4.0, threshold=1.0,
                     subcarriers=65, r_sd=5.0)
    plane = Region.plane()
    assert log_outage_bulk(p, plane, 1.0) == -2.0 * u(65, p, plane)
    assert log_outage_bulk(p, plane, 1.0, subcarriers=7.5) == (
        -2.0 * u(7.5, p, plane))
    assert integrations == [1, 1]


@pytest.mark.parametrize("region", [Region.disc(5.0), Region.plane()],
                         ids=["disc", "plane"])
@pytest.mark.parametrize("n", [math.nan, -1.0, -math.inf])
def test_u_rejects_nan_and_negative_n(params, region, n):
    # a NaN cut emptied the grid and divided by its size; a negative n
    # on the disc did the same
    with pytest.raises(DomainError):
        u(n, params, region)
    with pytest.raises(DomainError):
        outage_bulk(params, region, 1.0, subcarriers=n)


def test_zero_density_identities(params, disc):
    # no relays at all: both schemes are certainly in outage
    assert outage_bulk(params, disc, 0.0) == 1.0
    assert outage_ps(params, disc, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_ps_collapses_to_bulk_for_single_subcarrier(disc):
    p = SystemParams(snr_budget=100.0, path_loss=2.0, threshold=1.0,
                     subcarriers=1, r_sd=5.0)
    for density in (0.02, 0.1, 0.5):
        assert outage_ps(p, disc, density) == pytest.approx(
            outage_bulk(p, disc, density), rel=1e-10)
        assert outage_ps_plane_freespace(p, density) == pytest.approx(
            outage_bulk_plane_freespace(p, density), rel=1e-10)


def test_ps_below_bulk(params, disc):
    for density in (0.05, 0.2, 1.0):
        assert outage_ps(params, disc, density) <= outage_bulk(
            params, disc, density)


def test_plane_quadrature_matches_freespace_closed_forms(params):
    # two independent routes to the same number: Gauss-Legendre
    # quadrature over the cut-off plane vs the alpha = 2 closed forms
    for density in (0.05, 0.3, 1.0):
        assert outage_bulk(params, Region.plane(), density) == pytest.approx(
            outage_bulk_plane_freespace(params, density), rel=1e-10)
        assert outage_ps(params, Region.plane(), density) == pytest.approx(
            outage_ps_plane_freespace(params, density), rel=1e-8)


def test_freespace_forms_reject_other_exponents():
    p = SystemParams(snr_budget=100.0, path_loss=4.0, threshold=1.0,
                     subcarriers=4, r_sd=5.0)
    with pytest.raises(DomainError):
        outage_bulk_plane_freespace(p, 0.1)
    with pytest.raises(DomainError):
        outage_ps_plane_freespace(p, 0.1)


def _tau_table(alpha, r_sd, sigma):
    """The closed forms of tau_alpha at alpha 2, 4 and 6: the oracle."""
    if alpha == 2:
        return r_sd**2 + sigma**2
    if alpha == 4:
        return r_sd**4 + 2.0 * r_sd**2 * sigma**2 + (2.0 / 3.0) * sigma**4
    return 0.5 * (2.0 * r_sd**2 + sigma**2) * (
        r_sd**4 + 4.0 * r_sd**2 * sigma**2 + sigma**4)


def test_tau_alpha_table():
    # the mean over the grid against the closed forms
    for alpha in (2, 4, 6):
        for r_sd, sigma in ((5.0, 5.0), (5.0, 2.0), (1.0, 10.0), (3.0, 7.0)):
            assert tau_alpha(alpha, r_sd, Region.disc(sigma)) == pytest.approx(
                _tau_table(alpha, r_sd, sigma), rel=1e-14, abs=0)


def test_tau_alpha_off_the_table():
    # alpha 3, which has no closed form, against scipy's nested quad of
    # the mean over the half-disc; the asymptotic mode's convergence at
    # alpha 3 is checked in test_cli
    def weighted(theta, r):
        return r * (r**3 + (25.0 + r * r - 10.0 * r * math.cos(theta))**1.5)

    total, _ = integrate.dblquad(weighted, 0.0, 5.0, 0.0, math.pi,
                                 epsabs=0.0, epsrel=1e-13)
    assert tau_alpha(3.0, 5.0, Region.disc(5.0)) == pytest.approx(
        total / (12.5 * math.pi), rel=1e-12, abs=0)


def test_asymptotics_converge_to_exact():
    rel_errors_bulk, rel_errors_ps = [], []
    for budget in (1e4, 1e6):
        p = SystemParams(snr_budget=budget, path_loss=2.0, threshold=1.0,
                         subcarriers=4, r_sd=5.0)
        exact_b = outage_bulk(p, Region.disc(5.0), 1.0)
        exact_p = outage_ps(p, Region.disc(5.0), 1.0)
        rel_errors_bulk.append(
            abs(asymptotic_bulk_disc(p, Region.disc(5.0), 1.0) - exact_b)
            / exact_b)
        rel_errors_ps.append(
            abs(asymptotic_ps_disc(p, Region.disc(5.0), 1.0) - exact_p)
            / exact_p)
    assert rel_errors_bulk[1] < rel_errors_bulk[0] < 0.05
    assert rel_errors_ps[1] < rel_errors_ps[0] < 0.05
    assert rel_errors_bulk[1] < 1e-5
    assert rel_errors_ps[1] < 1e-5


def test_asymptotics_warn_outside_validity(params):
    # K * s * tau / budget = 2 >= 1 at this budget
    with pytest.warns(UserWarning):
        asymptotic_bulk_disc(params, Region.disc(5.0), 1.0)
    # low budget pushes the per-subcarrier expansion above 1
    p = SystemParams(snr_budget=60.0, path_loss=2.0, threshold=1.0,
                     subcarriers=4, r_sd=5.0)
    with pytest.warns(UserWarning):
        assert asymptotic_ps_disc(p, Region.disc(5.0), 0.05) > 1.0


def test_asymptotics_raise_without_warning():
    # K s tau / P = 563 at alpha 6, P 1000: both expansions leave double
    # range, which the error alone reports
    p = SystemParams(snr_budget=1000.0, path_loss=6.0, threshold=1.0,
                     subcarriers=4, r_sd=5.0)
    for expansion in (asymptotic_bulk_disc, asymptotic_ps_disc):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="leaves double range"):
                expansion(p, Region.disc(5.0), 1.0)


@pytest.mark.parametrize("region, error", [
    (lambda: Region.disc(-1.0), ConfigurationError),
    (lambda: Region.disc(0.0), ConfigurationError),
    (lambda: Region.disc(math.nan), ConfigurationError),
    (Region.plane, InfiniteAreaError)])
def test_asymptotics_reject_a_bad_region_before_any_arithmetic(
        params, region, error):
    # Region.disc checks the radius; the plane has no area, which the
    # closed forms read before they build a grid
    _grid.cache_clear()
    for call in (lambda: asymptotic_bulk_disc(params, region(), 1.0),
                 lambda: asymptotic_ps_disc(params, region(), 1.0),
                 lambda: tau_alpha(2.0, 5.0, region())):
        with pytest.raises(error):
            call()
    assert _grid.cache_info().currsize == 0


def test_outage_floor():
    assert outage_floor(0.001, math.pi * 25.0) == pytest.approx(
        math.exp(-0.025 * math.pi), rel=1e-12)
    with pytest.raises(ValueError):
        outage_floor(0.1, math.inf)
    with pytest.raises(ValueError):
        outage_floor(-0.1, 1.0)


def test_floor_lower_bounds_both_schemes(params, disc):
    floor = outage_floor(0.05, disc.area)
    assert outage_bulk(params, disc, 0.05) >= floor
    assert outage_ps(params, disc, 0.05) >= floor


def test_subcarrier_cap(disc):
    p = SystemParams(snr_budget=100.0, path_loss=2.0, threshold=1.0,
                     subcarriers=65, r_sd=5.0)
    with pytest.raises(NumericalInstabilityError):
        outage_ps(p, disc, 0.1)
    # the quadrature and the closed forms share the guard
    with pytest.raises(NumericalInstabilityError):
        outage_ps_plane_freespace(p, 0.1)


def test_subcarrier_cap_names_the_requested_count(disc):
    # the inner sums of k = 1..80 pass k = 65 first; the error must still
    # name the K asked for
    p = SystemParams(snr_budget=100.0, path_loss=2.0, threshold=1.0,
                     subcarriers=80, r_sd=5.0)
    with pytest.raises(NumericalInstabilityError,
                       match="subcarrier count 80 exceeds"):
        outage_ps(p, disc, 0.1)


def test_alternating_sum_outside_the_unit_interval_raises():
    # u(n) falls with n for every relay kernel, so u = (1, 5) is no
    # kernel's table: at lambda 1 its inclusion-exclusion sum comes to
    # -403, which the guard must report, not clip into [0, 1]
    with pytest.raises(NumericalInstabilityError, match=r"left \[0, 1\]"):
        _outage_ps_from_u(1.0, (1.0, 5.0))


def test_overflowing_exponent_is_a_numerical_instability(disc):
    # at K 64 (disc 5, alpha 2, SNR 1000) an inner sum S(k) of the
    # rounded u comes out large and negative, so at lambda 1
    # exp(-2 lambda S(k)) leaves double range: the guard must name the
    # exponent, not leak OverflowError. At lambda 0.1 the exponent
    # stays in range and the sum leaves [0, 1] instead; it raised the
    # overflow there while each term C(k, j) u(j) was rounded
    p = SystemParams(snr_budget=1000.0, path_loss=2.0, threshold=1.0,
                     subcarriers=64, r_sd=5.0)
    for outage in (outage_ps, relayfield.outage_ratio):
        with pytest.raises(NumericalInstabilityError,
                           match="exponent .* overflows a double"):
            outage(p, disc, 1.0)
        with pytest.raises(NumericalInstabilityError):
            outage(p, disc, 0.1)


def _exact_inner_sums(u):
    """S(k) = sum_j C(k, j) (-1)**(j+1) u(j) over j = 1..k, summed in
    fractions and rounded once, for k = 1..len(u)."""
    return tuple(float(sum(math.comb(k, j) * (-1) ** (j + 1)
                           * Fraction(u[j - 1]) for j in range(1, k + 1)))
                 for k in range(1, len(u) + 1))


def test_inner_sums_are_the_exact_sums_rounded_once(tmp_path):
    # each S(k) is the exact sum of the batch's u, rounded once, at every
    # plane configuration of the quad_grid benchmark (alpha 4, K 32 and
    # alpha 2, K 16 at SNR 10..1000), at a K 64 disc, and on tables of
    # zeros, subnormals and values far from 1, since every double is an
    # integer over a power of 2. Rounding each term C(k, j) u(j) first
    # left Phi_ps up to 7.9e-5 off at alpha 4, K 32, and the K 32 ratio
    # call failed its cross-check (Delta-sum 0.97170 against Phi_ps
    # 0.97105 over Phi_bulk 0.99910)
    configs = [(Region.plane(), alpha, k, snr)
               for alpha, k in ((4.0, 32), (2.0, 16))
               for snr in np.geomspace(10.0, 1000.0, 5)]
    configs.append((Region.disc(5.0), 2.0, 64, 1000.0))
    batches = [(0.0, 0.0, 0.0), (5e-324, 1e-320, 0.0),
               (3e300, 1e300, 2e-300), (2.0 ** 60, 3.0, 2.0 ** -60)]
    for region, alpha, k, snr in configs:
        p = SystemParams(snr_budget=float(snr), path_loss=alpha,
                         threshold=1.0, subcarriers=k, r_sd=5.0)
        batches.append(_u_values(region, tuple(range(1, k + 1)), p,
                                 DEFAULT_QUADRATURE))
    for batch in batches:
        assert _inner_sums(batch) == _exact_inner_sums(batch), batch
    assert _inner_sums((1.0, 0.5, 0.25, 0.125)) == (1.0, 1.5, 1.75, 1.875)
    out = str(tmp_path / "ratio.csv")
    assert main(["--mode", "ratio", "--K", "32", "--lambda", "0.01,0.1,1",
                 "--output", out]) == 0


def test_lower_incomplete_gamma_against_quadrature():
    for a, x in ((0.5, 1.0), (1.0, 2.0), (2.5, 0.7)):
        oracle = quad(lambda t: t ** (a - 1) * math.exp(-t), 0.0, x,
                       DEFAULT_QUADRATURE, "gamma oracle")
        assert lower_incomplete_gamma(a, x) == pytest.approx(
            oracle, rel=1e-10)
    assert lower_incomplete_gamma(0.5, 1.0) == pytest.approx(
        1.4936482656248544, rel=1e-12)
    with pytest.raises(ValueError):
        lower_incomplete_gamma(-1.0, 1.0)


def test_exp_integral_against_quadrature():
    for nu, x in ((1.0, 1.0), (0.5, 0.3), (1.0 / 3.0, 2.0)):
        oracle = quad(lambda t: math.exp(-x * t) / t**nu, 1.0, 200.0,
                       DEFAULT_QUADRATURE, "expint oracle")
        assert exp_integral_E(nu, x) == pytest.approx(oracle, rel=1e-8)
    assert exp_integral_E(1.0, 1.0) == pytest.approx(
        0.21938393439552029, rel=1e-12)
    # the orders (alpha-2)/alpha at alpha 2, 4 and 6, at a small and a
    # large x, where E is near 1e-133
    for nu in (0.0, 0.5, 2.0 / 3.0):
        for x in (1e-3, 300.0):
            oracle = quad(lambda t: math.exp(-x * t) / t**nu, 1.0, math.inf,
                          TIGHT, "expint oracle")
            assert exp_integral_E(nu, x) == pytest.approx(oracle, rel=1e-12)
    for x in (1e-3, 2.0, 300.0):
        assert exp_integral_E(0.0, x) == pytest.approx(math.exp(-x) / x,
                                                       rel=1e-14)
    with pytest.raises(ValueError):
        exp_integral_E(0.5, 0.0)
    with pytest.raises(DomainError):
        exp_integral_E(1.5, 1.0)


def test_import_loads_no_mpmath_and_no_scipy_integrate():
    # analytic._integrate is the package's one quadrature engine
    src = os.path.dirname(os.path.dirname(relayfield.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import sys, relayfield, relayfield.cli; print([m for m in "
            "('mpmath', 'scipy.integrate') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}).stdout
    assert out.strip() == "[]"


def test_quadrature_settings_validation():
    with pytest.raises(ValueError):
        QuadratureSettings(abs_tol=0.0)
    loose = QuadratureSettings(abs_tol=1e-6, rel_tol=1e-5)
    p = SystemParams(snr_budget=100.0, path_loss=2.0, threshold=1.0,
                     subcarriers=4, r_sd=5.0)
    assert u(4.0, p, Region.disc(5.0), loose) == pytest.approx(
        u(4.0, p, Region.disc(5.0)), rel=1e-5)
