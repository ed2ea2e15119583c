import inspect
import math
import re

import numpy as np
import pytest

import relayfield
from relayfield import (
    NumericalInstabilityError,
    QuadratureSettings,
    Region,
    Scheme,
    SystemParams,
    appendix_bound_T1,
    asymptotic_bulk_disc,
    asymptotic_ps_disc,
    delta_k,
    diversity_slope,
    estimate_outage_both,
    exp_integral_E,
    log_outage_bulk,
    lower_incomplete_gamma,
    min_density_for_advantage,
    optimize_K,
    optimize_K_sweep,
    outage_bulk,
    outage_floor,
    outage_ps,
    outage_ratio,
    outage_ratio_approx,
    throughput,
)
from relayfield import cli, metrics
from reference import appendix_bound_T1_quadrature


def test_delta_values(params, disc):
    expected = [32.11680576532237, 48.26354666330464,
                54.69182314829745, 57.65323567465153]
    got = [delta_k(k, params, disc) for k in (1, 2, 3, 4)]
    assert got == pytest.approx(expected, rel=1e-8)
    with pytest.raises(ValueError):
        delta_k(0, params, disc)
    with pytest.raises(ValueError):
        delta_k(5, params, disc)


def test_delta_against_monte_carlo(params, disc, rng):
    # area-integral oracle: Delta(k) = 2 * E[A * (1 - F**k - (1-F)**K)]
    # with (r, theta) uniform on [0, 5] x [0, pi] weighted by r
    n = 2_000_000
    r = 5.0 * rng.random(n)
    theta = math.pi * rng.random(n)
    r_md2 = 25.0 + r * r - 10.0 * r * np.cos(theta)
    g = np.exp(-0.01 * (r * r + r_md2))  # 1 - F
    f = 1.0 - g
    area = 5.0 * math.pi
    for k in (1, 4):
        h = r * (1.0 - f**k - g**4)
        est = 2.0 * area * h.mean()
        se = 2.0 * area * h.std() / math.sqrt(n)
        assert abs(delta_k(k, params, disc) - est) < 4 * se


def test_delta_positive_and_increasing(params, disc):
    values = [delta_k(k, params, disc) for k in range(1, 5)]
    assert all(v > 0 for v in values)
    assert all(a < b for a, b in zip(values, values[1:]))


def test_ratio_identity_with_direct_quotient(params, disc):
    # outage_ratio already cross-checks internally; pin it here too
    for density in (0.02, 0.1, 0.5):
        phi = outage_ratio(params, disc, density).phi
        quotient = (outage_ps(params, disc, density)
                    / outage_bulk(params, disc, density))
        assert phi == pytest.approx(quotient, rel=1e-6)


def test_ratio_cross_check_catches_a_wrong_quotient(params, disc,
                                                    monkeypatch):
    # outage_ratio computes phi twice, by the Delta sum and as the
    # quotient of the two outages: a ps outage off by 1e-4 of itself,
    # ten times the check's tolerance, must fail it
    right = metrics.outage_ps
    monkeypatch.setattr(metrics, "outage_ps",
                        lambda *args: right(*args) * (1.0 + 1e-4))
    with pytest.raises(ArithmeticError, match="ratio cross-check failed"):
        outage_ratio(params, disc, 0.1)


def test_ratio_where_the_bulk_outage_underflows():
    # plane, alpha 2, K 8, SNR 1e4, lambda 1: Phi_bulk = exp(-2 lambda u(8))
    # with u(8) near 971 reads 0.0, as does Phi_ps; phi's Delta sum reads
    # 0 too, and the cross-check must hold without dividing by Phi_bulk
    p = _params_with(snr_budget=1e4, subcarriers=8)
    assert outage_bulk(p, Region.plane(), 1.0) == 0.0
    assert outage_ratio(p, Region.plane(), 1.0).phi == 0.0


def test_ratio_spot_values(params, disc):
    r = outage_ratio(params, disc, 0.02)
    assert r.phi == pytest.approx(0.8430167041829354, rel=1e-8)
    assert r.phi_approx == pytest.approx(0.7581247449051078, rel=1e-8)
    assert outage_ratio_approx(params, disc, 0.02) == pytest.approx(
        r.phi_approx, rel=1e-12)
    assert outage_ratio(params, disc, 0.0).phi == pytest.approx(1.0)


def test_ratio_against_paired_monte_carlo(disc):
    # an independent scheme-advantage oracle: the quotient of the two
    # empirical outage rates on shared realisations; budget 10 keeps
    # both outage probabilities measurable
    p = SystemParams(snr_budget=10.0, path_loss=2.0, threshold=1.0,
                     subcarriers=4, r_sd=5.0)
    phi = outage_ratio(p, disc, 1.0).phi
    both = estimate_outage_both(p, disc, 1.0, trials=200_000, seed=42,
                                n_workers=4)
    bulk, ps = both[Scheme.BULK], both[Scheme.PER_SUBCARRIER]
    ratio = ps.p_hat / bulk.p_hat
    se = ratio * math.sqrt((ps.stderr / ps.p_hat) ** 2
                           + (bulk.stderr / bulk.p_hat) ** 2)
    assert abs(ratio - phi) < 4 * se


def test_quadratic_approximation_error_order(params, disc):
    # the approximation error should fall roughly as density**3
    def err(density):
        r = outage_ratio(params, disc, density)
        return abs(r.phi - r.phi_approx)

    ratio = err(0.04) / err(0.02)
    assert 4.0 < ratio < 16.0


def test_min_density_inverse(params, disc):
    res = min_density_for_advantage(0.999, params, disc)
    assert res.density_approx == pytest.approx(res.density_exact, rel=0.05)
    assert outage_ratio(params, disc, res.density_exact).phi == pytest.approx(
        0.999, abs=1e-9)
    assert min_density_for_advantage(1.0, params, disc).density_exact == 0.0
    with pytest.raises(ValueError):
        min_density_for_advantage(0.0, params, disc)
    with pytest.raises(ValueError):
        min_density_for_advantage(1.5, params, disc)


def test_min_density_monotone_in_epsilon(params, disc):
    exact = [min_density_for_advantage(e, params, disc).density_exact
             for e in (0.999, 0.99, 0.9)]
    assert exact[0] < exact[1] < exact[2]


@pytest.mark.parametrize("big_k", [65, 70, 100])
def test_ratio_inverse_past_the_subcarrier_cap_names_k(disc, big_k):
    # past the cap the quadratic coefficient's sign is noise, so the cap
    # must fire before its sign test or the root search sees it
    p = _params_with(subcarriers=big_k)
    with pytest.raises(NumericalInstabilityError,
                       match=f"subcarrier count {big_k} exceeds"):
        min_density_for_advantage(0.5, p, disc)


def test_each_result_has_one_entry_point():
    for name in ("optimize_K_unconstrained", "optimize_K_constrained",
                 "estimate_outage", "OutageUnderflowError"):
        assert not hasattr(relayfield, name), name
    assert not hasattr(cli, "connection_probability_view")
    assert "log_domain" not in inspect.signature(diversity_slope).parameters


def test_diversity_slope_plane():
    # plane bulk outage keeps improving with SNR: the finite-window
    # slope grows without bound as the window moves up
    def curve(snr):
        p = SystemParams(snr_budget=snr, path_loss=2.0, threshold=1.0,
                         subcarriers=4, r_sd=5.0)
        return log_outage_bulk(p, Region.plane(), 1.0)

    low = diversity_slope(curve, 1e3, 1e4)
    high = diversity_slope(curve, 1e4, 1e5)
    assert low.slope == pytest.approx(1534.7350062516327, rel=1e-6)
    assert high.slope > 5 * low.slope


def test_diversity_slope_basics():
    est = diversity_slope(lambda snr: -2.0 * math.log(snr), 10.0, 1000.0)
    assert est.slope == pytest.approx(2.0, rel=1e-9)
    assert est.snr_window == (10.0, 1000.0)
    flat = diversity_slope(lambda snr: math.log(0.25), 10.0, 1000.0)
    assert flat.slope == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        diversity_slope(lambda snr: math.log(0.5), 100.0, 10.0)


def test_diversity_slope_far_below_double_range():
    # outage snr**-1e5 is below double range (about 1e-308) at any snr
    # above 1.01, yet its ln-outage curve keeps the exact slope
    est = diversity_slope(lambda snr: -1e5 * math.log(snr), 10.0, 100.0)
    assert math.exp(-1e5 * math.log(10.0)) == 0.0
    assert est.slope == pytest.approx(1e5, rel=1e-12)


def test_appendix_bound_value(params):
    assert appendix_bound_T1(params) == pytest.approx(
        0.30628716473893147, rel=1e-10)


def test_appendix_bound_components(params):
    # the closed form is the sum of a gamma term and an E-term; the
    # defining integral instead equals gamma-term / alpha + E-term
    a = params.path_loss
    c = params.subcarriers * params.threshold / params.snr_budget
    r = params.r_sd
    term1 = ((1.0 / c) ** (2.0 / a) * math.exp(-c * (2.0 * r) ** a)
             * lower_incomplete_gamma(2.0 / a, c * r**a))
    term2 = (r**2 / a) * exp_integral_E((a - 2.0) / a,
                                        (1.0 + 2.0**a) * c * r**a)
    assert appendix_bound_T1(params) == pytest.approx(
        term1 + term2, rel=1e-12)
    assert appendix_bound_T1_quadrature(params) == pytest.approx(
        term1 / a + term2, rel=1e-9)


def test_appendix_bound_shrinks_with_path_loss(params):
    p4 = SystemParams(snr_budget=100.0, path_loss=4.0, threshold=1.0,
                      subcarriers=4, r_sd=5.0)
    assert appendix_bound_T1(p4) < appendix_bound_T1(params)


def _params_with(**fields):
    base = dict(snr_budget=100.0, path_loss=2.0, threshold=1.0,
                subcarriers=4, r_sd=5.0)
    return SystemParams(**{**base, **fields})


_P, _DISC = _params_with(), Region.disc(5.0)
_DENSITY = "density must be >= 0"
# every public range check, as a function of the one value it checks,
# with its message; each must fail at NaN as at a negative value
_RANGE_CHECKS = [
    ("outage_bulk", lambda x: outage_bulk(_P, _DISC, x), _DENSITY),
    ("log_outage_bulk", lambda x: log_outage_bulk(_P, _DISC, x), _DENSITY),
    ("outage_ps", lambda x: outage_ps(_P, _DISC, x), _DENSITY),
    ("outage_floor", lambda x: outage_floor(x, 1.0), _DENSITY),
    ("outage_floor area", lambda x: outage_floor(1.0, x),
     "area must be finite and positive"),
    ("outage_ratio", lambda x: outage_ratio(_P, _DISC, x), _DENSITY),
    ("outage_ratio_approx", lambda x: outage_ratio_approx(_P, _DISC, x),
     _DENSITY),
    ("throughput", lambda x: throughput(4.0, _P, _DISC, x), _DENSITY),
    ("throughput subcarriers", lambda x: throughput(x, _P, _DISC, 1.0),
     "subcarriers must be > 0"),
    ("optimize_K", lambda x: optimize_K(_P, _DISC, x), "density must be > 0"),
    ("optimize_K psi", lambda x: optimize_K(_P, _DISC, x, 1e-2),
     "density must be > 0"),
    ("optimize_K_sweep", lambda x: optimize_K_sweep(_P, _DISC, [1.0, x]),
     "density must be > 0"),
    ("estimate_outage_both",
     lambda x: estimate_outage_both(_P, _DISC, x, trials=10, seed=1),
     _DENSITY),
    ("asymptotic_bulk_disc", lambda x: asymptotic_bulk_disc(_P, _DISC, x),
     _DENSITY),
    ("asymptotic_ps_disc", lambda x: asymptotic_ps_disc(_P, _DISC, x),
     _DENSITY),
    ("lower_incomplete_gamma a", lambda x: lower_incomplete_gamma(x, 1.0),
     "a must be > 0"),
    ("lower_incomplete_gamma x", lambda x: lower_incomplete_gamma(1.0, x),
     "x must be >= 0"),
    ("exp_integral_E", lambda x: exp_integral_E(0.5, x), "x must be > 0"),
    # nu = 1 - x: above 1 for x < 0
    ("exp_integral_E nu", lambda x: exp_integral_E(1.0 - x, 1.0),
     "exp_integral_E takes orders nu <= 1"),
    ("SystemParams snr_budget", lambda x: _params_with(snr_budget=x),
     "snr_budget must be > 0"),
    ("SystemParams path_loss", lambda x: _params_with(path_loss=x),
     "path_loss must be >= 2"),
    ("SystemParams threshold", lambda x: _params_with(threshold=x),
     "threshold must be > 0"),
    ("SystemParams subcarriers", lambda x: _params_with(subcarriers=x),
     "subcarriers must be >= 1"),
    ("SystemParams r_sd", lambda x: _params_with(r_sd=x),
     "r_sd must be > 0"),
    ("Region.disc", Region.disc, "disc region requires radius > 0"),
    ("QuadratureSettings abs_tol", lambda x: QuadratureSettings(abs_tol=x),
     "tolerances must be > 0"),
    ("QuadratureSettings rel_tol", lambda x: QuadratureSettings(rel_tol=x),
     "tolerances must be > 0"),
]


@pytest.mark.parametrize("value", [math.nan, -1.0])
@pytest.mark.parametrize("check", _RANGE_CHECKS, ids=lambda c: c[0])
def test_entry_points_reject_nan_and_negative_inputs(check, value):
    _, call, message = check
    with pytest.raises(ValueError, match=re.escape(message)):
        call(value)


# SystemParams fields that meet their range check but no model: each
# must fail when it is built, before any layer uses it
@pytest.mark.parametrize("field, value, message", [
    ("snr_budget", math.inf, "snr_budget must be finite, got inf"),
    ("path_loss", math.inf, "path_loss must be finite, got inf"),
    ("threshold", math.inf, "threshold must be finite, got inf"),
    ("r_sd", math.inf, "r_sd must be finite, got inf"),
    ("subcarriers", 2.5, "subcarriers must be an integer, got 2.5"),
    ("subcarriers", math.inf, "subcarriers must be an integer, got inf"),
])
def test_system_params_reject_infinite_and_fractional_fields(field, value,
                                                             message):
    with pytest.raises(ValueError, match=re.escape(message)):
        _params_with(**{field: value})


def test_system_params_take_numpy_integer_subcarriers():
    assert outage_ps(_params_with(subcarriers=np.int64(4)), _DISC, 0.1) == (
        outage_ps(_P, _DISC, 0.1))
