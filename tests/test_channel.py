import math

import numpy as np
import pytest
from scipy import stats

from relayfield import Region, SystemParams
from reference import (
    RelayPoint,
    Topology,
    draw_fading,
    e2e_cdf,
    end_to_end_snr,
    sample_topology,
    snr_matrix,
)


def test_params_validation():
    good = dict(snr_budget=100.0, path_loss=2.0, threshold=1.0,
                subcarriers=4, r_sd=5.0)
    SystemParams(**good)
    for key, bad in [("snr_budget", 0.0), ("path_loss", 1.5),
                     ("threshold", 0.0), ("subcarriers", 0), ("r_sd", -1.0)]:
        with pytest.raises(ValueError):
            SystemParams(**{**good, key: bad})


def test_fading_shape_and_moments(rng):
    topo = sample_topology(Region.disc(5.0), 2.0, rng)
    fading = draw_fading(topo, 8, rng)
    assert fading.gains.shape == (2, topo.n_relays, 8)
    assert fading.n_relays == topo.n_relays
    assert fading.subcarriers == 8


def test_fading_is_unit_mean_exponential(rng):
    topo = Topology(r_sm=np.zeros(1000), theta=np.zeros(1000),
                    region=Region.disc(5.0), density=0.0)
    gains = draw_fading(topo, 500, rng).gains.ravel()
    n = gains.size
    assert n == 1_000_000
    assert abs(gains.mean() - 1.0) < 3.0 / math.sqrt(n)
    assert stats.kstest(gains, stats.expon.cdf).pvalue > 0.01
    assert gains.min() >= 0.0


def test_end_to_end_snr_hand_values(params):
    # relay at distance 1 from the source, pi/2 off axis: r_mD = sqrt(26)
    relay = RelayPoint(r_sm=1.0, theta=math.pi / 2)
    # hop 1: 100 * 2 / 1 = 200; hop 2: 100 * 1 / 26 ~ 3.846
    snr = end_to_end_snr(params, relay, g1=2.0, g2=1.0)
    assert snr == pytest.approx(100.0 / 26.0, rel=1e-12)
    # make hop 1 the bottleneck instead
    snr = end_to_end_snr(params, relay, g1=0.01, g2=1.0)
    assert snr == pytest.approx(1.0, rel=1e-12)


def test_zero_distance_and_zero_gain(params):
    at_source = RelayPoint(r_sm=0.0, theta=0.0)
    # first hop has infinite SNR, second hop decides
    snr = end_to_end_snr(params, at_source, g1=1.0, g2=1.0)
    assert snr == pytest.approx(100.0 * 1.0 / 25.0, rel=1e-12)
    # a dead gain kills the link even at zero distance
    assert end_to_end_snr(params, at_source, g1=0.0, g2=1.0) == 0.0
    with pytest.raises(ValueError):
        end_to_end_snr(params, at_source, g1=-0.5, g2=1.0)


def test_snr_matrix_matches_scalar_path(params, rng):
    topo = sample_topology(Region.disc(5.0), 0.5, rng)
    fading = draw_fading(topo, params.subcarriers, rng)
    snr = snr_matrix(params, topo, fading)
    assert snr.shape == (topo.n_relays, params.subcarriers)
    for m, relay in enumerate(topo.relays):
        for k in range(params.subcarriers):
            expect = end_to_end_snr(params, relay,
                                    fading.gains[0, m, k],
                                    fading.gains[1, m, k])
            assert snr[m, k] == pytest.approx(expect, rel=1e-12)


def test_e2e_cdf_examples(params):
    # F(x) = 1 - exp(-(x/100)(r_sm^2 + r_md^2))
    assert e2e_cdf(params, 3.0, 4.0, 0.0) == 0.0
    got = e2e_cdf(params, 3.0, 4.0, 100.0)
    assert got == pytest.approx(1.0 - math.exp(-25.0), rel=1e-12)
    got = e2e_cdf(params, 5.0, 5.0, 2.0)
    assert got == pytest.approx(1.0 - math.exp(-1.0), rel=1e-12)
    with pytest.raises(ValueError):
        e2e_cdf(params, 3.0, 4.0, -1.0)


def test_e2e_distribution_matches_cdf(params, rng):
    # a wall of independent relays at one fixed position gives a large
    # i.i.d. sample of the end-to-end SNR
    n = 1_000_000
    r_sm, theta = 2.0, 1.0
    topo = Topology(r_sm=np.full(n, r_sm), theta=np.full(n, theta),
                    region=Region.disc(5.0), density=0.0)
    fading = draw_fading(topo, 1, rng)
    snr = snr_matrix(params, topo, fading).ravel()
    r_md = math.sqrt(params.r_sd**2 + r_sm**2
                     - 2 * params.r_sd * r_sm * math.cos(theta))
    for x in (0.5, 1.0, 2.0, 5.0):
        p = e2e_cdf(params, r_sm, r_md, x)
        se = math.sqrt(p * (1 - p) / n)
        assert abs((snr < x).mean() - p) < 4 * se


def test_snr_scales_with_budget(rng):
    base = SystemParams(snr_budget=100.0, path_loss=2.0, threshold=1.0,
                        subcarriers=2, r_sd=5.0)
    doubled = SystemParams(snr_budget=200.0, path_loss=2.0, threshold=1.0,
                           subcarriers=2, r_sd=5.0)
    topo = sample_topology(Region.disc(5.0), 0.5, rng)
    fading = draw_fading(topo, 2, rng)
    a = snr_matrix(base, topo, fading)
    b = snr_matrix(doubled, topo, fading)
    assert np.allclose(b, 2.0 * a, rtol=1e-12)
