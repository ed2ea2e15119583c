import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats

from relayfield import ConfigurationError, InfiniteAreaError, Region
from relayfield.geometry import default_truncation_radius
from reference import relay_dest_distance, sample_topology


def test_disc_area():
    assert Region.disc(5.0).area == pytest.approx(78.5398, abs=1e-4)
    assert Region.disc(1.0).area == pytest.approx(3.14159, abs=1e-5)


def test_plane_area_is_an_error():
    with pytest.raises(InfiniteAreaError):
        Region.plane().area


def test_invalid_regions():
    with pytest.raises(ConfigurationError):
        Region.disc(-1.0)
    with pytest.raises(ConfigurationError):
        Region(kind="disc")
    with pytest.raises(ConfigurationError):
        Region(kind="square")


def test_disc_radius_must_be_finite():
    # an infinite disc would silently read as the plane in the quadrature
    with pytest.raises(ConfigurationError,
                       match="disc region requires radius > 0"):
        Region.disc(math.inf)


def test_relay_dest_distance_values():
    assert relay_dest_distance(5.0, 0.0, 5.0) == pytest.approx(0.0, abs=1e-12)
    assert relay_dest_distance(5.0, math.pi / 2, 5.0) == pytest.approx(7.0711, abs=1e-4)
    assert relay_dest_distance(5.0, math.pi, 5.0) == pytest.approx(10.0)


@given(st.floats(0.0, 20.0), st.floats(0.0, 2 * math.pi), st.floats(0.01, 20.0))
def test_relay_dest_distance_theta_symmetry(r, theta, r_sd):
    d1 = relay_dest_distance(r, theta, r_sd)
    d2 = relay_dest_distance(r, 2 * math.pi - theta, r_sd)
    assert d1 == pytest.approx(d2, rel=1e-9, abs=1e-9)


def test_zero_density_always_empty(rng):
    region = Region.disc(5.0)
    for _ in range(20):
        assert sample_topology(region, 0.0, rng).n_relays == 0


def test_sampling_is_deterministic():
    region = Region.disc(5.0)
    t1 = sample_topology(region, 1.0, np.random.default_rng(7))
    t2 = sample_topology(region, 1.0, np.random.default_rng(7))
    assert np.array_equal(t1.r_sm, t2.r_sm)
    assert np.array_equal(t1.theta, t2.theta)


def test_poisson_mean_count(rng):
    region = Region.disc(5.0)
    draws = 100_000
    mean = region.area  # density 1
    counts = np.fromiter(
        (sample_topology(region, 1.0, rng).n_relays for _ in range(draws)),
        dtype=float, count=draws)
    se = math.sqrt(mean / draws)
    assert abs(counts.mean() - mean) < 3 * se


@pytest.mark.parametrize("target", [0.25, 1.0, 4.0])
def test_void_probability(target, rng):
    # density chosen so that density * area hits the target exactly
    region = Region.disc(5.0)
    density = target / region.area
    draws = 100_000
    empty = sum(sample_topology(region, density, rng).n_relays == 0
                for _ in range(draws))
    p = math.exp(-target)
    se = math.sqrt(p * (1 - p) / draws)
    assert abs(empty / draws - p) < 3 * se


def test_positions_are_uniform(rng):
    region = Region.disc(5.0)
    r_all, theta_all = [], []
    while sum(len(r) for r in r_all) < 20_000:
        topo = sample_topology(region, 1.0, rng)
        r_all.append(topo.r_sm)
        theta_all.append(topo.theta)
    r = np.concatenate(r_all)
    theta = np.concatenate(theta_all)
    assert stats.kstest(r, lambda x: (x / 5.0) ** 2).pvalue > 0.01
    assert stats.kstest(theta, stats.uniform(0, 2 * math.pi).cdf).pvalue > 0.01
    assert r.max() <= 5.0


def test_reference_sampler_rejects_the_plane(rng):
    with pytest.raises(ConfigurationError):
        sample_topology(Region.plane(), 1.0, rng)
    topo = sample_topology(Region.disc(3.0), 1.0, rng)
    assert topo.r_sm.max(initial=0.0) <= 3.0


def test_default_truncation_radius():
    r = default_truncation_radius(100.0, 1.0, 2.0)
    assert math.exp(-(1.0 / 100.0) * r**2) <= 1e-12 * (1 + 1e-9)
    # barely smaller radius would not satisfy the tail bound
    assert math.exp(-(1.0 / 100.0) * (0.99 * r) ** 2) > 1e-13
