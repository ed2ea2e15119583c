import math
from dataclasses import replace

import numpy as np
import pytest

from relayfield import (
    Region,
    Scheme,
    SystemParams,
    block_length,
    block_rng,
    estimate_outage,
    estimate_outage_both,
    estimate_throughput,
    outage_bulk,
    outage_ps,
)
from relayfield.simulation import _sampler, _simulate_chunk
from reference import (
    FadingRealization,
    NoCandidateError,
    Topology,
    draw_fading,
    sample_topology,
    select_bulk,
    select_per_subcarrier,
    trial_outage,
)


def test_select_bulk_example():
    snr = np.array([[5.0, 1.0, 8.0],
                    [3.0, 2.5, 2.0],
                    [9.0, 0.5, 9.0]])
    out = select_bulk(snr)
    # worst-subcarrier SNRs are 1.0, 2.0, 0.5 so relay 1 wins
    assert out.chosen.tolist() == [1, 1, 1]
    assert out.achieved.tolist() == [3.0, 2.5, 2.0]


def test_select_per_subcarrier_example():
    snr = np.array([[5.0, 1.0, 8.0],
                    [3.0, 2.5, 2.0],
                    [9.0, 0.5, 9.0]])
    out = select_per_subcarrier(snr)
    assert out.chosen.tolist() == [2, 1, 2]
    assert out.achieved.tolist() == [9.0, 2.5, 9.0]


def test_selection_tie_breaks_to_lowest_index():
    snr = np.array([[2.0, 2.0], [2.0, 2.0]])
    assert select_bulk(snr).chosen.tolist() == [0, 0]
    assert select_per_subcarrier(snr).chosen.tolist() == [0, 0]


def test_selection_on_empty_set():
    with pytest.raises(NoCandidateError):
        select_bulk(np.empty((0, 4)))
    with pytest.raises(NoCandidateError):
        select_per_subcarrier(np.empty((0, 4)))


def test_schemes_coincide_for_single_subcarrier(rng):
    snr = rng.random((6, 1))
    assert select_bulk(snr).chosen[0] == select_per_subcarrier(snr).chosen[0]


def test_trial_outage_example(params):
    # two relays, SNR matrix controlled via hand-built gains
    topo = Topology(r_sm=np.array([1.0, 2.0]),
                    theta=np.array([0.0, math.pi]),
                    region=Region.disc(5.0), density=0.1)
    p = SystemParams(snr_budget=100.0, path_loss=2.0, threshold=3.5,
                     subcarriers=2, r_sd=5.0)
    # r_md = 4 and 7; choose gains that give e2e SNRs
    # relay 0: [100*g/1, 100*g/16] -> pick g so both subcarriers known
    gains = np.array([[[1.0, 0.5], [4.0, 4.0]],      # hop 1
                      [[0.64, 0.64], [2.0, 1.5]]])   # hop 2
    fading = FadingRealization(gains=gains)
    # e2e: relay 0 -> min(100, 4) = 4, min(50, 4) = 4
    #      relay 1 -> min(100, 100*2/49)=4.08.., min(100, 3.06..)=3.06..
    # bulk picks relay 0 (worst 4 > 3.06), no outage at s=3.5
    assert trial_outage(topo, fading, p, Scheme.BULK) is False
    # per-subcarrier achieves max(4, 4.08)=4.08 and max(4, 3.06)=4
    assert trial_outage(topo, fading, p, Scheme.PER_SUBCARRIER) is False
    tighter = SystemParams(snr_budget=100.0, path_loss=2.0, threshold=4.05,
                           subcarriers=2, r_sd=5.0)
    assert trial_outage(topo, fading, tighter, Scheme.BULK) is True
    assert trial_outage(topo, fading, tighter, Scheme.PER_SUBCARRIER) is True


def test_empty_topology_is_outage(params):
    topo = Topology(r_sm=np.empty(0), theta=np.empty(0),
                    region=Region.disc(5.0), density=0.0)
    fading = FadingRealization(gains=np.empty((2, 0, params.subcarriers)))
    assert trial_outage(topo, fading, params, Scheme.BULK) is True
    assert trial_outage(topo, fading, params, Scheme.PER_SUBCARRIER) is True


def test_per_subcarrier_dominates_bulk(params, rng):
    # per-subcarrier selection can never do worse on the same realisation
    region = Region.disc(5.0)
    worse = 0
    for _ in range(2000):
        topo = sample_topology(region, 0.05, rng)
        if topo.n_relays == 0:
            continue
        fading = draw_fading(topo, params.subcarriers, rng)
        b = trial_outage(topo, fading, params, Scheme.BULK)
        p = trial_outage(topo, fading, params, Scheme.PER_SUBCARRIER)
        worse += (p and not b)
    assert worse == 0


def test_block_rng_reproducible():
    a = block_rng(42, 7).random(5)
    b = block_rng(42, 7).random(5)
    c = block_rng(42, 8).random(5)
    d = block_rng(43, 7).random(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def _trial_by_trial(params, region, density, seed, trials):
    """Slow reference on the kernel's block streams: each trial's inner
    and kept tail relays and their gains become a Topology and a
    FadingRealization for trial_outage.

    A tail point's forced subcarrier gets the first-hop gain t plus an
    exponential excess (the conditional law of a gain that clears t),
    and the point is kept with probability 1/j, where j counts its
    first-hop gains of at least t.
    """
    s = _sampler(params, region, density)
    c = params.threshold / params.snr_budget
    k = params.subcarriers
    n_bulk = n_ps = n_empty = 0
    for b, first in enumerate(range(0, trials, s.length)):
        rng = block_rng(seed, b)
        counts = rng.poisson(s.inner_mean, min(s.length, trials - first))
        n = int(counts.sum())
        r = s.inner_radius * np.sqrt(rng.random(n))
        theta = 2.0 * math.pi * rng.random(n)
        gains = -np.log1p(-rng.random((2, n, k)))
        owner = np.repeat(np.arange(len(counts)), counts)
        if s.tail_mean > 0:
            tail_counts = rng.poisson(s.tail_mean, len(counts))
            m = int(tail_counts.sum())
            t = s.tail_t(rng.random(m))
            forced = rng.integers(k, size=m)
            g1 = -np.log1p(-rng.random((m, k)))
            accept = rng.random(m)
            keep = np.zeros(m, dtype=bool)
            for i in range(m):
                g1[i, forced[i]] += t[i]
                keep[i] = accept[i] * np.sum(g1[i] >= t[i]) < 1.0
            r_tail = (t[keep] / c) ** (1.0 / params.path_loss)
            # tail relays lie in the annulus r* < r < R
            assert np.all(r_tail >= s.inner_radius * (1.0 - 1e-12))
            assert np.all(r_tail <= region.outer_radius() * (1.0 + 1e-12))
            kept = len(r_tail)
            r = np.concatenate([r, r_tail])
            theta = np.concatenate([theta, 2.0 * math.pi * rng.random(kept)])
            g2 = -np.log1p(-rng.random((kept, k)))
            gains = np.concatenate([gains, np.stack([g1[keep], g2])], axis=1)
            owner = np.concatenate(
                [owner, np.repeat(np.arange(len(counts)), tail_counts)[keep]])
        no_relay = 0
        for trial in range(len(counts)):
            mine = owner == trial
            topo = Topology(r_sm=r[mine], theta=theta[mine],
                            region=region, density=density)
            fading = FadingRealization(gains=gains[:, mine])
            no_relay += topo.n_relays == 0
            n_bulk += trial_outage(topo, fading, params, Scheme.BULK)
            n_ps += trial_outage(topo, fading, params, Scheme.PER_SUBCARRIER)
        # relays that failed every first hop are not drawn: a trial
        # without drawn relays is empty if the annulus holds none either
        n_empty += (no_relay if s.tail_mean == 0
                    else rng.binomial(no_relay, s.void))
    return n_bulk, n_ps, n_empty


def test_chunk_matches_object_path(params):
    # the block kernel must reproduce the object-level pipeline exactly,
    # trial by trial, on the same block streams
    cases = {
        "no relays": (params, Region.disc(5.0), 0.0, 300),
        "sparse disc": (params, Region.disc(5.0), 0.08, 400),
        "dense disc": (replace(params, snr_budget=10.0), Region.disc(5.0),
                       2.0, 700),
        "alpha 4, disc 8": (
            replace(params, snr_budget=1000.0, path_loss=4.0,
                    subcarriers=8),
            Region.disc(8.0), 0.05, 300),
    }
    n_blocks = {}
    for name, (p, region, density, trials) in cases.items():
        s = _sampler(p, region, density)
        # every run ends in a partly filled block
        assert trials % s.length, name
        n_blocks[name] = -(-trials // s.length)
        expect = _trial_by_trial(p, region, density, 99, trials)
        got = _simulate_chunk(s, 99, trials, 0, n_blocks[name])
        assert got == expect, name
        if density > 0:
            # neither scheme's count is pinned at 0 or at trials
            assert 0 < expect[1] <= expect[0] < trials, name
    assert n_blocks["dense disc"] > 1
    # the last two cases draw tail relays and the void count
    assert _sampler(*cases["dense disc"][:3]).tail_mean > 0
    assert 0 < _sampler(*cases["alpha 4, disc 8"][:3]).void < 1


def test_disc_without_tail_keeps_its_stream(params):
    # with r* >= sigma the disc has no tail, and its counts are the ones
    # the brute-force sampler drew before thinning, over several blocks
    alpha_4 = replace(params, snr_budget=1000.0, path_loss=4.0)
    for p, density, trials, pinned in ((params, 0.08, 4000, (990, 198, 6)),
                                       (alpha_4, 0.3, 2000, (134, 2, 0))):
        s = _sampler(p, Region.disc(5.0), density)
        assert s.tail_mean == 0 and s.inner_radius == 5.0
        n_blocks = -(-trials // s.length)
        assert n_blocks > 1
        assert _simulate_chunk(s, 99, trials, 0, n_blocks) == pinned


def _agrees(p_hat, p, trials):
    # within 4 exact binomial standard errors of the quadrature value
    return abs(p_hat - p) <= 4.0 * math.sqrt(p * (1.0 - p) / trials)


def test_thinned_sampler_agrees_with_quadrature(params):
    # the plane at SNR 1000, K = 1 (r* = 0: every relay is a tail relay)
    # and a disc of radius 20 whose annulus r* < r < 20 is drawn thinned
    trials = 40_000
    cases = {
        "alpha 2, plane": (replace(params, snr_budget=1000.0),
                           Region.plane(), 0.002),
        "alpha 4, plane": (replace(params, snr_budget=1000.0, path_loss=4.0),
                           Region.plane(), 0.05),
        "K 1, plane": (replace(params, subcarriers=1), Region.plane(), 0.02),
        "disc 20": (params, Region.disc(20.0), 0.005),
    }
    for name, (p, region, density) in cases.items():
        s = _sampler(p, region, density)
        assert 0 < s.tail_mean, name
        assert s.inner_radius < region.outer_radius(), name
        both = estimate_outage_both(p, region, density, trials, seed=31)
        for scheme, outage in ((Scheme.BULK, outage_bulk),
                               (Scheme.PER_SUBCARRIER, outage_ps)):
            ref = outage(p, region, density)
            assert 0.01 < ref < 0.99, name
            assert _agrees(both[scheme].p_hat, ref, trials), (name, scheme)
        if region.outer_radius() == math.inf:
            assert both[Scheme.BULK].empty_fraction == 0.0


def test_empty_fraction_with_a_thinned_tail(params):
    # at SNR 10 r* = 3.7 < sigma = 5: the empty count must still follow
    # the void probability of the whole disc
    p = replace(params, snr_budget=10.0)
    region = Region.disc(5.0)
    assert _sampler(p, region, 0.02).tail_mean > 0
    trials = 40_000
    est = estimate_outage(p, region, 0.02, Scheme.BULK, trials=trials,
                          seed=37)
    assert _agrees(est.empty_fraction, math.exp(-0.02 * region.area),
                   trials)


def test_estimate_outage_zero_density(params):
    est = estimate_outage(params, Region.disc(5.0), 0.0, Scheme.BULK,
                          trials=500, seed=3)
    assert est.p_hat == 1.0
    assert est.empty_fraction == 1.0
    assert est.stderr == 0.0


def test_estimate_outage_matches_floor(params):
    # at sigma = 1 every relay is close enough that outage is dominated
    # by the void event, so p_hat should track exp(-density * area)
    region = Region.disc(1.0)
    density = 0.5
    est = estimate_outage(params, region, density, Scheme.BULK,
                          trials=100_000, seed=11)
    floor = math.exp(-density * region.area)
    assert est.p_hat >= floor - 3 * est.stderr
    assert abs(est.empty_fraction - floor) < 4 * math.sqrt(
        floor * (1 - floor) / est.trials)


def test_workers_do_not_change_results(params):
    region = Region.disc(5.0)
    one = estimate_outage_both(params, region, 0.1, trials=4000, seed=5,
                               n_workers=1)
    three = estimate_outage_both(params, region, 0.1, trials=4000, seed=5,
                                 n_workers=3)
    for scheme in Scheme:
        assert one[scheme].p_hat == three[scheme].p_hat
        assert one[scheme].empty_fraction == three[scheme].empty_fraction


def test_worker_split_keeps_block_streams(params):
    # trials not a multiple of the block length, and more workers than
    # blocks: one block (no pool), and three blocks on 2 and 8 workers
    cases = ((params, Region.disc(5.0), 0.1, 1000, 1),
             (replace(params, snr_budget=10.0), Region.disc(5.0), 2.0, 150,
              3))
    for p, region, density, trials, blocks in cases:
        length = block_length(p, region, density)
        assert trials % length and -(-trials // length) == blocks
        one = estimate_outage_both(p, region, density, trials, seed=5,
                                   n_workers=1)
        for workers in (2, 8):
            assert estimate_outage_both(p, region, density, trials, seed=5,
                                        n_workers=workers) == one


def test_ps_outage_never_above_bulk(params):
    both = estimate_outage_both(params, Region.disc(5.0), 0.1,
                                trials=20_000, seed=17)
    assert both[Scheme.PER_SUBCARRIER].p_hat <= both[Scheme.BULK].p_hat


def test_outage_grows_with_subcarriers():
    region = Region.disc(5.0)
    p_hats = []
    for k in (1, 4, 16):
        p = SystemParams(snr_budget=20.0, path_loss=2.0, threshold=1.0,
                         subcarriers=k, r_sd=5.0)
        p_hats.append(estimate_outage(p, region, 0.1, Scheme.BULK,
                                      trials=20_000, seed=23).p_hat)
    assert p_hats[0] < p_hats[1] < p_hats[2]


def test_estimate_throughput(params):
    est = estimate_outage(params, Region.disc(5.0), 0.1, Scheme.BULK,
                          trials=10_000, seed=29)
    kappa = estimate_throughput(params, Region.disc(5.0), 0.1, Scheme.BULK,
                                trials=10_000, seed=29)
    assert kappa == pytest.approx(params.subcarriers * (1 - est.p_hat))


def test_trials_must_be_positive(params):
    with pytest.raises(ValueError):
        estimate_outage(params, Region.disc(5.0), 0.1, Scheme.BULK,
                        trials=0, seed=1)
