import ast
import bisect
import inspect
import itertools
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate
from scipy.special import pdtr

from relayfield import (
    Region,
    Scheme,
    SystemParams,
    block_length,
    block_rng,
    estimate_outage_both,
    estimate_outage_sweep,
    outage_bulk,
    outage_ps,
)
from relayfield import analytic, metrics, optimize, simulation
from relayfield.simulation import _sampler, _simulate_chunk
from reference import (
    FadingRealization,
    NoCandidateError,
    Topology,
    draw_fading,
    relay_dest_distance,
    sample_topology,
    select_bulk,
    select_per_subcarrier,
    snr_matrix,
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


@pytest.mark.parametrize("seed, block, message", [
    (1.7, 0, "seed must be an integer in [0, 2**64 - 1], got 1.7"),
    (1, 2.5, "block must be an integer in [0, 2**64 - 1], got 2.5"),
    (-1, 0, "seed must be an integer in [0, 2**64 - 1], got -1"),
    (1, -1, "block must be an integer in [0, 2**64 - 1], got -1"),
    (2**64, 0, "seed must be an integer in [0, 2**64 - 1], got "
               "18446744073709551616"),
    (0, 2**64, "block must be an integer in [0, 2**64 - 1], got "
               "18446744073709551616"),
])
def test_block_rng_rejects_a_key_outside_philox_range(seed, block, message):
    # a float drew its integer part's stream; out of range it overflowed
    with pytest.raises(ValueError, match=re.escape(message)):
        block_rng(seed, block)


def test_block_rng_takes_numpy_integers():
    for seed, block in ((7, 3), (2**64 - 1, 2**64 - 1)):
        assert np.array_equal(
            block_rng(np.uint64(seed), np.uint64(block)).random(4),
            block_rng(seed, block).random(4))


def _hop_gains(params, r, theta, exponential):
    """(2, N, K) hop gains that clear both hops iff exponential >=
    c (r^alpha + r_md^alpha): each exponential split between the hops in
    proportion to c r^alpha and c r_md^alpha."""
    c = params.threshold / params.snr_budget
    first = c * r ** params.path_loss
    second = (c * relay_dest_distance(r, theta, params.r_sd)
              ** params.path_loss)
    total = (first + second)[:, None]
    return np.stack([exponential * first[:, None] / total,
                     exponential * second[:, None] / total])


def _tail_proposal(s, u):
    """(r, acceptance bound) of one tail proposal at uniform u: the
    envelope piece i whose share of the mass holds u, found by a linear
    scan, inverted at the rest of that share, and the bound h(r)/e(r) with
    h(r) = r exp(-c (r^alpha + |r - r_sd|^alpha)) and
    log e(r) = levels[i] + slopes[i] (r - cuts[i])."""
    p = s.params
    c = p.threshold / p.snr_budget
    i = 0
    while i + 1 < len(s.slopes) and s.cumulative[i + 1] <= u:
        i += 1
    slope = s.slopes[i]
    step = (u - s.cumulative[i]) * s.scales[i]  # a flat piece's step
    if slope != 0:
        step = math.log1p(slope * step) / slope
    r = s.cuts[i] + step
    log_h = math.log(r) - c * (r ** p.path_loss
                               + abs(r - p.r_sd) ** p.path_loss)
    return r, math.exp(log_h - (s.levels[i] + slope * step))


def _inner_logs(params, r, theta):
    """(log n_b, log z) of a run of inner relays at radii r and angles
    theta, summed one relay at a time from 0: n_b = prod(1 - g^K) is the
    chance that none serves all K subcarriers, and z = prod(1 - g) that
    none serves a given one, with g = exp(-c (r^alpha + r_md^alpha))."""
    alpha, k = params.path_loss, params.subcarriers
    c = params.threshold / params.snr_budget
    log_nb = log_z = 0.0
    for r_sm, angle in zip(r, theta):
        r_md = relay_dest_distance(r_sm, angle, params.r_sd)
        x = c * (r_sm ** alpha + r_md ** alpha)
        log_nb += math.log1p(-math.exp(-k * x))
        log_z += math.log1p(-math.exp(-x))
    return log_nb, log_z


def _inner_chances(s, rng, trials):
    """(inner relay counts, uniforms v, (1 - n_b, 1 - z) per trial) of
    one block's trials, one trial at a time.

    Each trial's count is count_start plus the number of CDF table
    entries at or below its uniform (none drawn where inner_mean is 0),
    the count a full table from 0 gives, then every trial draws
    its v. Then come rounds of s, 2 s, 4 s, ... relays (s = first_round)
    for the trials still open, each drawing all its radii, then all its
    angles, trial after trial. A trial leaves once its relays run out or
    v < 1 - n_b over those processed so far. Each round's logs are
    summed from 0 (_inner_logs) and then added to the trial's.
    """
    counts = ([s.count_start + bisect.bisect_right(s.count_table, u)
               for u in rng.random(trials)] if s.inner_mean else [0] * trials)
    v = rng.random(trials)
    logs = [[0.0, 0.0] for _ in range(trials)]
    done = [0] * trials
    live = [trial for trial in range(trials) if counts[trial]]
    size = s.first_round
    while live:
        takes = [min(size, counts[trial] - done[trial]) for trial in live]
        r = s.inner_radius * np.sqrt(rng.random(sum(takes)))
        theta = math.pi * rng.random(sum(takes))
        ends = np.cumsum(takes)
        for trial, take, end in zip(live, takes, ends):
            for i, log in enumerate(_inner_logs(
                    s.params, r[end - take:end], theta[end - take:end])):
                logs[trial][i] += log
            done[trial] += take
        live = [trial for trial in live if done[trial] < counts[trial]
                and not v[trial] < -math.expm1(logs[trial][0])]
        size *= 2
    chances = [(-math.expm1(log_nb), -math.expm1(log_z))
               for log_nb, log_z in logs]
    return np.array(counts), v, chances


def _void_walk(s, rng, trials, walks):
    """How many of `trials` trials with no drawn relay are empty, one
    candidate at a time. Each draws N ~ Poisson(annulus_mean) candidates
    uniform on the annulus r_in < r < R, a candidate is a relay iff its
    uniform w < (1 - g)^K, and a trial is empty iff none is. The first
    candidates of the trials with N >= 1 are drawn first, then the other
    N - 1 of those whose first was no relay; each round draws all its
    radii, then all its angles, then all its w. walks gets (trials,
    first-round candidates, second-round candidates)."""
    p = s.params
    c = p.threshold / p.snr_budget
    inner, outer = s.inner_radius ** 2, s.cuts[-1] ** 2

    def found(sizes):
        # per trial, whether one of its sizes[i] candidates is a relay
        m = sum(sizes)
        u, theta, w = rng.random(m), math.pi * rng.random(m), rng.random(m)
        owner = np.repeat(np.arange(len(sizes)), sizes)
        hits = [False] * len(sizes)
        for n in range(m):
            r = math.sqrt(inner + (outer - inner) * u[n])
            r_md = relay_dest_distance(r, theta[n], p.r_sd)
            x = c * (r ** p.path_loss + r_md ** p.path_loss)
            hits[owner[n]] |= w[n] < (-math.expm1(-x)) ** p.subcarriers
        return hits

    walked = [n for n in rng.poisson(s.annulus_mean, trials) if n > 0]
    rest = [n - 1 for n, hit in zip(walked, found([1] * len(walked)))
            if not hit]
    empty = trials - len(walked) + found(rest).count(False)
    walks.append((trials, len(walked), sum(rest)))
    return empty


def _trial_by_trial(params, region, density, seed, trials,
                    streams=block_rng, walks=None):
    """Slow reference on the kernel's block streams, one trial at a time.

    A trial's inner relays serve all K subcarriers with chance
    1 - n_b and each other subcarrier with chance 1 - z, independently
    (_inner_chances, which stops drawing them once v decides). Its
    uniform v decides first: bulk succeeds if v < 1 - n_b, and then ps
    does too, whatever the tail holds. Only the other, open, trials draw
    tail relays. Their kept tail relays and gains become a Topology and
    a FadingRealization, whose SNR matrix says whether one of them
    serves all K (select_bulk) and which subcarriers m of them leave
    unserved (select_per_subcarrier). Then
    bulk succeeds iff a kept tail relay serves all K, and ps iff bulk
    does or v < (1 - z)^m.

    Every tail relay-subcarrier pair draws one uniform u, and
    E = -log u is split into the two hop gains (_hop_gains), so the pair
    is served iff u <= g. A tail survivor's forced subcarrier gets
    E = c (r^alpha + |r - r_sd|^alpha) - log u instead, so it is served
    with probability q / q_hat; the survivor is kept if that subcarrier
    is served and its acceptance uniform times j, the subcarriers its
    SNR row serves, is below its bound. A block without open trials draws
    no tail. On a disc, the trials without inner or kept tail relays, if
    any, then walk their void (_void_walk, which appends to walks if
    given). streams(seed, b) gives block b's Generator.
    """
    s = _sampler(params, region, density)
    alpha, k = params.path_loss, params.subcarriers
    c = params.threshold / params.snr_budget
    n_bulk = n_ps = n_empty = 0
    walks = [] if walks is None else walks
    for b, first in enumerate(range(0, trials, s.length)):
        rng = streams(seed, b)
        counts, v, chances = _inner_chances(s, rng,
                                            min(s.length, trials - first))
        open_trials = [trial for trial in range(len(counts))
                       if not v[trial] < chances[trial][0]]
        tail = Topology(r_sm=np.empty(0), theta=np.empty(0), region=region,
                        density=density)
        gains = np.empty((2, 0, k))
        tail_owner = np.empty(0, dtype=int)
        has_tail = s.tail_mean > 0 and len(open_trials) > 0
        if has_tail:
            tail_counts = rng.poisson(s.tail_mean, len(open_trials))
            proposals = np.array([_tail_proposal(s, u) for u in
                                  rng.random(int(tail_counts.sum()))])
            r_tail, bound = proposals.reshape(-1, 2).T
            accept = rng.random(len(r_tail))
            live = accept < bound
            r_tail, bound, accept = r_tail[live], bound[live], accept[live]
            m = len(r_tail)
            # tail relays lie in the annulus r_in < r < R
            assert np.all(r_tail >= s.inner_radius * (1.0 - 1e-12))
            assert np.all(r_tail <= region.outer_radius() * (1.0 + 1e-12))
            survivors = Topology(r_sm=r_tail,
                                 theta=math.pi * rng.random(m),
                                 region=region, density=density)
            forced = rng.integers(k, size=m)
            exponential = -np.log(rng.random((k, m))).T
            exponential[np.arange(m), forced] += c * (
                r_tail ** alpha + np.abs(r_tail - params.r_sd) ** alpha)
            fading = FadingRealization(gains=_hop_gains(
                params, r_tail, survivors.theta, exponential))
            serves = snr_matrix(params, survivors, fading) >= params.threshold
            keep = (serves[np.arange(m), forced]
                    & (accept * serves.sum(axis=1) < bound))
            tail = Topology(r_sm=r_tail[keep], theta=survivors.theta[keep],
                            region=region, density=density)
            gains = fading.gains[:, keep]
            tail_owner = np.repeat(np.array(open_trials, dtype=int),
                                   tail_counts)[live][keep]
        no_relay = 0
        for trial, (served_all, served_one) in enumerate(chances):
            mine = tail_owner == trial
            kept = Topology(r_sm=tail.r_sm[mine], theta=tail.theta[mine],
                            region=region, density=density)
            bulk, unserved = v[trial] < served_all, k
            if not bulk and kept.n_relays:
                snr = snr_matrix(params, kept,
                                 FadingRealization(gains=gains[:, mine]))
                bulk = select_bulk(snr).achieved.min() >= params.threshold
                unserved = int(np.count_nonzero(
                    select_per_subcarrier(snr).achieved < params.threshold))
            ps = bulk or v[trial] < served_one ** unserved
            no_relay += kept.n_relays == 0 and counts[trial] == 0
            n_bulk += not bulk
            n_ps += not ps
        # relays that serve no subcarrier are not drawn: a trial without
        # drawn relays is empty if the annulus holds none either
        if not has_tail:
            n_empty += no_relay
        elif no_relay and math.isfinite(s.annulus_mean):
            n_empty += _void_walk(s, rng, no_relay, walks)
    return n_bulk, n_ps, n_empty


def test_chunk_matches_object_path(params):
    # the block kernel must reproduce the per-trial oracle exactly, trial
    # by trial, on the same block streams
    cases = {
        "no relays": (params, Region.disc(5.0), 0.0, 300),
        "sparse disc": (params, Region.disc(5.0), 0.08, 400),
        "dense disc": (replace(params, snr_budget=10.0), Region.disc(5.0),
                       2.0, 700),
        "alpha 4, disc 8": (
            replace(params, snr_budget=1000.0, path_loss=4.0,
                    subcarriers=8),
            Region.disc(8.0), 0.05, 300),
        "alpha 3, K 2, disc 20": (
            replace(params, snr_budget=1000.0, path_loss=3.0,
                    subcarriers=2),
            Region.disc(20.0), 0.01, 500),
        "alpha 4, K 1, plane": (
            replace(params, snr_budget=1000.0, path_loss=4.0,
                    subcarriers=1),
            Region.plane(), 0.05, 300),
        "K 2, disc 10": (replace(params, subcarriers=2), Region.disc(10.0),
                         0.006, 500),
    }
    n_blocks, outcomes, walks = {}, {}, {}
    for name, (p, region, density, trials) in cases.items():
        s = _sampler(p, region, density)
        # every run ends in a partly filled block
        assert trials % s.length, name
        n_blocks[name] = -(-trials // s.length)
        walks[name] = []
        expect = _trial_by_trial(p, region, density, 99, trials,
                                 walks=walks[name])
        got = _simulate_chunk(s, 99, trials, 0, n_blocks[name])
        assert got == expect, name
        outcomes[name] = expect
        if density > 0:
            # neither scheme's count is pinned at 0 or at trials
            assert 0 < expect[1] <= expect[0] < trials, name
    assert n_blocks["dense disc"] > 1
    # the last five cases draw tail relays, the discs walk their void
    assert _sampler(*cases["dense disc"][:3]).tail_mean > 0
    # about a third of the trials have no inner relay, and a third are
    # decided by it, so the walk must pair each open trial's inner
    # relays with its own kept tail relays. Both of its rounds draw, and
    # it finds some of the trials without relays empty and some not
    no_relay, first, rest = np.sum(walks["K 2, disc 10"], axis=0)
    assert first > 0 and rest > 0
    assert 50 < outcomes["K 2, disc 10"][2] < no_relay
    # the disc's last envelope piece ends at sigma; the plane's tail
    # starts at r = 0 with a rising piece, and its last piece is
    # unbounded and falls
    disc = _sampler(*cases["alpha 3, K 2, disc 20"][:3])
    assert disc.inner_radius > 0 and disc.cuts[-1] == 20.0
    plane = _sampler(*cases["alpha 4, K 1, plane"][:3])
    assert plane.cuts[0] == 0 and plane.slopes[0] > 0
    assert plane.cuts[-1] == math.inf and plane.slopes[-1] < 0


class _DrawSizes:
    """A block Generator that records in sizes the size of each Poisson
    draw of mean lam, or of each uniform draw if lam is None, and draws
    as the Generator it wraps."""

    def __init__(self, rng, sizes, lam=None):
        self._rng, self._sizes, self._lam = rng, sizes, lam

    def __getattr__(self, name):
        return getattr(self._rng, name)

    def poisson(self, lam, size):
        if lam == self._lam:
            self._sizes.append(size)
        return self._rng.poisson(lam, size)

    def random(self, size):
        if self._lam is None:
            self._sizes.append(size)
        return self._rng.random(size)


def test_inner_relays_stop_once_the_uniform_decides(params, monkeypatch):
    # mc_dense's SNR 1000 point has 259 inner relays per trial, and its
    # bulk outage is 6e-17, so no trial draws a tail: after the counts
    # and v, one uniform per trial each, the block draws radii and angles
    # of rounds of 2, 4, 8, ... relays per open trial, the same as the
    # oracle's, about 10 relays per trial in all
    p = replace(params, snr_budget=1000.0)
    s = _sampler(p, Region.plane(), 0.1)
    assert s.inner_mean > 250 and s.tail_mean > 0 and s.first_round == 2
    trials = 400
    n_blocks = -(-trials // s.length)
    assert n_blocks == 1
    drawn = {"kernel": [], "oracle": []}

    def streams(who):
        return lambda seed, b: _DrawSizes(block_rng(seed, b), drawn[who])

    monkeypatch.setattr(simulation, "block_rng", streams("kernel"))
    got = _simulate_chunk(s, 8, trials, 0, n_blocks)
    assert got == _trial_by_trial(p, Region.plane(), 0.1, 8, trials,
                                  streams("oracle"))
    assert got[:2] == (0, 0)
    sizes = drawn["kernel"]
    assert sizes == drawn["oracle"]
    assert sizes[:2] == [trials, trials]
    # each round draws its radii, then as many angles: round j draws 2^j
    # for each trial still open (none runs out of its relays this soon),
    # every trial is open in the first, and fewer in each later one
    radii, angles = sizes[2::2], sizes[3::2]
    assert radii == angles
    open_ = [n / 2 ** j for j, n in enumerate(radii, 1)]
    assert open_[0] == trials and all(n == int(n) for n in open_)
    assert all(later < first for first, later in zip(open_, open_[1:]))
    assert 5 <= sum(radii) / trials <= 20


def test_block_length_follows_the_relays_processed(params):
    # inner_chance is beta, the mean of g^K over the inner disc, and a
    # trial processes (1 - e^(-mu beta)) / beta inner relays and, left
    # open with chance e^(-mu beta), tail_mean tail proposals on average;
    # a block holds DRAWS_PER_BLOCK of these times K. At mc_dense's SNR
    # 1000 point that is about 1,200 trials, against 19 while a block
    # held every inner relay. The first round takes the mean relays of
    # the open trials, mu e^(-mu beta), 2 if that is less: 2 there, 23
    # at K 8 and SNR 100
    c = params.threshold / 1000.0
    p = replace(params, snr_budget=1000.0)
    s = _sampler(p, Region.plane(), 0.1)

    def g_k(r, theta):
        r_md = relay_dest_distance(r, theta, p.r_sd)
        return r * math.exp(-p.subcarriers * c * (r * r + r_md * r_md))

    mean = integrate.dblquad(g_k, 0.0, math.pi, 0.0, s.inner_radius,
                             epsabs=0, epsrel=1e-10)[0]
    beta = mean / (math.pi * s.inner_radius ** 2 / 2.0)
    assert s.inner_chance == pytest.approx(beta, rel=1e-3)
    open_ = math.exp(-s.inner_mean * s.inner_chance)
    draws = (1.0 - open_) / s.inner_chance + open_ * s.tail_mean
    assert s.length == int(simulation.DRAWS_PER_BLOCK
                           // (draws * p.subcarriers))
    assert 1000 < s.length < 1400
    assert s.first_round == 2
    k_8 = _sampler(replace(params, subcarriers=8), Region.plane(), 0.1)
    open_ = math.exp(-k_8.inner_mean * k_8.inner_chance)
    assert k_8.first_round == int(k_8.inner_mean * open_) == 23


def test_inner_counts_invert_a_poisson_table(params):
    # the inner counts invert the Poisson CDF, which the table holds up
    # to its first value that rounds to 1, past every uniform's 1 - 2^-53
    for density in (0.02, 0.1, 2.0):
        s = _sampler(params, Region.disc(5.0), density)
        mean, table = s.inner_mean, s.count_table
        assert table[-1] == 1.0 and table[-2] < 1.0
        pmf = [math.exp(n * math.log(mean) - mean - math.lgamma(n + 1))
               for n in range(len(table))]
        assert np.allclose(table, np.cumsum(pmf), rtol=1e-12, atol=1e-15)


def test_count_table_starts_at_its_last_exact_zero(params):
    # past inner_mean 745 the head of the Poisson CDF is exact zeros: the
    # table starts at the last of them, count_start, and a uniform u
    # inverts to count_start plus its place in the table, the count the
    # full table from 0 gives, for u = 0, 2^-53 and on both sides of
    # every table entry too. At plane, alpha 2, lambda 0.1, SNR 1e4
    # (inner_mean 2,308) the last zero is at 751
    s = _sampler(replace(params, snr_budget=1e4), Region.plane(), 0.1)
    start, table = s.count_start, s.count_table
    assert 2300 < s.inner_mean < 2320 and start == 751
    full = pdtr(np.arange(start + len(table)), s.inner_mean)
    assert full[-1] == 1.0 and full[-2] < 1.0
    assert not full[:start + 1].any() and full[start + 1] > 0
    assert np.array_equal(full[start:], table)
    inside = table[1:-1]
    u = np.concatenate((np.random.default_rng(3).random(10 ** 6),
                        [0.0, 2.0 ** -53], np.nextafter(inside, 0.0),
                        inside, np.nextafter(inside, 1.0)))
    assert np.array_equal(start + np.searchsorted(table, u, "right"),
                          np.searchsorted(full, u, "right"))
    # at lambda 1, SNR 1e7 (inner_mean 2.2e7) it holds about 47 standard
    # deviations of counts, not 2.2e7 entries
    s = _sampler(replace(params, snr_budget=1e7), Region.plane(), 1.0)
    assert s.inner_mean > 2e7
    assert len(s.count_table) <= 60 * math.sqrt(s.inner_mean) + 100
    assert s.count_table[0] == 0 < s.count_table[1]
    assert s.count_table[-1] == 1.0 and s.count_table[-2] < 1.0


def test_oracle_replays_counts_past_the_table_window(params, monkeypatch):
    # past inner_mean 745 the oracle's counts start at count_start too.
    # At plane, alpha 2, lambda 0.1, SNR 1e4 they are the full table's
    # inversion of the block's first uniforms, though v decides every
    # trial long before its relays run out; at disc 20, alpha 2, K 32,
    # SNR 100, lambda 3 (inner_mean 2,242, count_start 712) the trials
    # do run out, so their counts set the draw sizes and the outcomes
    cases = [(replace(params, snr_budget=1e4), Region.plane(), 0.1, 40),
             (replace(params, subcarriers=32), Region.disc(20.0), 3.0, 30)]
    for p, region, density, trials in cases:
        s = _sampler(p, region, density)
        assert s.count_start > 700
        counts = _inner_chances(s, block_rng(5, 0), trials)[0]
        full = pdtr(np.arange(s.count_start + len(s.count_table)),
                    s.inner_mean)
        assert np.array_equal(counts, np.searchsorted(
            full, block_rng(5, 0).random(trials), "right"))
        drawn = {"kernel": [], "oracle": []}

        def streams(who):
            return lambda seed, b: _DrawSizes(block_rng(seed, b), drawn[who])

        monkeypatch.setattr(simulation, "block_rng", streams("kernel"))
        got = _simulate_chunk(s, 5, trials, 0, -(-trials // s.length))
        monkeypatch.undo()
        assert got == _trial_by_trial(p, region, density, 5, trials,
                                      streams("oracle"))
        assert drawn["kernel"] == drawn["oracle"]
    # the disc's trials mostly end in bulk outage with all their relays
    # processed, but the per-subcarrier scheme serves them
    assert 0 < got[0] < trials and got[1] == 0


def test_tail_is_drawn_only_for_trials_the_inner_relays_leave_open(
        params, monkeypatch):
    # tail counts are drawn once per block with open trials, for the
    # trials whose inner relays give no bulk success. At mc_dense's SNR
    # 1000 point the bulk outage of the inner relays is 6e-17, so no
    # block draws a tail; at alpha 2, K 4, SNR 100, lambda 0.0316 about
    # half of the trials do, the same trials as the oracle's. Short
    # blocks give each run several
    monkeypatch.setattr(simulation, "DRAWS_PER_BLOCK", 1 << 12)
    cases = ((replace(params, snr_budget=1000.0), 0.1, 400, (0, 0)),
             (params, 0.0316, 300, (0.3, 0.7)))
    for p, density, trials, (low, high) in cases:
        s = _sampler(p, Region.plane(), density)
        assert s.tail_mean > 0
        n_blocks = -(-trials // s.length)
        assert n_blocks > 2
        drawn = {"kernel": [], "oracle": []}

        def streams(who):
            return lambda seed, b: _DrawSizes(block_rng(seed, b),
                                              drawn[who], s.tail_mean)

        monkeypatch.setattr(simulation, "block_rng", streams("kernel"))
        got = _simulate_chunk(s, 8, trials, 0, n_blocks)
        assert got == _trial_by_trial(p, Region.plane(), density, 8, trials,
                                      streams("oracle"))
        assert len(drawn["kernel"]) == (n_blocks if high else 0)
        assert drawn["kernel"] == drawn["oracle"]
        assert low <= sum(drawn["kernel"]) / trials <= high


def test_void_walk_counts_are_drawn_for_the_trials_without_relays(
        params, monkeypatch):
    # the walk's candidate counts are drawn once per block, for the
    # trials with no inner and no kept tail relay, the same trials as the
    # oracle's; short blocks give the run several, each with such trials
    monkeypatch.setattr(simulation, "DRAWS_PER_BLOCK", 1 << 9)
    p, region, density = (replace(params, subcarriers=2), Region.disc(10.0),
                          0.006)
    s = _sampler(p, region, density)
    trials = 500
    n_blocks = -(-trials // s.length)
    assert n_blocks > 2
    drawn = {"kernel": [], "oracle": []}

    def streams(who):
        return lambda seed, b: _DrawSizes(block_rng(seed, b), drawn[who],
                                          s.annulus_mean)

    monkeypatch.setattr(simulation, "block_rng", streams("kernel"))
    walks = []
    got = _simulate_chunk(s, 8, trials, 0, n_blocks)
    assert got == _trial_by_trial(p, region, density, 8, trials,
                                  streams("oracle"), walks)
    assert len(drawn["kernel"]) == n_blocks
    assert drawn["kernel"] == drawn["oracle"] == [w[0] for w in walks]
    # about a third of the trials hold no relay
    assert 0.2 <= sum(drawn["kernel"]) / trials <= 0.5


def test_empty_inner_with_a_covering_tail_serves_every_subcarrier(params):
    # at alpha 4, K 2, SNR 100 r_in = 0, so no trial has an inner relay
    # (z = 1): a trial whose kept tail relays cover both subcarriers, but
    # no one of them both, is a ps success only through (1 - z)^0 = 1,
    # which must not read 0^0 as NaN
    p = replace(params, path_loss=4.0, subcarriers=2)
    region = Region.disc(5.0)
    s = _sampler(p, region, 0.3)
    assert s.inner_mean == 0 and s.tail_mean > 0
    trials = 3000
    got = _simulate_chunk(s, 99, trials, 0, -(-trials // s.length))
    assert got == _trial_by_trial(p, region, 0.3, 99, trials)
    assert got[1] < got[0] < trials


def test_one_subcarrier_gives_equal_scheme_counts(params):
    # at K = 1 the two schemes are one event: n_b = z for the inner relays
    # and m = 1 exactly when no kept tail relay serves, so both counts are
    # equal trial by trial. r_in = 0 at K = 1, so the disc drawn whole is
    # built by hand to give the inner part relays.
    p = replace(params, subcarriers=1)
    whole = simulation._Sampler(p, 5.0, 0.1 * math.pi * 25.0, 0.0)
    samplers = [_sampler(p, Region.disc(5.0), 0.1),
                _sampler(p, Region.plane(), 0.02), whole]
    assert [s.tail_mean > 0 for s in samplers] == [True, True, False]
    for s in samplers:
        bulk, ps, _ = _simulate_chunk(s, 7, 5000, 0, -(-5000 // s.length))
        assert 0 < bulk == ps < 5000


def test_disc_without_tail_keeps_its_stream(params):
    # with r_in >= sigma the disc has no tail: the relays are drawn until
    # one uniform per trial decides its outcomes, over several blocks.
    # The pins were (990, 198, 6) and (134, 2, 0) while each pair drew
    # two uniforms, one per hop, (998, 203, 6) and (111, 1, 0) while
    # each relay drew one uniform per subcarrier against g = p q on
    # angles in [0, 2 pi), and (971, 204, 6) and (120, 3, 0) while every
    # inner relay was drawn, before v, and the counts by rng.poisson.
    # Counts by inversion, v right after them and positions in rounds
    # that stop once v decides have the same law but are another stream.
    alpha_4 = replace(params, snr_budget=1000.0, path_loss=4.0)
    for p, density, trials, pinned in ((params, 0.08, 4000, (951, 209, 6)),
                                       (alpha_4, 0.3, 2000, (132, 0, 0))):
        s = _sampler(p, Region.disc(5.0), density)
        assert s.tail_mean == 0 and s.inner_radius == 5.0
        n_blocks = -(-trials // s.length)
        assert n_blocks > 1
        assert _simulate_chunk(s, 99, trials, 0, n_blocks) == pinned


def test_points_without_inner_relays_keep_their_stream(params):
    # where r_in = 0, at K = 1 and on the alpha 4, K 2 disc, no trial has
    # an inner relay and none draws an inner count or position, so the
    # stream is the one of the kernel that drew every inner relay: the
    # pins are that kernel's counts
    k_1, alpha_4 = (replace(params, subcarriers=1),
                    replace(params, path_loss=4.0, subcarriers=2))
    for p, region, density, pinned in (
            (k_1, Region.plane(), 0.02, (1301, 1301, 0)),
            (k_1, Region.disc(5.0), 0.1, (144, 144, 12)),
            (alpha_4, Region.disc(5.0), 0.1, (18680, 18030, 8)),
            (alpha_4, Region.disc(5.0), 0.3, (16363, 12782, 0))):
        s = _sampler(p, region, density)
        assert s.inner_mean == 0 and s.tail_mean > 0
        assert _simulate_chunk(s, 6, 20_000, 0, -(-20_000 // s.length)) == (
            pinned)


def _agrees(p_hat, p, trials):
    # within 4 exact binomial standard errors of the quadrature value
    return abs(p_hat - p) <= 4.0 * math.sqrt(p * (1.0 - p) / trials)


def test_thinned_sampler_agrees_with_quadrature(params):
    # the plane at SNR 1000, K = 1 (r_in = 0: every relay is a tail
    # relay, and the envelope's first piece starts at r = 0), the plane
    # at SNR 100, K 4, lambda 0.0316, where the inner relays leave about
    # half the trials open to draw a tail, and discs of radius 8 and 20
    # whose annulus r_in < r < sigma is drawn thinned
    trials = 40_000
    cases = {
        "alpha 2, plane": (replace(params, snr_budget=1000.0),
                           Region.plane(), 0.002),
        "alpha 4, plane": (replace(params, snr_budget=1000.0, path_loss=4.0),
                           Region.plane(), 0.05),
        "K 1, plane": (replace(params, subcarriers=1), Region.plane(), 0.02),
        "alpha 2, K 4, plane": (params, Region.plane(), 0.0316),
        "alpha 4, K 1, plane": (
            replace(params, snr_budget=1000.0, path_loss=4.0, subcarriers=1),
            Region.plane(), 0.05),
        "disc 20": (params, Region.disc(20.0), 0.005),
        "alpha 3, disc 8": (replace(params, path_loss=3.0), Region.disc(8.0),
                            0.05),
    }
    from_zero = _sampler(*cases["alpha 4, K 1, plane"])
    assert from_zero.cuts[0] == 0 and from_zero.slopes[0] > 0
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


def _log_h(p, r):
    c = p.threshold / p.snr_budget
    return np.log(r) - c * (r ** p.path_loss
                            + np.abs(r - p.r_sd) ** p.path_loss)


def test_tail_envelope_bounds_the_density():
    # the pieces tile r_in < r < R, meet where they change, each holds
    # mass, and together they hold tail_mean / (lambda K 2 pi); on a
    # dense grid of every piece h/e lies in (0, 1]
    flattest = math.inf
    for alpha, k, snr, region in itertools.product(
            (2.0, 3.0, 4.0), (1, 4, 32), (10.0, 100.0, 1000.0),
            (Region.disc(8.0), Region.disc(20.0), Region.plane())):
        p = SystemParams(snr_budget=snr, path_loss=alpha, threshold=1.0,
                         subcarriers=k, r_sd=5.0)
        s = _sampler(p, region, 0.1)
        name = (alpha, k, snr, region)
        if s.tail_mean == 0:
            assert s.inner_radius == region.outer_radius(), name
            continue
        cuts, levels, slopes = s.cuts, s.levels, s.slopes
        assert cuts[0] == s.inner_radius, name
        assert cuts[-1] == region.outer_radius(), name
        assert np.all(np.diff(cuts) > 0), name
        assert np.allclose(levels[:-1] + slopes[:-1] * np.diff(cuts[:-1]),
                           levels[1:], rtol=0, atol=1e-9), name
        assert np.all(np.diff(np.append(s.cumulative, 1.0)) > 0), name
        if cuts[-1] == math.inf:
            assert slopes[-1] < 0, name
        mass = [integrate.quad(lambda r: math.exp(level + slope * (r - lo)),
                               lo, hi, epsabs=0, epsrel=1e-12)[0]
                for lo, hi, level, slope in zip(cuts, cuts[1:], levels,
                                                slopes)]
        assert s.tail_mean == pytest.approx(
            0.1 * k * 2.0 * math.pi * sum(mass), rel=1e-9), name
        assert np.allclose(s.cumulative, np.cumsum([0.0] + mass[:-1])
                           / sum(mass), rtol=0, atol=1e-12), name
        ends = cuts[1:].copy()
        ends[-1] = min(ends[-1], cuts[-2] + 40.0 / abs(slopes[-1]))
        r = np.linspace(cuts[:-1], ends, 400)[1:].T  # row i in piece i
        log_e = levels[:, None] + slopes[:, None] * (r - cuts[:-1, None])
        ratio = np.exp(_log_h(p, r) - log_e)
        assert np.all(ratio > 0) and ratio.max() <= 1.0 + 1e-12, name
        widths = np.diff(cuts)
        flattest = min(flattest, np.min(np.abs(
            slopes * np.where(np.isinf(widths), 1.0, widths))))
    # some tangent touches log h at its maximum
    assert flattest < 1e-4


def test_tail_envelope_inverts_flat_and_falling_pieces(params):
    # a flat piece on [0, 2) of mass 2 and the unbounded piece e^-(r - 2)
    # of mass 1: the share 1/3 lies halfway along the flat piece, the
    # share 2/3 + (1 - e^-1) / 3 one unit into the falling one
    s = simulation._Sampler(
        params, 0.0, 0.0, 1.0, cuts=np.array([0.0, 2.0, math.inf]),
        levels=np.zeros(2), slopes=np.array([0.0, -1.0]),
        cumulative=np.array([0.0, 2.0 / 3.0]), scales=np.full(2, 3.0))
    r, log_e = s.propose(np.array([0.0, 1.0 / 3.0, 2.0 / 3.0,
                                   2.0 / 3.0 + (1.0 - math.exp(-1.0)) / 3.0]))
    assert r == pytest.approx([0.0, 1.0, 2.0, 3.0], rel=1e-14)
    assert log_e == pytest.approx([0.0, 0.0, 0.0, -1.0], abs=1e-14)


def test_tail_envelope_wastes_few_proposals():
    # mc_dense's SNR 1000 point: the thinned tail used to propose 683
    # relays per trial and accept a quarter of them
    p = SystemParams(snr_budget=1000.0, path_loss=2.0, threshold=1.0,
                     subcarriers=4, r_sd=5.0)
    s = _sampler(p, Region.plane(), 0.1)
    assert s.tail_mean <= 200
    r, log_e = s.propose(block_rng(19, 0).random(100_000))
    assert np.exp(_log_h(p, r) - log_e).mean() >= 0.9


def test_empty_fraction_with_a_thinned_tail(params):
    # the empty count must follow the void probability of the whole disc:
    # at SNR 10 r_in = 3.3 < sigma = 5, at alpha 4, K 2, SNR 100 r_in = 0,
    # so that every relay is a tail relay and the whole disc is the
    # annulus that the void walk covers, and at K 2 r_in = 7.8 < sigma =
    # 10, with an empty chance of 0.152
    trials = 40_000
    for p, region, density, r_in in (
            (replace(params, snr_budget=10.0), Region.disc(5.0), 0.02, 3.3),
            (replace(params, path_loss=4.0, subcarriers=2), Region.disc(5.0),
             0.02, 0.0),
            (replace(params, subcarriers=2), Region.disc(10.0), 0.006,
             7.83)):
        s = _sampler(p, region, density)
        assert s.tail_mean > 0
        assert s.inner_radius == pytest.approx(r_in, abs=0.05)
        est = estimate_outage_both(p, region, density, trials=trials,
                                   seed=37)[Scheme.BULK]
        assert _agrees(est.empty_fraction,
                       math.exp(-density * region.area), trials)


@pytest.mark.parametrize("alpha, r_sd, snr, region, density, trials", [
    (6.0, 10.0, 10.0, Region.disc(5.0), 1.0, 1000),
    (4.0, 20.0, 1.0, Region.plane(), 1.0, 1000),
    (2.0, 50.0, 1.0, Region.disc(5.0), 0.01, 20_000)])
def test_tail_below_double_range_still_walks_the_void(
        params, alpha, r_sd, snr, region, density, trials):
    # log h peaks below -1139 at these points, so the tail intensity
    # underflows to 0 (a 0 * inf piece mass made it NaN at the first
    # two), and the void walk must still cover the disc's annulus, where
    # it used to count every trial without an inner relay as empty
    p = replace(params, path_loss=alpha, r_sd=r_sd, snr_budget=snr)
    assert _sampler(p, region, density).tail_mean == 0.0
    both = estimate_outage_both(p, region, density, trials=trials, seed=1)
    assert [est.p_hat for est in both.values()] == [1.0, 1.0]
    empty = both[Scheme.BULK].empty_fraction
    if region.kind == "plane":
        assert empty == 0.0
    else:
        truth = math.exp(-density * region.area)
        assert abs(empty - truth) <= 3.0 * math.sqrt(
            truth * (1.0 - truth) / trials)


def test_simulation_imports_nothing_from_the_analytic_route():
    # the Monte Carlo route checks the quadrature route, so it must not
    # import anything from analytic, metrics or optimize
    forbidden = {"analytic", "metrics", "optimize"}
    tree = ast.parse(Path(simulation.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            # absolute dotted names, the package's own under relayfield
            parts = (["relayfield"] * (node.level > 0)
                     + (node.module.split(".") if node.module else []))
            names = [".".join(parts + [alias.name]) for alias in node.names]
        else:
            continue
        for name in names:
            package, *modules = name.split(".")
            assert not (package == "relayfield" and modules
                        and modules[0] in forbidden), (node.lineno, name)



def _names(path: Path):
    """(line, name) of each name a module's source uses: by name,
    attribute, import or string."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr
        elif isinstance(node, ast.alias):
            yield node.lineno, node.name
        elif isinstance(node, ast.Constant):
            yield node.lineno, node.value


def test_only_analytic_reaches_the_integrator():
    # analytic is the one module that integrates the relay kernel: no
    # other module of the package names its integrator, grids, rules or
    # derivative store, by name, attribute, import or string
    private = {"_integrate", "_grid", "_Rule", "_store"}
    package = Path(simulation.__file__).parent
    assert private <= set(vars(analytic))
    for path in sorted(package.glob("*.py")):
        if path.name == "analytic.py":
            continue
        for line, name in _names(path):
            assert name not in private, (path.name, line, name)


def test_only_simulation_starts_a_pool():
    # which blocks run in which process is decided in simulation alone:
    # no other module of the package names ProcessPoolExecutor, and cli
    # names none of simulation's private sampler names
    package = Path(simulation.__file__).parent
    private = {"_sampler", "_Sampler", "_simulate_chunk"}
    assert private <= set(vars(simulation))
    for path in sorted(package.glob("*.py")):
        if path.name == "simulation.py":
            continue
        forbidden = {"ProcessPoolExecutor"} | (
            private if path.name == "cli.py" else set())
        for line, name in _names(path):
            assert name not in forbidden, (path.name, line, name)


def test_no_public_analysis_function_takes_a_bare_radius():
    # a region reaches the analysis only as a Region, whose constructor
    # checks the disc radius
    for module in (analytic, metrics, optimize):
        for name, obj in vars(module).items():
            if (inspect.isfunction(obj) and not name.startswith("_")
                    and obj.__module__ == module.__name__):
                assert "sigma" not in inspect.signature(obj).parameters, (
                    module.__name__, name)


@pytest.mark.parametrize("density", [math.nan, -1.0, -math.inf, math.inf])
def test_every_sampler_route_rejects_a_bad_density(params, disc, density):
    # block_length, estimate_outage_both and estimate_outage_sweep share
    # _sampler's check, which also rejects the infinite density that the
    # analytic route keeps; trials is still checked first, and density 0
    # still runs
    message = ("density must be finite to simulate" if density == math.inf
               else "density must be >= 0")
    with pytest.raises(ValueError, match=message):
        block_length(params, disc, density)
    with pytest.raises(ValueError, match=message):
        estimate_outage_both(params, disc, density, trials=10, seed=1)
    with pytest.raises(ValueError, match=message):
        estimate_outage_sweep([(params, disc, 0.1, 10, 1),
                               (params, disc, density, 10, 1)])
    with pytest.raises(ValueError, match="trials must be >= 1"):
        estimate_outage_both(params, disc, density, trials=0, seed=1)
    with pytest.raises(ValueError, match="trials must be >= 1"):
        estimate_outage_sweep([(params, disc, density, 0, 1)])
    assert block_length(params, disc, 0.0) >= 1
    empty = estimate_outage_both(params, disc, 0.0, trials=10, seed=1)
    assert empty[Scheme.BULK].p_hat == empty[Scheme.PER_SUBCARRIER].p_hat == 1


@pytest.mark.parametrize("trials, seed, message", [
    (1e4, 1, "trials must be an integer, got 10000.0"),
    (100, 1.7, "seed must be an integer in [0, 2**64 - 1], got 1.7"),
    (100, -1, "seed must be an integer in [0, 2**64 - 1], got -1"),
    (100, 2**64, "seed must be an integer in [0, 2**64 - 1], got "
                 "18446744073709551616"),
    (100, None, "seed must be an integer in [0, 2**64 - 1], got None"),
])
def test_sweep_rejects_a_fractional_or_out_of_range_trials_or_seed(
        params, disc, trials, seed, message):
    # a float seed would run the stream of its integer part and record
    # the float; out of the Philox key's range it overflowed
    with pytest.raises(ValueError, match=re.escape(message)):
        estimate_outage_sweep([(params, disc, 0.2, trials, seed)])
    with pytest.raises(ValueError, match=re.escape(message)):
        estimate_outage_both(params, disc, 0.2, trials, seed)


def test_sweep_takes_numpy_integer_trials_and_seeds(params, disc):
    # as SystemParams.subcarriers does; the largest seed is in range
    for seed in (7, 2**64 - 1):
        assert (estimate_outage_sweep(
                    [(params, disc, 0.2, np.int64(300), np.uint64(seed))])
                == estimate_outage_sweep([(params, disc, 0.2, 300, seed)]))


def test_estimate_outage_zero_density(params):
    est = estimate_outage_both(params, Region.disc(5.0), 0.0, trials=500,
                               seed=3)[Scheme.BULK]
    assert est.p_hat == 1.0
    assert est.empty_fraction == 1.0
    assert est.stderr == 0.0


def test_estimate_outage_matches_floor(params):
    # at sigma = 1 every relay is close enough that outage is dominated
    # by the void event, so p_hat should track exp(-density * area)
    region = Region.disc(1.0)
    density = 0.5
    est = estimate_outage_both(params, region, density, trials=100_000,
                               seed=11)[Scheme.BULK]
    floor = math.exp(-density * region.area)
    assert est.p_hat >= floor - 3 * est.stderr
    assert abs(est.empty_fraction - floor) < 4 * math.sqrt(
        floor * (1 - floor) / est.trials)


def test_workers_do_not_change_results(params, pools, monkeypatch):
    # 4 blocks on 3 processes: below the floor of blocks per worker, so
    # the floor is lowered to 1 to make the point split at all
    monkeypatch.setattr(simulation, "MIN_BLOCKS_PER_WORKER", 1)
    region = Region.disc(5.0)
    assert -(-8000 // block_length(params, region, 0.1)) == 4
    one = estimate_outage_both(params, region, 0.1, trials=8000, seed=5,
                               n_workers=1)
    three = estimate_outage_both(params, region, 0.1, trials=8000, seed=5,
                                 n_workers=3)
    for scheme in Scheme:
        assert one[scheme].p_hat == three[scheme].p_hat
        assert one[scheme].empty_fraction == three[scheme].empty_fraction
    assert [(pool._max_workers, pool.stopped) for pool in pools] == [
        (3, True)]


def test_worker_split_keeps_block_streams(params, pools, monkeypatch):
    # trials not a multiple of the block length, and more workers than
    # blocks: one block (no pool), and three blocks on 2 and 8 workers,
    # split with the floor of blocks per worker lowered to 1
    monkeypatch.setattr(simulation, "MIN_BLOCKS_PER_WORKER", 1)
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
    assert [(pool._max_workers, pool.stopped) for pool in pools] == [
        (2, True), (3, True)]


def test_points_below_the_floor_run_in_process(params, pools):
    # --workers is a ceiling: each process needs MIN_BLOCKS_PER_WORKER of
    # the sweep's blocks, counted over all its points, so 4 blocks stay
    # in this process, 2.5 floors use 2 of 8, and so do two points of one
    # floor each, which would stay in this process one at a time
    region = Region.disc(5.0)
    length = block_length(params, region, 0.1)
    floor = simulation.MIN_BLOCKS_PER_WORKER
    table = (([4], 8, 1), ([2 * floor - 1], 8, 1), ([2 * floor], 8, 2),
             ([5 * floor // 2], 8, 2), ([3 * floor], 2, 2),
             ([3 * floor], 1, 1), ([floor, floor - 1], 8, 1),
             ([floor, floor], 8, 2), ([floor // 2] * 5, 8, 2))
    for blocks, ceiling, used in table:
        started = len(pools)
        points = [(params, region, 0.1, n * length, seed)
                  for seed, n in enumerate(blocks)]
        assert estimate_outage_sweep(points, ceiling)[1] == used
        assert [(pool._max_workers, pool.stopped)
                for pool in pools[started:]] == [(used, True)] * (used > 1)
    one = estimate_outage_both(params, region, 0.1, 4 * length, seed=5)
    started = len(pools)
    assert estimate_outage_both(params, region, 0.1, 4 * length, seed=5,
                                n_workers=8) == one
    assert len(pools) == started


def test_sweep_gives_each_point_its_own_estimates(params, pools):
    # one-block points, a point of three chunks whose last block is
    # partial, disc and plane regions and two trial counts: each point
    # gets exactly what it gets alone, at 1 and 2 workers, and a sweep
    # starts at most one pool, which it shuts down
    plane = Region.plane()
    long = 70 * block_length(params, plane, 0.1) + 123
    points = [(params, Region.disc(5.0), 0.1, 500, 1),
              (params, plane, 0.1, long, 2),
              (replace(params, snr_budget=1000.0), plane, 0.1, 500, 3),
              (params, Region.disc(5.0), 0.2, 500, 4)]
    assert -(-long // block_length(params, plane, 0.1)) == 71
    alone = [estimate_outage_both(*point) for point in points]
    # alone, each point gives the counts of all its blocks in one run
    for (p, region, density, trials, seed), both in zip(points, alone):
        s = _sampler(p, region, density)
        bulk, ps, empty = _simulate_chunk(s, seed, trials, 0,
                                          -(-trials // s.length))
        assert (both[Scheme.BULK].p_hat, both[Scheme.PER_SUBCARRIER].p_hat,
                both[Scheme.BULK].empty_fraction) == (
            bulk / trials, ps / trials, empty / trials)
    assert pools == []
    assert estimate_outage_sweep(points) == (alone, 1)
    assert pools == []
    assert estimate_outage_sweep(points, n_workers=2) == (alone, 2)
    assert [(pool._max_workers, pool.stopped) for pool in pools] == [
        (2, True)]


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
        p_hats.append(estimate_outage_both(p, region, 0.1, trials=20_000,
                                           seed=23)[Scheme.BULK].p_hat)
    assert p_hats[0] < p_hats[1] < p_hats[2]


def test_trials_must_be_positive(params):
    with pytest.raises(ValueError):
        estimate_outage_both(params, Region.disc(5.0), 0.1, trials=0,
                             seed=1)
