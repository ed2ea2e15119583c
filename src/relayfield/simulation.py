"""Monte Carlo estimation of outage and throughput under relay selection.

Both selection schemes operate on a realised relay-by-subcarrier SNR
matrix, and a relay serves a subcarrier only if both of its hops clear
the threshold there. With c = s/(P_t/N_0), a relay at distance r from
the source and r_md from the destination does so with probability
g = p q, p = exp(-c r^a) and q = exp(-c r_md^a), independently on each
subcarrier, so one event of chance g decides both hops. Relays that serve
no subcarrier cannot serve either scheme, and by the Poisson marking
and thinning theorems the sampler draws the others exactly. With
q_hat = exp(-c |r - r_sd|^a) >= q, all relays inside r_in are drawn,
where r_in is the outer root of K p q_hat = 1, and beyond it only
relays of the intensity lambda K p q_hat < lambda, which are thinned.
So the plane needs no truncation: the sampled region has outer radius
R, the disc radius sigma, or infinity on the plane.

Candidates uniform on an annulus are drawn for each trial in rounds, by
one loop (_rounds) that serves the inner relays and the disc's void:
round j takes sizes[j] candidates of each trial still open, or those it
has left, and draws all their radii, then all their angles, trial after
trial; a trial leaves once its candidates run out or the candidates
drawn so far decide it. Given its count, a Poisson field's points are
i.i.d. (Kingman, Poisson Processes, 1993, 5.1), so any prefix of them
is a fair sample, and each decision below, once made on a prefix,
holds on all of them. Only cos theta enters g, and the field is
symmetric about the S-D axis, so angles are drawn on [0, pi).

A run of n trials is cut into blocks of block_length(...) consecutive
trials, and block b draws from one counter-based Philox stream keyed by
(seed, b), in this order:

* inner part, r < r_in (at most R), a uniform Poisson disc: the relay
  counts of all the block's trials, one uniform each, inverted on a
  table of the Poisson CDF (from its last exact zero), then one uniform
  v per trial, then the relays in rounds of s 2^j (s is 2, or more where
  the inner relays rarely decide a trial: _Sampler.first_round). No
  inner relay serves a given subcarrier with chance z = prod(1 - g), and
  none serves all K with chance n_b = prod(1 - g^K), sums of log1p over
  the trial's relays. Bulk succeeds iff v < 1 - n_b or a kept tail relay
  (below) serves all K, and ps iff bulk does or v < (1 - z)^m, where m
  counts the subcarriers that no kept tail relay serves. The inner
  relays serve those m with chance (1 - z)^m >= 1 - n_b, so one v gives
  the pair of outcomes its exact joint law, and v < 1 - n_b decides a
  trial: it succeeds in both schemes whatever else it holds, and n_b
  only falls as relays are added. The trials left open are those with
  v >= 1 - n_b over all their relays. r_in is 0 where K p q_hat < 1
  everywhere, as at K = 1, and then no count or position is drawn and
  every trial is open.
* tail part, r_in < r < R, drawn only when that annulus is not empty,
  and only for the open trials, in their order, so not at all in a block
  without them (the tail is independent of the inner part and of v):
  the proposal counts of the open trials, then one uniform per proposal
  that picks a piece of the envelope e >= h (below) and inverts inside
  it, then one acceptance uniform per proposal, which must stay below
  h(r)/e(r). Here h(r) = r p q_hat = r exp(-c (r^alpha + |r - r_sd|^alpha)),
  so that the survivors have the radial intensity lambda K 2 pi h. h is
  log-concave for alpha >= 2, so tangents of log h lie above it, and e is
  the least of a few of them: piecewise exponential, with pieces that
  meet where neighbouring tangents cross (adaptive rejection sampling of
  Gilks and Wild, with fixed tangent points). The survivors draw their
  angles, then a forced subcarrier each, then a (K, M) array of uniforms
  in the same subcarrier-major order: the forced subcarrier is served
  with probability q/q_hat and every other one with probability g. A
  survivor whose forced subcarrier is served is kept with probability
  1/j, where j counts its served subcarriers, by its acceptance uniform
  again (given acceptance, that uniform over its bound is uniform). Each
  success pattern S then has intensity exactly
  lambda g^|S| (1 - g)^(K - |S|).
* on a disc with a tail, last, for the trials with no inner and no
  kept relay (all open), if any: the void walk. The annulus's relays
  that serve nothing form a Poisson field of intensity lambda (1 - g)^K,
  independent of the others, so each such trial draws N ~ Poisson(lambda
  pi (R^2 - r_in^2)) candidates, uniform on the annulus, and is empty
  iff none has a uniform w < (1 - g)^K. After the counts come the
  candidates in two rounds, of 1 and then all the rest, each drawing w
  after the angles; a trial leaves once a candidate passes. That is at
  most e^-x (1 + x) <= 1 candidates per trial, x = lambda * integral
  over the annulus of 1 - (1 - g)^K. On the plane no trial is empty.

The block length depends only on the grid point, through the expected
relays a trial processes and K, and workers always receive whole blocks,
so results depend on the seed and the trial count but are bitwise
identical for any number of workers. A sweep (estimate_outage_sweep)
runs chunks of MIN_BLOCKS_PER_WORKER blocks of all its points in this
process, or on one pool that has at least that many blocks per process.

Per-trial results are reductions over the relays' owners: bincount
sums the inner logs and finds the kept tail relays that serve all K,
and a scatter into a (K, open trials) mask finds the subcarriers they
cover. The tests hold the kernel to a per-trial oracle replayed on the
same block streams: the inner rounds one relay at a time, the object
pipeline of tests/reference.py for the tail, and the walk one
candidate at a time.
"""
from __future__ import annotations

import bisect
import enum
import itertools
import math
import numbers
from contextlib import nullcontext
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy.optimize import brentq
from scipy.special import pdtr

from .channel import SystemParams, check_density
from .geometry import Region

# Expected processed relays (inner relays until v decides the trial, and
# the open trials' tail proposals) times K per block (_Sampler.length).
# It bounds a block's arrays and gives even a dense field's block about
# a thousand trials per numpy call, about 1 ms of work (BENCH_23.json).
DRAWS_PER_BLOCK = 1 << 15
MAX_BLOCK = 8192
# Blocks per chunk of a sweep, and the fewest of its blocks worth a
# process of their own: starting and stopping a pool costs 20-40 ms, and
# with blocks of 0.9-1.5 ms one point on 2 processes broke even at about
# 48 blocks and ran faster from 56 on 2 cores (BENCH_23.json).
MIN_BLOCKS_PER_WORKER = 32
# Drops of log h below its maximum at which the tail envelope touches it
# on each side: for a Gaussian, tangents every 3/4 of a standard
# deviation out to 4.5 of them, which waste about 2 % of the proposals
# (1-6 % over the grid of test_tail_envelope_bounds_the_density)
TANGENT_DROPS = tuple(0.5 * (0.75 * k) ** 2 for k in range(1, 7))


class Scheme(enum.Enum):
    """Relay selection scheme."""

    BULK = "bulk"
    PER_SUBCARRIER = "ps"


@dataclass(frozen=True)
class OutageEstimate:
    """Monte Carlo outage probability with its binomial standard error."""

    p_hat: float
    stderr: float
    trials: int
    seed: int
    empty_fraction: float


@dataclass(frozen=True, eq=False)
class _Sampler:
    """Per-trial constants of the two-hop thinned sampler at one grid point.

    The tail proposes r from the envelope e of h(r) = r p q_hat, whose
    piece i covers cuts[i] <= r < cuts[i + 1] (cuts[-1] = R, inf on the
    plane) with log e = levels[i] + slopes[i] (r - cuts[i]). cumulative
    holds the share of the envelope's mass below each cut, and scales[i]
    turns a share inside piece i into the width a flat piece would need
    for it. Each proposal stands for the radial intensity lambda K 2 pi
    e(r), so tail_mean is lambda K 2 pi times the envelope's mass.
    """

    params: SystemParams
    inner_radius: float  # r_in, at most R
    inner_mean: float    # expected inner relays
    tail_mean: float     # expected tail proposals; 0: no tail
    cuts: np.ndarray | None = None
    levels: np.ndarray | None = None
    slopes: np.ndarray | None = None
    cumulative: np.ndarray | None = None
    scales: np.ndarray | None = None
    annulus_mean: float = 0.0  # expected relays in r_in < r < R (inf)

    @cached_property
    def inner_chance(self) -> float:
        """beta, the mean of g^K over a uniform point of the inner disc,
        by the midpoint rule on 64 rings of equal area by 64 angles in
        [0, pi): a function of the grid point alone, computed once per
        sampler."""
        params = self.params
        mid = (np.arange(64) + 0.5) / 64
        r = self.inner_radius * np.sqrt(mid)[:, None]
        theta = math.pi * mid
        x = (params.threshold / params.snr_budget * r ** params.path_loss
             + _second_hop(params, r, theta))
        return float(np.exp(-params.subcarriers * x).mean())

    @cached_property
    def count_start(self) -> int:
        """Where count_table starts: the last count whose Poisson(inner_mean)
        CDF is exactly 0, found by bisection, or 0 where none is (inner_mean
        below about 745)."""
        positive = bisect.bisect(range(int(self.inner_mean) + 1), 0.0,
                                 key=lambda n: pdtr(n, self.inner_mean))
        return max(positive - 1, 0)

    @cached_property
    def count_table(self) -> np.ndarray:
        """The Poisson(inner_mean) CDF at count_start, count_start + 1, ...,
        up to its first value that rounds to 1, past every uniform's
        1 - 2^-53, built once per sampler: about 47 standard deviations of
        counts, not inner_mean of zeros. As the values left out are 0, a
        uniform u inverts to count_start + searchsorted(table, u, "right").
        """
        mu, start = self.inner_mean, self.count_start
        size = int(mu - start + 10.0 * math.sqrt(mu)) + 40
        while (cdf := pdtr(np.arange(start, start + size), mu))[-1] < 1.0:
            size *= 2
        return cdf[:np.searchsorted(cdf, 1.0) + 1]

    @property
    def first_round(self) -> int:
        """Inner relays per trial in the first round: 2, or mu e^(-mu
        beta) where that is more, the relays per trial of the trials
        that the inner relays leave open, which are processed whatever v
        says. A round costs about 40 numpy calls whatever its size, and
        where the inner relays rarely decide a trial (K 8 to 16), blocks
        hold a few dozen trials, which rounds from 2 slowed by up to 1.7
        times (BENCH_23.json)."""
        mu = self.inner_mean
        return max(2, int(mu * math.exp(-mu * self.inner_chance))) if mu else 2

    @property
    def length(self) -> int:
        """Trials per block: about DRAWS_PER_BLOCK expected processed
        relays times K, whatever the density; never dependent on the
        seed, the trial or the worker count.

        Inner relays are processed until the trial's uniform decides it,
        and a trial stays open after j of them with chance (1 - beta)^j
        (inner_chance), so a trial processes (1 - e^(-mu beta)) / beta of
        them on average with mu = inner_mean (one at a time; the rounds'
        overshoot is left out), and draws tail_mean tail proposals with
        the chance e^(-mu beta) that they leave it open, by the Poisson
        probability generating functional.
        """
        mu = self.inner_mean
        closed = -math.expm1(-mu * self.inner_chance) if mu else 0.0
        inner = closed / self.inner_chance if closed else mu
        pairs = ((inner + (1.0 - closed) * self.tail_mean)
                 * self.params.subcarriers)
        return int(min(max(DRAWS_PER_BLOCK // max(1.0, pairs), 1),
                       MAX_BLOCK))

    def propose(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Tail proposals r by inversion of the envelope at uniforms u in
        [0, 1), and log e(r). u picks the piece whose share of the mass
        holds it and, by the rest of its share, the point inside."""
        piece = np.searchsorted(self.cumulative, u, side="right") - 1
        slope = self.slopes[piece]
        # the step past the piece's start that a flat piece would take,
        # kept where the slope is 0 (the limit of the exponential one)
        step = (u - self.cumulative[piece]) * self.scales[piece]
        np.divide(np.log1p(slope * step), slope, out=step, where=slope != 0)
        return self.cuts[piece] + step, self.levels[piece] + slope * step


def _inner_radius(params: SystemParams) -> float:
    """r_in: the outer root of c (r^alpha + |r - r_sd|^alpha) = ln K, or 0
    where the left side exceeds ln K everywhere (always at K = 1)."""
    alpha, r_sd = params.path_loss, params.r_sd
    level = math.log(params.subcarriers) * params.snr_budget / params.threshold

    def excess(r: float) -> float:
        return r ** alpha + abs(r - r_sd) ** alpha - level

    if excess(0.5 * r_sd) >= 0:
        return 0.0
    return brentq(excess, 0.5 * r_sd, level ** (1.0 / alpha), xtol=1e-12,
                  rtol=1e-14)


def _log_density(params: SystemParams, r: float) -> tuple[float, float]:
    """log h(r) and its derivative at r > 0, for the tail's radial density
    h(r) = r exp(-c (r^alpha + |r - r_sd|^alpha))."""
    alpha, c = params.path_loss, params.threshold / params.snr_budget
    d = r - params.r_sd
    far = abs(d) ** (alpha - 1.0)
    return (math.log(r) - c * (r ** alpha + abs(d) * far),
            1.0 / r - c * alpha * (r ** (alpha - 1.0) + math.copysign(far, d)))


def _tangent_points(params: SystemParams, lo: float,
                    hi: float) -> list[float]:
    """Where the tail envelope touches log h on [lo, hi]: the mode, and on
    each side of it the radii where log h has dropped by TANGENT_DROPS,
    or the end of [lo, hi] if log h has dropped by less there. A point
    within half the first drop of an end on its side is left out, so that
    no two tangents nearly coincide, and so is an end that lies deeper
    than every drop, so that every piece holds a share of the mass."""
    def f(r: float) -> float:
        return _log_density(params, r)[0] if 0 < r < math.inf else -math.inf

    def df(r: float) -> float:
        return _log_density(params, r)[1]

    alpha, c = params.path_loss, params.threshold / params.snr_budget
    # d log h > 0 below min(r_sd, scale) and < 0 beyond max(r_sd, scale)
    scale = (c * alpha) ** (-1.0 / alpha)
    if lo > 0 and df(lo) <= 0:
        mode = lo
    elif hi < math.inf and df(hi) >= 0:
        mode = hi
    else:
        mode = brentq(df, lo if lo > 0 else 0.5 * min(params.r_sd, scale),
                      min(hi, 2.0 * max(params.r_sd, scale)), rtol=1e-3)
    top, margin = f(mode), 0.5 * TANGENT_DROPS[0]
    deepest = top - TANGENT_DROPS[-1]
    f_lo, f_hi = f(lo), f(hi)
    points = {end for end, f_end in ((lo, f_lo), (hi, f_hi))
              if f_end >= deepest}
    if max(f_lo, f_hi) < top - margin:
        points.add(mode)
    # brackets of every drop's radii: log h < log r < deepest below
    # exp(deepest), and log h falls beyond the mode
    left = lo if lo > 0 else 0.5 * min(mode, math.exp(deepest))
    right = hi
    if right == math.inf:
        right = 2.0 * mode
        while f(right) >= deepest:
            right *= 2.0
    for drop in TANGENT_DROPS:
        for end, f_end in ((left, f_lo), (right, f_hi)):
            if f_end < top - drop - margin:
                points.add(brentq(lambda r, level: f(r) - level,
                                  *sorted((end, mode)), args=(top - drop,),
                                  rtol=1e-3))
    return sorted(points)


def _tail_envelope(params: SystemParams, lo: float, hi: float,
                   ) -> tuple[float, dict[str, np.ndarray]]:
    """The envelope's mass and its _Sampler fields on lo < r < hi: the
    least of the tangents of log h at _tangent_points."""
    x = np.array(_tangent_points(params, lo, hi))
    value, slope = np.array([_log_density(params, r) for r in x]).T
    # neighbouring tangents cross between their points; clipping keeps
    # every piece under one tangent, which lies above log h anyway
    cross = ((value[:-1] - slope[:-1] * x[:-1])
             - (value[1:] - slope[1:] * x[1:])) / (slope[1:] - slope[:-1])
    cuts = np.concatenate(([lo], np.clip(cross, x[:-1], x[1:]), [hi]))
    top = value.max()
    level = value - top + slope * (cuts[:-1] - x)  # log e - top at each cut
    # mass of each piece over e^top, as in _Sampler.propose: its width
    # where flat, and -1/slope on the unbounded last piece
    width = np.diff(cuts)
    mass = np.exp(level) * np.divide(np.expm1(slope * width), slope,
                                     out=width.copy(), where=slope != 0)
    total = mass.sum()
    cumulative = np.concatenate(([0.0], np.cumsum(mass[:-1]) / total))
    return math.exp(top) * total, {
        "cuts": cuts, "levels": level + top, "slopes": slope,
        "cumulative": cumulative, "scales": total * np.exp(-level)}


@lru_cache(maxsize=4096)
def _sampler(params: SystemParams, region: Region,
             density: float) -> _Sampler:
    """One grid point's sampler, at a finite density."""
    check_density(density)
    if density == math.inf:
        raise ValueError("density must be finite to simulate")
    outer = region.outer_radius()
    radius = min(_inner_radius(params), outer)
    inner_mean = density * math.pi * radius * radius
    if density == 0 or radius == outer:
        return _Sampler(params, radius, inner_mean, 0.0)
    mass, envelope = _tail_envelope(params, radius, outer)
    tail_mean = density * params.subcarriers * 2.0 * math.pi * mass
    annulus_mean = density * math.pi * (outer * outer - radius * radius)
    return _Sampler(params, radius, inner_mean, tail_mean,
                    annulus_mean=annulus_mean, **envelope)


def block_length(params: SystemParams, region: Region, density: float) -> int:
    """Trials per stream block at one grid point.

    A fixed function of the expected relays the sampler processes per
    trial (inner relays until v decides it, and tail proposals) and K,
    so that one block's work stays near DRAWS_PER_BLOCK values however
    dense the field is (_Sampler.length). It never depends on the seed,
    the trial or the worker count.
    """
    return _sampler(params, region, density).length


def _check_key(name: str, value) -> None:
    """ValueError unless value is an integer in [0, 2**64 - 1], the range
    of a Philox key word; numpy integers pass."""
    if not (isinstance(value, numbers.Integral) and 0 <= value < 2**64):
        raise ValueError(f"{name} must be an integer in [0, 2**64 - 1], "
                         f"got {value!r}")


def block_rng(seed: int, block: int) -> np.random.Generator:
    """Counter-based stream for one block of trials, independent of all
    others; seed and block are the Philox key's two words."""
    _check_key("seed", seed)
    _check_key("block", block)
    key = np.array([seed, block], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _second_hop(params: SystemParams, r: np.ndarray,
                theta: np.ndarray) -> np.ndarray:
    """c * r_md^alpha per relay, r_md its distance to the destination."""
    r_sd = params.r_sd
    r_md2 = np.maximum(
        r_sd * r_sd + r * r - 2.0 * r_sd * r * np.cos(theta), 0.0)
    c = params.threshold / params.snr_budget
    return c * r_md2 ** (0.5 * params.path_loss)


def _rounds(s: _Sampler, rng: np.random.Generator, counts: np.ndarray,
            radius, sizes, decide) -> None:
    """Draw the candidates of each trial with counts[i] > 0 in rounds,
    for the trials still open, until each is decided or has drawn all
    its counts[i].

    Round j takes the next value of the iterator sizes in candidates per
    open trial, or those it has left, and draws all their radii,
    radius(u) for uniforms u, then all their angles on [0, pi), trial
    after trial. decide(live, owner, x) gets the open trials' indices,
    each candidate's position in live and its x = -log g, and returns
    which of live it leaves open.
    """
    params = s.params
    live = np.flatnonzero(counts)
    left = counts[live]
    while len(live):
        take = np.minimum(left, next(sizes))
        r = radius(rng.random(int(take.sum())))
        theta = math.pi * rng.random(len(r))
        x = (params.threshold / params.snr_budget * r ** params.path_loss
             + _second_hop(params, r, theta))
        left -= take
        still = (left > 0) & decide(
            live, np.repeat(np.arange(len(live)), take), x)
        live, left = live[still], left[still]


def _block_outages(s: _Sampler, rng: np.random.Generator,
                   n_trials: int) -> tuple[int, int, int]:
    """(bulk outages, per-subcarrier outages, empty topologies) of one
    block, in the draw order of the module docstring."""
    params = s.params
    alpha, k = params.path_loss, params.subcarriers
    c = params.threshold / params.snr_budget
    counts = (s.count_start + np.searchsorted(
        s.count_table, rng.random(n_trials), "right")
        if s.inner_mean else np.zeros(n_trials, dtype=int))
    v = rng.random(n_trials)
    # per trial, log z = sum log(1 - g) and log n_b = sum log(1 - g^K)
    # over its processed inner relays, g = exp(-x)
    log_z, log_nb = np.zeros(n_trials), np.zeros(n_trials)

    def undecided(live, owner, x):
        log_z[live] += np.bincount(owner, np.log1p(-np.exp(-x)),
                                   minlength=len(live))
        log_nb[live] += np.bincount(owner, np.log1p(-np.exp(-k * x)),
                                    minlength=len(live))
        # n_b only falls as relays are added, so a trial with
        # v < 1 - n_b on a prefix has it on all its relays
        return v[live] >= -np.expm1(log_nb[live])

    _rounds(s, rng, counts, lambda u: s.inner_radius * np.sqrt(u),
            (s.first_round << j for j in itertools.count()), undecided)
    # the inner relays serve all K with chance 1 - n_b, and the unserved
    # subcarriers with chance (1 - z)^unserved >= 1 - n_b (0^0 = 1), so
    # one uniform decides both with their exact joint law; a trial left
    # open has processed all its relays
    bulk = v < -np.expm1(log_nb)
    unserved = k  # subcarriers that no kept tail relay serves
    # a trial that bulk already serves succeeds in both schemes whatever
    # its independent tail holds, and has an inner relay, so only the
    # open trials draw one, and a block without them draws no more
    if s.tail_mean == 0 or bulk.all():
        n_empty = n_trials - int(np.count_nonzero(counts))
    else:
        open_ = np.flatnonzero(~bulk)
        # the trial of each proposal
        owner = np.repeat(open_, rng.poisson(s.tail_mean, len(open_)))
        r, log_envelope = s.propose(rng.random(len(owner)))
        accept = rng.random(len(owner))
        t = c * r ** alpha
        near = c * np.abs(r - params.r_sd) ** alpha  # -log q_hat
        bound = np.exp(np.log(r) - t - near - log_envelope)  # h / e
        live = np.flatnonzero(accept < bound)
        t, r, near, bound, accept, owner = (
            t[live], r[live], near[live], bound[live], accept[live],
            owner[live])
        m = len(t)
        theta = math.pi * rng.random(m)
        forced = rng.integers(k, size=m)
        u = rng.random((k, m))
        second = _second_hop(params, r, theta)
        ok = u < np.exp(-t - second)
        cols = np.arange(m)
        ok[forced, cols] = u[forced, cols] < np.exp(near - second)
        j = ok.sum(axis=0)
        keep = np.flatnonzero(ok[forced, cols] & (accept * j < bound))
        # per trial, whether a kept relay serves all K, and which
        # subcarriers some kept relay serves
        owner = owner[keep]
        bulk |= np.bincount(owner, j[keep] == k, minlength=n_trials) > 0
        cover = np.zeros((k, n_trials), dtype=bool)
        sub, col = np.nonzero(ok[:, keep])
        cover[sub, owner[col]] = True
        unserved = k - np.count_nonzero(cover, axis=0)
        # trials with no inner and no kept relay: every kept relay serves
        # its forced subcarrier, so one that kept none has all K unserved
        no_relay = np.count_nonzero((counts == 0) & (unserved == k))
        n_empty = 0
        # an empty walk would cost about 80 us (2-core x86-64 VM)
        if no_relay and math.isfinite(s.annulus_mean):
            # the annulus's relays that serve nothing, among uniform
            # candidates, each one with chance (1 - g)^K
            inner = s.inner_radius * s.inner_radius
            spread = s.cuts[-1] * s.cuts[-1] - inner  # R^2 - r_in^2
            candidates = rng.poisson(s.annulus_mean, no_relay)
            found = []

            def unfound(live, owner, x):
                passed = rng.random(len(x)) < (-np.expm1(-x)) ** k
                hit = np.bincount(owner[passed], minlength=len(live)) > 0
                found.append(int(np.count_nonzero(hit)))
                return ~hit

            _rounds(s, rng, candidates, lambda u: np.sqrt(inner + spread * u),
                    iter((1, int(candidates.max()))), unfound)
            n_empty = no_relay - sum(found)
    ps = bulk | (v < (-np.expm1(log_z)) ** unserved)
    return (n_trials - int(np.count_nonzero(bulk)),
            n_trials - int(np.count_nonzero(ps)), n_empty)


def _simulate_chunk(s: _Sampler, seed: int, trials: int, first: int,
                    stop: int) -> tuple[int, int, int]:
    """(bulk outages, per-subcarrier outages, empty topologies) of blocks
    [first, stop) of a run of `trials` trials.

    Block b holds trials [b * L, min((b + 1) * L, trials)) with
    L = s.length, and draws from block_rng(seed, b).
    """
    length = s.length
    counts = (_block_outages(s, block_rng(seed, b),
                             min(length, trials - b * length))
              for b in range(first, stop))
    return tuple(map(sum, zip(*counts)))


def _estimates(trials: int, seed: int, n_bulk: int, n_ps: int,
               n_empty: int) -> dict[Scheme, OutageEstimate]:
    """Both schemes' estimates from a run's outage and empty counts."""
    return {scheme: OutageEstimate(
                p_hat=p, stderr=math.sqrt(p * (1.0 - p) / trials),
                trials=trials, seed=seed, empty_fraction=n_empty / trials)
            for scheme, p in zip(Scheme, (n_bulk / trials, n_ps / trials))}


def estimate_outage_sweep(points, n_workers: int = 1,
                          ) -> tuple[list[dict[Scheme, OutageEstimate]], int]:
    """Outage estimates for both schemes at each point (params, region,
    density, trials, seed) of a sweep, on the point's shared trial
    stream, and the processes that ran them (1: no pool).

    All the points' blocks run in chunks of MIN_BLOCKS_PER_WORKER through
    one map: the builtin one, in this process, or that of one pool of
    min(n_workers, blocks // MIN_BLOCKS_PER_WORKER) processes where that
    is at least 2. A point's counts are summed over its chunks, so its
    estimates depend on its seed and trial count alone: integers, trials
    at least 1 and the seed in [0, 2**64 - 1], the Philox key's range.
    """
    runs, chunks = [], []
    for params, region, density, trials, seed in points:
        if not isinstance(trials, numbers.Integral):
            raise ValueError(f"trials must be an integer, got {trials!r}")
        if not trials >= 1:
            raise ValueError("trials must be >= 1")
        _check_key("seed", seed)
        s = _sampler(params, region, density)
        # built here, so that the sampler each chunk receives carries them
        s.inner_chance, s.count_table
        n_blocks = -(-trials // s.length)
        firsts = range(0, n_blocks, MIN_BLOCKS_PER_WORKER)
        chunks += [(s, seed, trials, first,
                    min(first + MIN_BLOCKS_PER_WORKER, n_blocks))
                   for first in firsts]
        runs.append((trials, seed, len(firsts)))
    blocks = sum(stop - first for *_, first, stop in chunks)
    size = max(1, min(n_workers, blocks // MIN_BLOCKS_PER_WORKER))
    with ProcessPoolExecutor(size) if size > 1 else nullcontext() as pool:
        counts = iter(list(pool.map(_simulate_chunk, *zip(*chunks)) if pool
                           else itertools.starmap(_simulate_chunk, chunks)))
    # each point's chunks come one after another in counts
    return [_estimates(trials, seed,
                       *map(sum, zip(*itertools.islice(counts, n_chunks))))
            for trials, seed, n_chunks in runs], size


def estimate_outage_both(params: SystemParams, region: Region, density: float,
                         trials: int, seed: int, n_workers: int = 1,
                         ) -> dict[Scheme, OutageEstimate]:
    """Outage estimates for both schemes on a shared trial stream.

    Sharing realisations gives paired samples for ratio estimation and
    halves the simulation cost when both schemes are wanted. This is a
    sweep of one point (estimate_outage_sweep).
    """
    return estimate_outage_sweep([(params, region, density, trials, seed)],
                                 n_workers)[0][0]
