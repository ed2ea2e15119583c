"""Monte Carlo estimation of outage and throughput under relay selection.

Both selection schemes operate on a realised relay-by-subcarrier SNR
matrix. Only relays that clear their first hop on at least one
subcarrier can serve either scheme. With c = s/(P_t/N_0), a relay at
distance r clears it on one subcarrier with probability p = exp(-c r^a),
so by the Poisson marking and thinning theorems the sampler draws relays
from the dominating intensity lambda * min(1, K p) and thins them
exactly. That intensity is lambda inside r* = (ln K / c)^(1/a) and
integrable beyond it, so the plane needs no truncation: the sampled
region has outer radius R, the disc radius sigma, or infinity on the
plane.

A run of n trials is cut into blocks of block_length(...) consecutive
trials, and block b draws from one counter-based Philox stream keyed by
(seed, b), in this order:

* inner part, r < min(r*, R), a uniform Poisson disc: the relay counts
  of all the block's trials, then the radii, the angles and the
  (2, N, K) hop uniforms of all N relays, trial after trial. A disc with
  r* >= sigma has only this part and keeps the draws of the brute-force
  sampler that preceded the thinning.
* tail part, r* < r < R, drawn only when that annulus is not empty: the
  point counts of all trials, then for every point t = c r^a, whose law
  is Gamma(2/a) truncated to the annulus, a forced subcarrier, K
  first-hop uniforms and one acceptance uniform. A point clears its
  first hop on the forced subcarrier and on each other one with
  probability p, and is kept with probability 1/j, where j counts its
  successes; the kept points are then the relays with at least one
  first-hop success, each with its exact conditional first-hop pattern.
  The kept points draw their angles and (N_kept, K) second-hop
  uniforms.
* on a disc with a tail, last: how many of the trials with no inner
  and no kept relay are empty, Binomial(n, v), where v is the
  probability that the annulus holds no relay that failed every first
  hop. On the unbounded plane no trial is empty.

The block length depends only on the expected drawn relays per trial and
K, and workers always receive whole blocks, so results depend on the
seed and the trial count but are bitwise identical for any number of
workers.

The vectorised kernel reduces each block with segment reductions over
the trials' relays. The tests hold it to a per-trial object pipeline
(tests/reference.py) replayed on the same block streams.
"""
from __future__ import annotations

import enum
import math
from contextlib import nullcontext
from concurrent.futures import Executor, ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy import integrate, special

from .channel import SystemParams
from .geometry import Region

# Expected relay-subcarrier pairs per block. A block's hop gains then
# take about 2 * 8 * DRAWS_PER_BLOCK bytes (512 KiB) whatever the
# density, which measured faster than larger blocks, and a sparse field
# still gets thousands of trials per numpy call.
DRAWS_PER_BLOCK = 1 << 15
MAX_BLOCK = 8192


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


@dataclass(frozen=True)
class _Sampler:
    """Per-trial constants of the thinned sampler for one grid point.

    With a = 2/alpha, the tail's t = c r^alpha has the Gamma(a) law
    truncated to [ln K, c R^alpha]; q_hi and q_span are the regularised
    upper incomplete gamma Q(a, ln K) and Q(a, ln K) - Q(a, c R^alpha).
    """

    params: SystemParams
    inner_radius: float  # min(r*, R)
    inner_mean: float    # expected inner relays
    tail_mean: float     # expected tail points before thinning; 0: no tail
    q_hi: float = 0.0
    q_span: float = 0.0
    void: float = 0.0    # P(no relay in the annulus fails every first hop)

    @property
    def length(self) -> int:
        """Trials per block: about DRAWS_PER_BLOCK drawn relay-subcarrier
        pairs, whatever the density; never dependent on the trial or
        worker count."""
        pairs = (self.inner_mean + self.tail_mean) * self.params.subcarriers
        return int(min(max(DRAWS_PER_BLOCK // max(1.0, pairs), 1),
                       MAX_BLOCK))

    def tail_t(self, u: np.ndarray) -> np.ndarray:
        """c r^alpha of tail points, by inversion of uniforms u in [0, 1).

        For alpha 2, Q(1, t) = exp(-t) inverts over a thousand times
        faster than gammainccinv.
        """
        q = self.q_hi - u * self.q_span
        if self.params.path_loss == 2.0:
            return -np.log(q)
        return special.gammainccinv(2.0 / self.params.path_loss, q)


def _sampler(params: SystemParams, region: Region,
             density: float) -> _Sampler:
    """The sampler of one grid point; its void needs one quadrature."""
    a = params.path_loss
    k = params.subcarriers
    c = params.threshold / params.snr_budget
    outer = region.outer_radius()
    t_star = math.log(k)
    radius = min((t_star / c) ** (1.0 / a), outer)
    inner_mean = density * math.pi * radius * radius
    if density == 0 or radius == outer:
        return _Sampler(params, radius, inner_mean, 0.0)
    shape = 2.0 / a
    q_hi = float(special.gammaincc(shape, t_star))
    q_span = q_hi - float(special.gammaincc(shape, c * outer ** a))
    # lambda * K * integral of 2 pi r exp(-c r^a) dr over the annulus
    tail_mean = (density * k * 2.0 * math.pi * math.gamma(shape)
                 / (a * c ** shape) * q_span)
    void = 0.0
    if math.isfinite(outer):
        # expected relays of the annulus that fail every first hop
        failed, _ = integrate.quad(
            lambda r: 2.0 * math.pi * r * (-math.expm1(-c * r ** a)) ** k,
            radius, outer, epsabs=0.0, epsrel=1e-10, limit=200)
        void = math.exp(-density * failed)
    return _Sampler(params, radius, inner_mean, tail_mean, q_hi, q_span,
                    void)


def block_length(params: SystemParams, region: Region, density: float) -> int:
    """Trials per stream block at one grid point.

    A fixed function of the expected relays the sampler draws per trial
    (inner and tail parts) and K, so that one block's hop draws stay
    near DRAWS_PER_BLOCK values however dense the field is. It never
    depends on the trial or worker count.
    """
    return _sampler(params, region, density).length


def workers_used(params: SystemParams, region: Region, density: float,
                 trials: int, n_workers: int) -> int:
    """Processes estimate_outage_both runs one grid point on: one per
    block, at most n_workers."""
    n_blocks = -(-trials // block_length(params, region, density))
    return max(1, min(n_workers, n_blocks))


def block_rng(seed: int, block: int) -> np.random.Generator:
    """Counter-based stream for one block of trials, independent of all others."""
    key = np.array([seed, block], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _second_hop_bar(params: SystemParams, r: np.ndarray,
                    theta: np.ndarray) -> np.ndarray:
    """Per relay, the uniform a second-hop draw must reach to clear it.

    A hop clears the threshold iff its gain -log1p(-u) is at least
    c * dist**alpha, i.e. iff u >= -expm1(-c * dist**alpha): one expm1
    per relay in place of one log per gain.
    """
    r_sd = params.r_sd
    r_md2 = np.maximum(
        r_sd * r_sd + r * r - 2.0 * r_sd * r * np.cos(theta), 0.0)
    c = params.threshold / params.snr_budget
    return -np.expm1(-c * r_md2 ** (0.5 * params.path_loss))[:, None]


def _served(ok: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray,
                                                          np.ndarray]:
    """Per trial, whether one relay clears every subcarrier (bulk), and
    per trial and subcarrier whether some relay clears it (ps).

    ok holds the trials' relays one trial after another, counts[i] of
    them for trial i.
    """
    bulk = np.zeros(len(counts), dtype=bool)
    ps = np.zeros((len(counts), ok.shape[1]), dtype=bool)
    if len(ok):
        # segment starts of the non-empty trials; empty trials serve nobody
        nonempty = counts > 0
        starts = (np.cumsum(counts) - counts)[nonempty]
        bulk[nonempty] = np.logical_or.reduceat(ok.all(axis=1), starts)
        ps[nonempty] = np.logical_or.reduceat(ok, starts, axis=0)
    return bulk, ps


def _block_outages(s: _Sampler, rng: np.random.Generator,
                   n_trials: int) -> tuple[int, int, int]:
    """(bulk outages, per-subcarrier outages, empty topologies) of one
    block, in the draw order of the module docstring."""
    params = s.params
    a = params.path_loss
    k = params.subcarriers
    c = params.threshold / params.snr_budget
    counts = rng.poisson(s.inner_mean, n_trials)
    n = int(counts.sum())
    r = s.inner_radius * np.sqrt(rng.random(n))
    theta = 2.0 * math.pi * rng.random(n)
    u = rng.random((2, n, k))
    ok = u[0] >= -np.expm1(-c * r ** a)[:, None]
    ok &= u[1] >= _second_hop_bar(params, r, theta)
    bulk, ps = _served(ok, counts)
    if s.tail_mean == 0:
        n_empty = n_trials - int(np.count_nonzero(counts))
    else:
        tail_counts = rng.poisson(s.tail_mean, n_trials)
        m = int(tail_counts.sum())
        t = s.tail_t(rng.random(m))
        forced = rng.integers(k, size=m)
        first = rng.random((m, k)) >= -np.expm1(-t)[:, None]
        first[np.arange(m), forced] = True
        keep = rng.random(m) * np.count_nonzero(first, axis=1) < 1.0
        kept_counts = np.bincount(
            np.repeat(np.arange(n_trials), tail_counts)[keep],
            minlength=n_trials)
        t, first = t[keep], first[keep]
        r = (t / c) ** (1.0 / a)
        theta = 2.0 * math.pi * rng.random(len(t))
        first &= rng.random((len(t), k)) >= _second_hop_bar(params, r, theta)
        bulk_tail, ps_tail = _served(first, kept_counts)
        bulk |= bulk_tail
        ps |= ps_tail
        no_relay = np.count_nonzero((counts == 0) & (kept_counts == 0))
        n_empty = int(rng.binomial(no_relay, s.void))
    return (n_trials - int(np.count_nonzero(bulk)),
            n_trials - int(np.count_nonzero(ps.all(axis=1))), n_empty)


def _simulate_chunk(s: _Sampler, seed: int, trials: int, first: int,
                    stop: int) -> tuple[int, int, int]:
    """(bulk outages, per-subcarrier outages, empty topologies) of blocks
    [first, stop) of a run of `trials` trials.

    Block b holds trials [b * L, min((b + 1) * L, trials)) with
    L = s.length, and draws from block_rng(seed, b).
    """
    length = s.length
    n_bulk = n_ps = n_empty = 0
    for b in range(first, stop):
        n_trials = min(length, trials - b * length)
        bulk, ps, empty = _block_outages(s, block_rng(seed, b), n_trials)
        n_bulk += bulk
        n_ps += ps
        n_empty += empty
    return n_bulk, n_ps, n_empty


def estimate_outage_both(params: SystemParams, region: Region, density: float,
                         trials: int, seed: int, n_workers: int = 1,
                         pool: Executor | None = None,
                         ) -> dict[Scheme, OutageEstimate]:
    """Outage estimates for both schemes on a shared trial stream.

    Sharing realisations gives paired samples for ratio estimation and
    halves the simulation cost when both schemes are wanted. Workers
    receive whole blocks, so the result does not depend on n_workers.
    Work for more than one worker goes to pool, or to a pool of this
    call's own if none is given.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    s = _sampler(params, region, density)
    n_blocks = -(-trials // s.length)
    n_chunks = max(1, min(n_workers, n_blocks))
    bounds = np.linspace(0, n_blocks, n_chunks + 1).astype(int).tolist()
    if n_chunks == 1:
        counts = [_simulate_chunk(s, seed, trials, 0, n_blocks)]
    else:
        lifetime = (ProcessPoolExecutor(n_chunks) if pool is None
                    else nullcontext(pool))
        with lifetime as workers:
            counts = list(workers.map(
                _simulate_chunk, [s] * n_chunks, [seed] * n_chunks,
                [trials] * n_chunks, bounds[:-1], bounds[1:]))
    n_bulk = sum(c[0] for c in counts)
    n_ps = sum(c[1] for c in counts)
    n_empty = sum(c[2] for c in counts)

    def _estimate(n_out: int) -> OutageEstimate:
        p = n_out / trials
        return OutageEstimate(p_hat=p,
                              stderr=math.sqrt(p * (1.0 - p) / trials),
                              trials=trials, seed=seed,
                              empty_fraction=n_empty / trials)

    return {Scheme.BULK: _estimate(n_bulk),
            Scheme.PER_SUBCARRIER: _estimate(n_ps)}


def estimate_outage(params: SystemParams, region: Region, density: float,
                    scheme: Scheme, trials: int, seed: int,
                    n_workers: int = 1) -> OutageEstimate:
    """Monte Carlo outage probability for one selection scheme."""
    both = estimate_outage_both(params, region, density, trials, seed,
                                n_workers=n_workers)
    return both[scheme]


def estimate_throughput(params: SystemParams, region: Region, density: float,
                        scheme: Scheme, trials: int, seed: int,
                        n_workers: int = 1) -> float:
    """Average successfully decoded subcarriers per transmission, K*(1-p)."""
    est = estimate_outage(params, region, density, scheme, trials, seed,
                          n_workers=n_workers)
    return params.subcarriers * (1.0 - est.p_hat)
