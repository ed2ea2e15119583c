"""Monte Carlo estimation of outage and throughput under relay selection.

Both selection schemes operate on a realised relay-by-subcarrier SNR
matrix. A run of n trials is cut into blocks of block_length(...)
consecutive trials, and block b draws from one counter-based Philox
stream keyed by (seed, b): first the Poisson relay counts of all its
trials, then the radii, the angles and the (2, N, K) hop gains of all
N relays of the block, trial after trial. The block length depends only
on the expected relay count per trial and K, and workers always receive
whole blocks, so results depend on the seed and the trial count but are
bitwise identical for any number of workers.

The vectorised kernel reduces each block with segment reductions over
the trials' relays. The object pipeline (Topology, FadingRealization,
select_bulk / select_per_subcarrier, trial_outage) is the per-trial
reference the tests hold it to on the same block stream.
"""
from __future__ import annotations

import enum
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channel import FadingRealization, SystemParams, snr_matrix
from .geometry import Region, Topology

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


class NoCandidateError(ValueError):
    """Selection requested on an empty relay set."""


@dataclass(frozen=True)
class SelectionOutcome:
    """Selected relay and achieved SNR per subcarrier."""

    scheme: Scheme
    chosen: np.ndarray    # relay index per subcarrier
    achieved: np.ndarray  # linear SNR per subcarrier


@dataclass(frozen=True)
class OutageEstimate:
    """Monte Carlo outage probability with its binomial standard error."""

    p_hat: float
    stderr: float
    trials: int
    seed: int
    empty_fraction: float


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


def block_length(region: Region, density: float, subcarriers: int) -> int:
    """Trials per stream block.

    A fixed function of the expected relay-subcarrier pairs per trial,
    so that one block's hop gains stay near DRAWS_PER_BLOCK values
    however dense the field is. It never depends on the trial or worker
    count.
    """
    radius = region.sampling_radius()
    pairs = density * math.pi * radius * radius * subcarriers
    return int(min(max(DRAWS_PER_BLOCK // max(1.0, pairs), 1), MAX_BLOCK))


def block_rng(seed: int, block: int) -> np.random.Generator:
    """Counter-based stream for one block of trials, independent of all others."""
    key = np.array([seed, block], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _block_outages(params: SystemParams, radius: float, mean_count: float,
                   rng: np.random.Generator,
                   n_trials: int) -> tuple[int, int, int]:
    """(bulk outages, per-subcarrier outages, empty topologies) of one block.

    Draw order: the block's relay counts, then the radii, angles and
    (2, N, K) hop gains of all N relays, trial after trial.
    """
    a = params.path_loss
    c = params.threshold / params.snr_budget
    r_sd = params.r_sd
    counts = rng.poisson(mean_count, n_trials)
    n = int(counts.sum())
    r = radius * np.sqrt(rng.random(n))
    theta = 2.0 * math.pi * rng.random(n)
    u = rng.random((2, n, params.subcarriers))
    n_empty = n_trials - int(np.count_nonzero(counts))
    if n == 0:
        return n_trials, n_trials, n_empty
    r_md2 = np.maximum(
        r_sd * r_sd + r * r - 2.0 * r_sd * r * np.cos(theta), 0.0)
    # A hop clears the threshold iff its gain -log1p(-u) is at least
    # c * dist**alpha, i.e. iff u >= -expm1(-c * dist**alpha): one expm1
    # per relay in place of one log per gain.
    ok = u[0] >= -np.expm1(-c * r ** a)[:, None]
    ok &= u[1] >= -np.expm1(-c * r_md2 ** (0.5 * a))[:, None]
    # segment starts of the non-empty trials; empty trials serve nobody
    starts = (np.cumsum(counts) - counts)[counts > 0]
    bulk_served = np.logical_or.reduceat(ok.all(axis=1), starts)
    ps_served = np.logical_or.reduceat(ok, starts, axis=0).all(axis=1)
    return (n_trials - int(np.count_nonzero(bulk_served)),
            n_trials - int(np.count_nonzero(ps_served)), n_empty)


def _simulate_chunk(params: SystemParams, region: Region, density: float,
                    seed: int, trials: int, first: int,
                    stop: int) -> tuple[int, int, int]:
    """(bulk outages, per-subcarrier outages, empty topologies) of blocks
    [first, stop) of a run of `trials` trials.

    Block b holds trials [b * L, min((b + 1) * L, trials)) with
    L = block_length(...), and draws from block_rng(seed, b).
    """
    length = block_length(region, density, params.subcarriers)
    radius = region.sampling_radius()
    mean_count = density * math.pi * radius * radius
    n_bulk = n_ps = n_empty = 0
    for b in range(first, stop):
        n_trials = min(length, trials - b * length)
        bulk, ps, empty = _block_outages(params, radius, mean_count,
                                         block_rng(seed, b), n_trials)
        n_bulk += bulk
        n_ps += ps
        n_empty += empty
    return n_bulk, n_ps, n_empty


def estimate_outage_both(params: SystemParams, region: Region, density: float,
                         trials: int, seed: int,
                         n_workers: int = 1) -> dict[Scheme, OutageEstimate]:
    """Outage estimates for both schemes on a shared trial stream.

    Sharing realisations gives paired samples for ratio estimation and
    halves the simulation cost when both schemes are wanted. Workers
    receive whole blocks, so the result does not depend on n_workers.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    n_blocks = -(-trials // block_length(region, density, params.subcarriers))
    n_chunks = max(1, min(n_workers, n_blocks))
    bounds = np.linspace(0, n_blocks, n_chunks + 1).astype(int).tolist()
    if n_chunks == 1:
        counts = [_simulate_chunk(params, region, density, seed, trials,
                                  0, n_blocks)]
    else:
        with ProcessPoolExecutor(max_workers=n_chunks) as pool:
            counts = list(pool.map(
                _simulate_chunk,
                [params] * n_chunks, [region] * n_chunks,
                [density] * n_chunks, [seed] * n_chunks,
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
