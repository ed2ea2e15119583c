"""The benchmark's workloads: `relayfield` CLI argument lists built from a seed.

Every call spells out the inputs its correctness gate needs (K, alpha,
s, r_SD, SNR), so the gates never depend on the CLI's defaults. The seed
picks the Monte Carlo stream and jitters the lambda and epsilon grids;
the quadrature cost of the plane grids does not depend on lambda, so
seeds change the inputs without changing the amount of work much.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

# Trial counts sized so one pass of a Monte Carlo workload takes about
# one second on a 2-core machine.
MC_SPARSE_TRIALS = 4000
MC_DENSE_TRIALS = 400


@dataclass(frozen=True)
class Call:
    """One `relayfield.cli.main` call and what a correct run writes."""

    opts: dict     # flag name (without "--") -> value, in argv order
    rows: int      # CSV rows a correct run writes
    points: int = 0  # (lambda, SNR) points it simulates

    def argv(self, output: str) -> list[str]:
        argv = []
        for flag, value in self.opts.items():
            argv += [f"--{flag}", str(value)]
        return argv + ["--output", output]


def grid(spec: str) -> list[float]:
    """Values of a CLI list: comma list, or lo:hi:n log grid."""
    if ":" in spec:
        lo, hi, n = spec.split(":")
        return [float(v) for v in np.geomspace(float(lo), float(hi), int(n))]
    return [float(v) for v in spec.split(",")]


def _log_grid(rng: random.Random, lo: float, decades: float, n: int) -> str:
    """lo:hi:n log grid whose start is shifted up by up to a quarter decade."""
    start = lo * 10.0 ** (0.25 * rng.random())
    return f"{start!r}:{start * 10.0 ** decades!r}:{n}"


def _log_values(rng: random.Random, lo: float, hi: float, n: int) -> str:
    span = math.log10(hi / lo)
    values = sorted(lo * 10.0 ** (span * rng.random()) for _ in range(n))
    return ",".join(repr(v) for v in values)


def _mc_seed(rng: random.Random) -> int:
    return rng.randrange(1, 2**31)


def mc_sparse(rng: random.Random) -> list[Call]:
    # 4-16 relays per trial: per-trial Python and Philox re-keying dominate
    opts = {"mode": "simulate", "scheme": "both", "region": "disc",
            "sigma": 5.0, "rsd": 5.0, "K": 4, "alpha": 2.0, "s": 1.0,
            "snr": "100", "lambda": "0.05,0.1,0.2", "workers": 1,
            "trials": MC_SPARSE_TRIALS, "seed": _mc_seed(rng)}
    return [Call(opts, rows=6, points=3)]


def mc_dense(rng: random.Random) -> list[Call]:
    # default truncation radius: about 870 and 8,700 relays per trial
    opts = {"mode": "simulate", "scheme": "both", "region": "plane",
            "rsd": 5.0, "K": 4, "alpha": 2.0, "s": 1.0,
            "snr": "100,1000", "lambda": "0.1", "workers": 2,
            "trials": MC_DENSE_TRIALS, "seed": _mc_seed(rng)}
    return [Call(opts, rows=4, points=2)]


def quad_grid(rng: random.Random) -> list[Call]:
    # u(n) does not depend on lambda, so each SNR's 8 lambdas reuse its
    # u(1..K). One call per SNR: u is never shared across SNRs, and short
    # calls let the reference kernel (run.py) bracket each one closely.
    lambdas = _log_grid(rng, 0.01, 1.75, 8)
    calls = []
    for alpha, k in ((4.0, 32), (2.0, 16)):
        for snr in grid("10:1000:5"):
            opts = {"mode": "analytic", "scheme": "both", "region": "plane",
                    "rsd": 5.0, "K": k, "alpha": alpha, "s": 1.0,
                    "snr": repr(snr), "lambda": lambdas}
            calls.append(Call(opts, rows=8 * 2))
    opts = {"mode": "ratio", "region": "plane", "rsd": 5.0, "K": 8,
            "alpha": 2.0, "s": 1.0, "snr": "100",
            "lambda": _log_values(rng, 0.02, 0.5, 2),
            "epsilon": _log_values(rng, 1e-3, 0.5, 2)}
    calls.append(Call(opts, rows=4))
    return calls


def k_opt(rng: random.Random) -> list[Call]:
    # golden-section search evaluates u at real-valued K: mostly cold calls.
    # The plane densities stay above the psi = 1e-3 cut-off (about 2.5),
    # so every seed solves the same number of feasible problems.
    return [
        Call({"mode": "figure", "figure": "fig7"}, rows=2 * 13),
        Call({"mode": "figure", "figure": "fig8"}, rows=3 * 13),
        Call({"mode": "optimize-k", "region": "plane", "rsd": 5.0, "K": 4,
              "alpha": 4.0, "s": 1.0, "snr": "100", "psi": 1e-3,
              "lambda": _log_grid(rng, 3.0, 1.0, 2)}, rows=2),
    ]


WORKLOADS = {"mc_sparse": mc_sparse, "mc_dense": mc_dense,
             "quad_grid": quad_grid, "k_opt": k_opt}


def build(name: str, seed: int) -> list[Call]:
    """The calls of one workload; the same seed gives the same calls."""
    return WORKLOADS[name](random.Random(f"{name}:{seed}"))
