"""Outage probability vs transmit SNR, simulation against quadrature.

Reproduces the shape of the classic outage curves on the finite disc:
both selection schemes improve steeply with P_t/N_0 at first, then
flatten onto the void-probability floor exp(-lambda * pi * sigma**2),
because no transmit power helps when the disc happens to be empty.

Run with  python demos/outage_curves.py
"""
import math

import numpy as np

from relayfield import (
    Region,
    Scheme,
    SystemParams,
    estimate_outage_sweep,
    outage_bulk,
    outage_floor,
    outage_ps,
)

DENSITY = 0.02
SIGMA = 5.0
TRIALS = 50_000


def main():
    region = Region.disc(SIGMA)
    floor = outage_floor(DENSITY, region.area)
    print(f"relay density {DENSITY}, disc radius {SIGMA}, "
          f"outage floor {floor:.4f}")
    print(f"{'P_t/N_0 (dB)':>12} {'bulk quad':>11} {'bulk sim':>11} "
          f"{'ps quad':>11} {'ps sim':>11}")
    snrs_db = (0, 10, 20, 30, 40, 50)
    points = [SystemParams(snr_budget=10.0 ** (snr_db / 10.0), path_loss=2.0,
                           threshold=1.0, subcarriers=4, r_sd=5.0)
              for snr_db in snrs_db]
    # the six points' trials run as one sweep, each on its own stream
    simulated, _ = estimate_outage_sweep(
        [(params, region, DENSITY, TRIALS, 1) for params in points])
    for snr_db, params, both in zip(snrs_db, points, simulated):
        print(f"{snr_db:>12} "
              f"{outage_bulk(params, region, DENSITY):>11.4e} "
              f"{both[Scheme.BULK].p_hat:>11.4e} "
              f"{outage_ps(params, region, DENSITY):>11.4e} "
              f"{both[Scheme.PER_SUBCARRIER].p_hat:>11.4e}")
    print("\nboth curves saturate near the floor "
          f"{floor:.4f}: the finite region caps the diversity gain")


if __name__ == "__main__":
    main()
