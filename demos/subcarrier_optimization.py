"""How many subcarriers should a bulk-selection link carry?

More subcarriers move more data per transmission but raise the outage
probability, since the chosen relay must clear the threshold on every
one of them. The throughput kappa(K, lambda) = K * (1 - Phi_bulk(K))
therefore peaks at a finite K that grows with relay density. With an
outage ceiling Psi the optimum shifts down, and below the cut-off
density no K >= 1 is feasible at all.

Run with  python demos/subcarrier_optimization.py
"""
from relayfield import (
    Region,
    SystemParams,
    cutoff_density,
    optimize_K,
)

PARAMS = SystemParams(snr_budget=100.0, path_loss=2.0, threshold=1.0,
                      subcarriers=4, r_sd=5.0)
REGION = Region.disc(5.0)


def main():
    print(f"{'lambda':>8} {'K relaxed':>10} {'K opt':>6} {'kappa':>9}")
    for density in (0.05, 0.2, 0.5, 1.0, 2.0, 5.0):
        res = optimize_K(PARAMS, REGION, density)
        print(f"{density:>8} {res.k_relaxed:>10.3f} {res.k_opt:>6} "
              f"{res.kappa_opt:>9.3f}")

    psi = 1e-3
    print(f"\nwith outage ceiling Psi = {psi:g} "
          f"(cut-off density {cutoff_density(psi, PARAMS, REGION):.4f}):")
    print(f"{'lambda':>8} {'K opt':>6} {'feasible':>9}")
    for density in (0.02, 0.05, 0.2, 1.0, 5.0):
        res = optimize_K(PARAMS, REGION, density, psi)
        print(f"{density:>8} {res.k_opt:>6} {str(res.feasible):>9}")
    print("\nbelow the cut-off even a single subcarrier misses the "
          "ceiling, so K_opt = 0")


if __name__ == "__main__":
    main()
