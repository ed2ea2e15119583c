"""When is per-subcarrier selection worth the extra signalling?

Per-subcarrier selection lets every OFDM subcarrier ride its own best
relay, so it can only help; the question is by how much. The advantage
ratio phi(lambda) = Phi_ps / Phi_bulk starts at 1 for an empty network
(both schemes fail together when no relay exists) and falls as relays
densify. This script tabulates the exact ratio, its small-density
quadratic approximation, and the minimum density needed for a target
advantage.

Run with  python demos/scheme_comparison.py
"""
from relayfield import (
    Region,
    SystemParams,
    min_density_for_advantage,
    outage_ratio,
    outage_ratio_approx,
)

PARAMS = SystemParams(snr_budget=100.0, path_loss=2.0, threshold=1.0,
                      subcarriers=4, r_sd=5.0)
REGION = Region.disc(5.0)


def main():
    print(f"{'lambda':>8} {'phi exact':>12} {'phi approx':>12}")
    for density in (0.001, 0.005, 0.02, 0.05, 0.1, 0.2):
        phi = outage_ratio(PARAMS, REGION, density)
        approx = outage_ratio_approx(PARAMS, REGION, density)
        print(f"{density:>8} {phi:>12.6f} {approx:>12.6f}")
    print("\nthe quadratic approximation tracks the exact ratio only "
          "while lambda * Delta(k) stays small\n")

    print(f"{'target phi':>10} {'lambda approx':>14} {'lambda exact':>14}")
    for epsilon in (0.999, 0.99, 0.95):
        res = min_density_for_advantage(epsilon, PARAMS, REGION)
        print(f"{epsilon:>10} {res.density_approx:>14.6f} "
              f"{res.density_exact:>14.6f}")
    print("\nreading: below the exact lambda the cheaper bulk scheme "
          "gives up less than the stated fraction of outage")


if __name__ == "__main__":
    main()
