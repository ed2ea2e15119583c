"""Physical constants of a two-hop decode-and-forward OFDM link.

Hop gains are i.i.d. unit-mean exponential (Rayleigh fading) per
subcarrier; the end-to-end SNR of a relay link is the minimum of the two
hop SNRs. Everything is in linear scale. `check_density` is the range
check of a relay density that every layer shares.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass


@dataclass(frozen=True)
class SystemParams:
    """Physical constants of one system configuration.

    snr_budget is the transmit-power-to-noise ratio P_t/N_0 (linear),
    threshold the target SNR s (linear), subcarriers the OFDM subcarrier
    count K, r_sd the source-destination distance. The range checks run
    first, then the finiteness of the real fields and K's integrality.
    """

    snr_budget: float
    path_loss: float
    threshold: float
    subcarriers: int
    r_sd: float

    def __post_init__(self):
        if not self.snr_budget > 0:
            raise ValueError("snr_budget must be > 0")
        if not self.path_loss >= 2:
            raise ValueError("path_loss must be >= 2")
        if not self.threshold > 0:
            raise ValueError("threshold must be > 0")
        if not self.subcarriers >= 1:
            raise ValueError("subcarriers must be >= 1")
        if not self.r_sd > 0:
            raise ValueError("r_sd must be > 0")
        for name in ("snr_budget", "path_loss", "threshold", "r_sd"):
            if not math.isfinite(value := getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if not isinstance(self.subcarriers, numbers.Integral):
            raise ValueError("subcarriers must be an integer, got "
                             f"{self.subcarriers!r}")


def check_density(density: float) -> None:
    """The one range check of a relay density: ValueError unless
    density >= 0, so that NaN fails too."""
    if not density >= 0:
        raise ValueError("density must be >= 0")
