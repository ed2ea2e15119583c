"""Deployment geometry: the regions a Poisson relay field covers.

Relays are scattered over either a finite disc centred at the source or
the infinite plane. All lengths are relative dimensionless units.
"""
from __future__ import annotations

import math
from dataclasses import dataclass


class ConfigurationError(ValueError):
    """Raised when a region is inconsistently specified."""


class InfiniteAreaError(ValueError):
    """Raised when a finite area is requested for the infinite plane."""


@dataclass(frozen=True)
class Region:
    """Relay deployment domain: kind "disc" (radius required) or "plane"."""

    kind: str
    radius: float | None = None

    def __post_init__(self):
        if self.kind not in ("disc", "plane"):
            raise ConfigurationError(f"unknown region kind {self.kind!r}")
        if self.kind == "disc" and (self.radius is None
                                    or not 0 < self.radius < math.inf):
            raise ConfigurationError("disc region requires radius > 0 and "
                                     f"finite, got {self.radius!r}")

    @classmethod
    def disc(cls, radius: float) -> "Region":
        return cls(kind="disc", radius=radius)

    @classmethod
    def plane(cls) -> "Region":
        return cls(kind="plane")

    @property
    def area(self) -> float:
        """pi * radius**2 for a disc; an error for the infinite plane."""
        if self.kind != "disc":
            raise InfiniteAreaError("the infinite plane has no finite area")
        return math.pi * self.radius**2

    def outer_radius(self) -> float:
        """Distance from the source to the region's edge: the disc
        radius, or inf for the plane."""
        return float(self.radius) if self.kind == "disc" else math.inf


def default_truncation_radius(snr_budget: float, threshold: float,
                              path_loss: float, tail: float = 1e-12) -> float:
    """Radius beyond which even a perfectly faded hop is in outage with
    probability > 1 - tail.

    Chosen so that exp(-(threshold/snr_budget) * R**path_loss) < tail.
    The simulation never truncates the plane; perfbench/gates.py still
    takes the void probability of its plane rows over this radius.
    """
    return (snr_budget / threshold * math.log(1.0 / tail)) ** (1.0 / path_loss)
