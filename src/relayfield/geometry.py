"""Deployment geometry: regions, Poisson relay fields and distances.

Relays are scattered over either a finite disc centred at the source or
the infinite plane, optionally truncated to a disc. All lengths are
relative dimensionless units.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class ConfigurationError(ValueError):
    """Raised when a region is inconsistently specified."""


class InfiniteAreaError(ValueError):
    """Raised when a finite area is requested for the infinite plane."""


@dataclass(frozen=True)
class Region:
    """Relay deployment domain.

    kind is "disc" (radius required) or "plane" (an optional
    truncation_radius limits the simulated relays to that disc; analytic
    integrals ignore it).
    """

    kind: str
    radius: float | None = None
    truncation_radius: float | None = None

    def __post_init__(self):
        if self.kind not in ("disc", "plane"):
            raise ConfigurationError(f"unknown region kind {self.kind!r}")
        if self.kind == "disc":
            if self.radius is None or self.radius <= 0:
                raise ConfigurationError("disc region requires radius > 0")
        else:
            if self.truncation_radius is not None and self.truncation_radius <= 0:
                raise ConfigurationError("truncation_radius must be > 0")

    @classmethod
    def disc(cls, radius: float) -> "Region":
        return cls(kind="disc", radius=radius)

    @classmethod
    def plane(cls, truncation_radius: float | None = None) -> "Region":
        return cls(kind="plane", truncation_radius=truncation_radius)

    @property
    def area(self) -> float:
        """Area of the region; an error for the infinite plane."""
        return region_area(self)

    def sampling_radius(self) -> float:
        """Outer radius of the relays a simulation samples: the disc
        radius, the plane's truncation radius, or inf for the plane."""
        if self.kind == "disc":
            return float(self.radius)
        if self.truncation_radius is None:
            return math.inf
        return float(self.truncation_radius)


def region_area(region: Region) -> float:
    """Return pi * radius**2 for a disc; error for the plane."""
    if region.kind != "disc":
        raise InfiniteAreaError("the infinite plane has no finite area")
    return math.pi * region.radius**2


def default_truncation_radius(snr_budget: float, threshold: float,
                              path_loss: float, tail: float = 1e-12) -> float:
    """Truncation radius beyond which relays cannot help.

    Chosen so that exp(-(threshold/snr_budget) * R**path_loss) < tail,
    i.e. even a perfectly faded hop of that length is in outage with
    probability > 1 - tail.
    """
    return (snr_budget / threshold * math.log(1.0 / tail)) ** (1.0 / path_loss)


@dataclass(frozen=True)
class RelayPoint:
    """Polar position of one relay relative to the source at the origin."""

    r_sm: float
    theta: float

    def __post_init__(self):
        if self.r_sm < 0:
            raise ConfigurationError("r_sm must be >= 0")


@dataclass(frozen=True)
class Topology:
    """One sampled relay configuration (array-backed for speed)."""

    r_sm: np.ndarray
    theta: np.ndarray
    region: Region
    density: float

    @property
    def n_relays(self) -> int:
        return len(self.r_sm)

    @property
    def relays(self) -> tuple[RelayPoint, ...]:
        return tuple(RelayPoint(float(r), float(t))
                     for r, t in zip(self.r_sm, self.theta))

    @classmethod
    def from_points(cls, points, region: Region, density: float) -> "Topology":
        return cls(r_sm=np.array([p.r_sm for p in points], dtype=float),
                   theta=np.array([p.theta for p in points], dtype=float),
                   region=region, density=density)


def sample_topology(region: Region, density: float,
                    rng: np.random.Generator) -> Topology:
    """Draw one homogeneous PPP realisation over the region.

    The relay count is Poisson(density * area); given the count, points
    are uniform over the sampled disc (radius density proportional to r).
    """
    if density < 0:
        raise ConfigurationError("density must be >= 0")
    radius = region.sampling_radius()
    if math.isinf(radius):
        raise ConfigurationError(
            "the untruncated plane holds infinitely many relays; give the "
            "plane a truncation_radius")
    area = math.pi * radius**2
    n = rng.poisson(density * area)
    r = radius * np.sqrt(rng.random(n))
    theta = 2.0 * math.pi * rng.random(n)
    return Topology(r_sm=r, theta=theta, region=region, density=density)


def relay_dest_distance(r_sm, theta, r_sd):
    """Relay-to-destination distance by the law of cosines.

    Accepts scalars or numpy arrays.
    """
    d2 = r_sd**2 + np.asarray(r_sm) ** 2 - 2.0 * r_sd * np.asarray(r_sm) * np.cos(theta)
    # roundoff can push the collocated case slightly negative
    return np.sqrt(np.maximum(d2, 0.0))
