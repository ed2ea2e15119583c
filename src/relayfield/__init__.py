"""Outage, throughput and relay-selection analysis for two-hop OFDM
networks whose decode-and-forward relays form a homogeneous Poisson
point process.

Two parallel evaluation paths are provided for every outage quantity:
Monte Carlo simulation (`simulation`) and Gauss-Legendre quadrature
analytics (`analytic`), with scheme-comparison metrics (`metrics`),
subcarrier optimisation (`optimize`) and a sweep CLI (`cli`) on top.
"""

from .analytic import (
    DEFAULT_QUADRATURE,
    DomainError,
    NumericalInstabilityError,
    QuadratureError,
    QuadratureSettings,
    asymptotic_bulk_disc,
    asymptotic_ps_disc,
    exp_integral_E,
    log_outage_bulk,
    lower_incomplete_gamma,
    outage_bulk,
    outage_bulk_plane_freespace,
    outage_floor,
    outage_ps,
    outage_ps_plane_freespace,
    tau_alpha,
    u,
)
from .channel import SystemParams
from .geometry import ConfigurationError, InfiniteAreaError, Region
from .metrics import (
    MinDensityResult,
    appendix_bound_T1,
    delta_k,
    diversity_slope,
    min_density_for_advantage,
    outage_ratio,
    outage_ratio_approx,
)
from .optimize import (
    ConvergenceError,
    OptimizationResult,
    UnboundedOptimumError,
    cutoff_density,
    cutoff_density_freespace,
    optimize_K,
    optimize_K_sweep,
    throughput,
)
from .simulation import (
    OutageEstimate,
    Scheme,
    block_length,
    block_rng,
    estimate_outage_both,
    estimate_outage_sweep,
)

__version__ = "0.1.0"
