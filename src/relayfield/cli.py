"""Command-line sweeps: config parsing, CSV emission, figure presets.

Runs are batch-style: a mode, a parameter grid, a CSV output with a
`.meta` text sidecar recording the fully resolved configuration and the
versions of relayfield, numpy, scipy and Python. Exit codes: 0 success,
1 validation or domain error, 2 numerical failure, which is any
ArithmeticError.

Four tables drive the module: `_MODES` maps each mode to the function
that computes its rows and extra `.meta` entries, `_FIGURES` maps each
figure preset to its own, `_OUTAGES` maps each (mode, scheme) to its
outage function, which analytic and asymptotic rows and --verify share,
and `_OPTIONS` gives each setting's flag, config-file keys and parsing.
A CSV's columns are its rows' keys, in the order first seen.
Flags and a config file are only split into text, which `parse_config`
checks alike before it checks the settings together.
"""
from __future__ import annotations

import math
import operator
import os
import sys
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np
import scipy

from . import __version__, analytic, metrics, optimize
from .channel import SystemParams
from .geometry import Region
from .simulation import OutageEstimate, Scheme, estimate_outage_sweep


class ValidationError(ValueError):
    """All configuration problems found, not just the first."""

    def __init__(self, problems: list[str]):
        super().__init__("; ".join(problems))
        self.problems = problems


class NumericalFailure(ArithmeticError):
    """A sweep's rows failed their 3-sigma check against quadrature."""


@dataclass
class ExperimentConfig:
    mode: str
    scheme: str = "bulk"
    densities: list[float] = field(default_factory=lambda: [1.0])
    snrs: list[float] = field(default_factory=lambda: [100.0])
    region_kind: str = "disc"
    sigma: float = 5.0
    rsd: float = 5.0
    subcarriers: int = 4
    alpha: float = 2.0
    threshold: float = 1.0
    trials: int = 100_000
    seed: int = 1
    workers: int = 1
    psi: float | None = None
    epsilons: list[float] = field(default_factory=list)
    output: str = "out.csv"
    abs_tol: float = 1e-10
    rel_tol: float = 1e-8
    figure: str | None = None
    verify: bool = False
    connection: bool = False

    def system_params(self) -> SystemParams:
        return SystemParams(snr_budget=self.snrs[0], path_loss=self.alpha,
                            threshold=self.threshold,
                            subcarriers=self.subcarriers, r_sd=self.rsd)

    def region(self) -> Region:
        if self.region_kind == "plane":
            return Region.plane()
        return Region.disc(self.sigma)

    def quadrature(self) -> analytic.QuadratureSettings:
        return analytic.QuadratureSettings(abs_tol=self.abs_tol,
                                           rel_tol=self.rel_tol)


def _parse_float_list(text: str,
                      scale: Callable[[float], float] = float) -> list[float]:
    """Comma list, or lo:hi:n for n log-spaced values from lo to hi, each
    number given mapped by scale; a ValidationError says why a grid fails.
    """
    if ":" not in text:
        return [scale(float(x)) for x in text.split(",")]
    lo, hi, n = text.split(":")
    lo, hi, n = scale(float(lo)), scale(float(hi)), int(n)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValidationError(["must be finite"])
    if min(lo, hi) <= 0 or n < 1:
        raise ValidationError(["must have lo, hi > 0 and n >= 1 in lo:hi:n"])
    return _log_grid(lo, hi, n)


def _db_to_linear(db: float) -> float:
    """10^(db/10), infinite above double range (about 3083 dB)."""
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        return math.inf


def _parse_db_list(text: str) -> list[float]:
    """dB values converted to linear; lo:hi:n is evenly spaced in dB."""
    return _parse_float_list(text, _db_to_linear)


def _parse_bool(text: str) -> bool:
    word = text.strip().lower()
    if word not in ("1", "true", "yes", "0", "false", "no"):
        raise ValueError(f"not a boolean: {text!r}")
    return word in ("1", "true", "yes")


def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _write_csv(path: str, rows: list[dict]) -> None:
    columns = list(dict.fromkeys(key for row in rows for key in row))
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(row.get(c, "")) for c in columns))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_meta(path: str, cfg: ExperimentConfig, extra: dict) -> None:
    items = {"tool_version": __version__, "numpy_version": np.__version__,
             "scipy_version": scipy.__version__,
             "python_version": "{}.{}.{}".format(*sys.version_info),
             **vars(cfg), **extra}
    with open(path + ".meta", "w", encoding="utf-8") as fh:
        for key, val in items.items():
            fh.write(f"{key} = {val}\n")


# the schemes each --scheme value computes
_SCHEMES = {"bulk": (Scheme.BULK,), "ps": (Scheme.PER_SUBCARRIER,),
            "both": (Scheme.BULK, Scheme.PER_SUBCARRIER)}


# The outage of each (mode, scheme) at a point (params, region, density,
# q): the analytic entries serve analytic rows and --verify, the others
# asymptotic rows, and the expansions take no quadrature settings. Each
# is looked up in analytic per call, where perfbench's tracing wraps it.
_OUTAGES = {
    ("analytic", Scheme.BULK): lambda *point: analytic.outage_bulk(*point),
    ("analytic", Scheme.PER_SUBCARRIER):
        lambda *point: analytic.outage_ps(*point),
    ("asymptotic", Scheme.BULK):
        lambda *point: analytic.asymptotic_bulk_disc(*point[:3]),
    ("asymptotic", Scheme.PER_SUBCARRIER):
        lambda *point: analytic.asymptotic_ps_disc(*point[:3]),
}


def _within_3_sigma(est: OutageEstimate, ref: float) -> bool:
    """Whether a Monte Carlo estimate agrees with the exact outage ref.

    The standard error is also taken from ref itself: the plug-in one is
    0 whenever no outage was observed, which is common and correct when
    ref is far below 1/trials.
    """
    se = max(est.stderr,
             math.sqrt(max(ref * (1.0 - ref), 0.0) / est.trials), 1e-12)
    return abs(est.p_hat - ref) <= 3.0 * se


# A sweep's rows, whose keys are its CSV columns, and its extra .meta
# entries
Sweep = tuple[list[dict], dict]


def _points(cfg: ExperimentConfig) -> list[tuple[SystemParams, float]]:
    """The system parameters and density of each (lambda, SNR) point of
    the grid, density-major; each SNR's parameters are built once and
    shared by its densities."""
    by_snr = [replace(cfg.system_params(), snr_budget=snr)
              for snr in cfg.snrs]
    return [(params, density) for density in cfg.densities
            for params in by_snr]


def _grid_rows(cfg: ExperimentConfig, points: list, fields: list[dict]
               ) -> list[dict]:
    """One row per (lambda, SNR, scheme) point of the grid.

    fields holds one entry per point of points, cfg's _points: a map from
    each scheme of cfg.scheme to its row's fields, p_outage first.
    """
    rows = []
    for (params, density), point in zip(points, fields, strict=True):
        for scheme, extra in point.items():
            row = {"lambda": density, "snr": params.snr_budget,
                   "snr_db": 10.0 * math.log10(params.snr_budget),
                   "K": params.subcarriers, "alpha": params.path_loss,
                   "s": params.threshold, "scheme": scheme.value, **extra}
            if cfg.connection:
                row["connection"] = 1.0 - min(max(row["p_outage"], 0.0), 1.0)
            rows.append(row)
    return rows


def _simulate_rows(*cfgs: ExperimentConfig) -> Sweep:
    """Simulated rows of each of cfgs in turn, from one sweep of all
    their points (simulation.estimate_outage_sweep, with --workers as its
    ceiling). The .meta records the processes that ran the sweep as
    pool_workers, 1 where no pool started."""
    grids = [_points(cfg) for cfg in cfgs]
    estimates, size = estimate_outage_sweep(
        [(params, cfg.region(), density, cfg.trials, cfg.seed)
         for cfg, points in zip(cfgs, grids) for params, density in points],
        max(cfg.workers for cfg in cfgs))
    estimates = iter(estimates)
    rows, meta = [], {}
    for cfg, points in zip(cfgs, grids):
        region, q, fields = cfg.region(), cfg.quadrature(), []
        for params, density in points:
            both, point = next(estimates), {}
            for scheme in _SCHEMES[cfg.scheme]:
                est = both[scheme]
                point[scheme] = {"p_outage": est.p_hat, "stderr": est.stderr,
                                 "empty_fraction": est.empty_fraction}
                if cfg.verify:
                    ref = _OUTAGES["analytic", scheme](params, region,
                                                       density, q)
                    point[scheme].update(p_analytic=ref,
                                         verify_ok=_within_3_sigma(est, ref))
            fields.append(point)
        rows += _grid_rows(cfg, points, fields)
    if any(cfg.verify for cfg in cfgs):
        checked = [row for row in rows if "verify_ok" in row]
        meta["verify_mismatches"] = sum(not row["verify_ok"]
                                        for row in checked)
        # p_hat = 0 agrees whenever ref lies within 3 se of 0, so such a
        # row would pass whatever the run drew: it tests nothing
        meta["verify_unchecked"] = sum(row["verify_ok"]
                                       and row["p_outage"] == 0
                                       for row in checked)
    return rows, {**meta, "pool_workers": size}


def _outage_rows(cfg: ExperimentConfig) -> Sweep:
    """The analytic or asymptotic rows of cfg.mode, from _OUTAGES."""
    q, region, points = cfg.quadrature(), cfg.region(), _points(cfg)
    return _grid_rows(cfg, points, [
        {scheme: {"p_outage": _OUTAGES[cfg.mode, scheme](params, region,
                                                          density, q)}
         for scheme in _SCHEMES[cfg.scheme]}
        for params, density in points]), {}


def _ratio_rows(cfg: ExperimentConfig) -> Sweep:
    q = cfg.quadrature()
    params = cfg.system_params()
    region = cfg.region()
    rows = []
    for density in cfg.densities:
        phi = metrics.outage_ratio(params, region, density, q)
        rows.append({"lambda": density, "phi": phi, "phi_approx":
                     metrics.outage_ratio_approx(params, region, density, q)})
    for eps in cfg.epsilons:
        res = metrics.min_density_for_advantage(eps, params, region, q)
        rows.append({"lambda": res.density_exact, "phi": eps,
                     "epsilon": eps,
                     "lambda_exact": res.density_exact,
                     "lambda_approx": res.density_approx})
    return rows, {}


def _diversity_rows(cfg: ExperimentConfig) -> Sweep:
    q = cfg.quadrature()
    region = cfg.region()
    rows = []
    for density in cfg.densities:
        for lo, hi in zip(cfg.snrs[:-1], cfg.snrs[1:]):
            def log_curve(snr: float) -> float:
                params = replace(cfg.system_params(), snr_budget=snr)
                return analytic.log_outage_bulk(params, region, density, q)
            rows.append({"lambda": density, "snr_lo": lo, "snr_hi": hi,
                         "slope": metrics.diversity_slope(log_curve, lo, hi)})
    return rows, {}


def _optimize_rows(cfg: ExperimentConfig) -> Sweep:
    q = cfg.quadrature()
    params = cfg.system_params()
    region = cfg.region()
    meta = {}
    rows = [{"lambda": density, "K_relaxed": res.k_relaxed,
             "K_opt": res.k_opt, "kappa_opt": res.kappa_opt,
             "feasible": res.feasible}
            for density, res in zip(cfg.densities, optimize.optimize_K_sweep(
                params, region, cfg.densities, cfg.psi, q))]
    if cfg.psi is not None:
        meta["cutoff_density"] = optimize.cutoff_density(cfg.psi, params,
                                                         region, q)
    return rows, meta


def _caption(cfg: ExperimentConfig, **changes) -> ExperimentConfig:
    """cfg with a figure caption's parameters, then the given changes.

    The captions fix the disc of radius 5, r_SD = 5 and s = 1; K = 4,
    alpha = 2 and P_t/N_0 = 100 unless a figure sweeps them.
    """
    return replace(cfg, **{"region_kind": "disc", "sigma": 5.0, "rsd": 5.0,
                           "threshold": 1.0, "subcarriers": 4, "alpha": 2.0,
                           "snrs": [100.0], "psi": None, "epsilons": [],
                           "connection": False, "verify": False, **changes})


def _log_grid(lo: float, hi: float, n: int) -> list[float]:
    return [float(v) for v in np.geomspace(lo, hi, n)]


def _fig2(cfg: ExperimentConfig) -> Sweep:
    # kappa(K, lambda) surface, bulk
    fig = _caption(cfg)
    params, region, q = fig.system_params(), fig.region(), fig.quadrature()
    rows = [{"lambda": density, "K": k,
             "kappa": optimize.throughput(k, params, region, density, q)}
            for density in (0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0)
            for k in range(1, 17)]
    return rows, {}


def _outage_vs_snr(cfg: ExperimentConfig, scheme: str) -> Sweep:
    # fig3 (bulk) and fig4 (per-subcarrier): quadrature and simulation
    # against P_t/N_0 at lambda = 1; a figure plots a 3-sigma miss
    # rather than failing on it, so its .meta keeps only pool_workers
    rows, meta = _simulate_rows(*[
        _caption(cfg, alpha=alpha, subcarriers=k, scheme=scheme,
                 densities=[1.0], snrs=_log_grid(1.0, 1e4, 9), verify=True)
        for alpha in (2.0, 4.0) for k in (2, 4)])
    return ([{"alpha": row["alpha"], "K": row["K"], "snr": row["snr"],
              "snr_db": row["snr_db"], "p_analytic": row["p_analytic"],
              "p_sim": row["p_outage"], "stderr": row["stderr"]}
             for row in rows], {"pool_workers": meta["pool_workers"]})


def _fig5(cfg: ExperimentConfig) -> Sweep:
    # connection probability vs density
    rows = []
    for alpha in (2.0, 4.0):
        fig = _caption(cfg, mode="analytic", alpha=alpha, scheme="both",
                       densities=_log_grid(1e-3, 2.0, 12))
        grid = _outage_rows(fig)[0]
        rows += [{"alpha": alpha, "lambda": bulk["lambda"],
                  "connection_bulk": 1.0 - bulk["p_outage"],
                  "connection_ps": 1.0 - ps["p_outage"]}
                 for bulk, ps in zip(grid[::2], grid[1::2])]
    return rows, {}


def _fig6(cfg: ExperimentConfig) -> Sweep:
    # exact vs approximate minimum density over the advantage target;
    # the caption gives sigma, r_SD and K; P_t/N_0 = 100 is assumed
    epsbars = _log_grid(1e-6, 1e-2, 9)
    fig = _caption(cfg, densities=[], epsilons=[1.0 - e for e in epsbars])
    rows = [{"epsbar": e, "lambda_exact": row["lambda_exact"],
             "lambda_approx": row["lambda_approx"]}
            for e, row in zip(epsbars, _ratio_rows(fig)[0])]
    return rows, {"assumed_snr": 100.0}


def _fig7(cfg: ExperimentConfig) -> Sweep:
    # unconstrained K_opt and max throughput vs density
    rows = [{"alpha": alpha, "lambda": row["lambda"],
             "K_relaxed": row["K_relaxed"], "K_opt": row["K_opt"],
             "kappa_opt": row["kappa_opt"]} for alpha in (2.0, 4.0)
            for row in _optimize_rows(_caption(
                cfg, alpha=alpha, densities=_log_grid(0.05, 5.0, 13)))[0]]
    return rows, {}


def _fig8(cfg: ExperimentConfig) -> Sweep:
    # constrained K_opt vs density for outage ceilings: every (ceiling,
    # density) pair in one lockstep sweep, so that a density's three
    # ceilings share its peak search's integrator passes
    psis = (1e-2, 1e-3, 1e-5)
    fig = _caption(cfg, densities=_log_grid(0.05, 5.0, 13))
    params, region, q = fig.system_params(), fig.region(), fig.quadrature()
    pairs = [(psi, density) for psi in psis for density in fig.densities]
    solved = optimize.optimize_K_sweep(
        params, region, [density for _, density in pairs],
        [psi for psi, _ in pairs], q)
    rows = [{"psi": psi, "lambda": density, "K_opt": res.k_opt,
             "feasible": res.feasible}
            for (psi, density), res in zip(pairs, solved)]
    meta = {f"cutoff_density_psi_{psi:g}":
            optimize.cutoff_density(psi, params, region, q) for psi in psis}
    return rows, meta


_FIGURES = {
    "fig2": _fig2,
    "fig3": lambda cfg: _outage_vs_snr(cfg, "bulk"),
    "fig4": lambda cfg: _outage_vs_snr(cfg, "ps"),
    "fig5": _fig5,
    "fig6": _fig6,
    "fig7": _fig7,
    "fig8": _fig8,
}
FIGURES = tuple(_FIGURES)


def _figure_rows(cfg: ExperimentConfig) -> Sweep:
    rows, meta = _FIGURES[cfg.figure](cfg)
    return rows, {"figure": cfg.figure, **meta}


_MODES = {
    "simulate": _simulate_rows,
    "analytic": _outage_rows,
    "asymptotic": _outage_rows,
    "ratio": _ratio_rows,
    "diversity": _diversity_rows,
    "optimize-k": _optimize_rows,
    "figure": _figure_rows,
}
MODES = tuple(_MODES)

_COMPARE = {">": operator.gt, ">=": operator.ge, "<=": operator.le}


class _Option(NamedTuple):
    """One setting: the ExperimentConfig field it sets and its flag.

    Flag text and config-file text alike go through cast, the choices
    check, a finiteness check of every float value, and bounds, a flat
    sequence of (comparison, limit) pairs that every value must meet. A
    config file may use the field name or key.
    """

    name: str
    flag: str
    cast: Callable[[str], object] = str
    help: str = ""
    choices: tuple = ()
    bounds: tuple = ()

    @property
    def key(self) -> str:
        """The flag without dashes: its config-file key."""
        return self.flag[2:].replace("-", "_")

    def parse(self, text: str, label: str):
        """The value a text gives; a ValueError says what is wrong."""
        try:
            value = self.cast(text)
        except ValidationError as exc:  # a grid's own reason
            raise ValueError(f"{label} {exc}, got {text}") from None
        except (ValueError, OverflowError):
            raise ValueError(f"{label}: cannot parse {text!r}") from None
        if self.choices and value not in self.choices:
            raise ValueError(f"{label} must be one of "
                             f"{', '.join(self.choices)}, got {text!r}")
        limits = list(zip(self.bounds[::2], self.bounds[1::2]))
        values = value if isinstance(value, list) else [value]
        if not all(math.isfinite(v) for v in values if isinstance(v, float)):
            raise ValueError(f"{label} must be finite, got {text}")
        if not all(_COMPARE[op](v, limit)
                   for op, limit in limits for v in values):
            rule = " and ".join(f"{op} {limit}" for op, limit in limits)
            raise ValueError(f"{label} must be {rule}, got {text}")
        return value


_OPTIONS = (
    _Option("mode", "--mode", choices=MODES),
    _Option("scheme", "--scheme", choices=tuple(_SCHEMES)),
    _Option("densities", "--lambda", _parse_float_list,
            "relay densities (comma list or lo:hi:n log grid)",
            bounds=(">=", 0)),
    _Option("snrs", "--snr", _parse_float_list,
            "P_t/N_0 values, linear (comma list or lo:hi:n)",
            bounds=(">", 0)),
    _Option("snrs", "--snr-db", _parse_db_list,
            "P_t/N_0 values in dB (comma list or lo:hi:n)", bounds=(">", 0)),
    _Option("region_kind", "--region", choices=("disc", "plane")),
    _Option("sigma", "--sigma", float, "disc radius", bounds=(">", 0)),
    _Option("rsd", "--rsd", float, "source-destination distance",
            bounds=(">", 0)),
    _Option("subcarriers", "--K", int, bounds=(">=", 1)),
    _Option("alpha", "--alpha", float, "path loss exponent (>= 2)",
            bounds=(">=", 2)),
    _Option("threshold", "--s", float, "SNR threshold, linear",
            bounds=(">", 0)),
    _Option("trials", "--trials", int, bounds=(">=", 1)),
    _Option("seed", "--seed", int, bounds=(">=", 0, "<=", 2**64 - 1)),
    _Option("workers", "--workers", int, bounds=(">=", 1)),
    _Option("psi", "--psi", float, "outage ceiling for optimize-k",
            bounds=(">", 0, "<=", 1)),
    _Option("epsilons", "--epsilon", _parse_float_list,
            "ratio targets for mode ratio", bounds=(">", 0, "<=", 1)),
    _Option("output", "--output", help="CSV output path"),
    _Option("abs_tol", "--abs-tol", float, bounds=(">", 0)),
    _Option("rel_tol", "--rel-tol", float, bounds=(">", 0)),
    _Option("figure", "--figure", choices=FIGURES),
    _Option("verify", "--verify", _parse_bool,
            "simulate mode: check 3-sigma agreement vs quadrature"),
    _Option("connection", "--connection", _parse_bool,
            "emit connection probability (1 - outage) columns"),
)


def _read_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValidationError(
                    [f"{path}:{lineno}: expected 'key = value'"])
            key, value = line.split("=", 1)
            values[key.strip().replace("-", "_")] = value.strip()
    return values


def _usage() -> str:
    """The --help text: each flag, the values it takes and its help."""
    rows = [("--config FILE", "key = value config file; flags override")]
    for opt in _OPTIONS:
        value = ("{%s}" % ",".join(opt.choices) if opt.choices else
                 "" if opt.cast is _parse_bool else opt.key.upper())
        rows.append((f"{opt.flag} {value}", opt.help))
    return "\n".join(
        ["usage: relayfield --mode MODE [--flag value | --flag=value] ...", "",
         *(f"  {flag:<22} {text}".rstrip() for flag, text in rows)])


def _read_argv(argv: list[str]) -> tuple[dict[str, str | None], list[str]]:
    """The text each flag of argv gives (None where argv ends first), and
    the arguments that are neither a flag nor a flag's value.

    Like `_read_config_file`, this only splits text. A whole flag takes
    the next argument, whatever it starts with, or the text of
    --flag=text; a boolean flag takes none and gives "true". A repeated
    flag keeps its last value. --help prints the usage and exits 0.
    """
    switches = {opt.flag for opt in _OPTIONS if opt.cast is _parse_bool}
    takes_value = {"--config", *(opt.flag for opt in _OPTIONS)} - switches
    texts, unknown = {}, []
    args = iter(argv)
    for arg in args:
        if arg in ("-h", "--help"):
            print(_usage())
            raise SystemExit(0)
        flag, eq, text = arg.partition("=")
        if flag in takes_value:
            texts[flag] = text if eq else next(args, None)
        elif arg in switches:
            texts[arg] = "true"
        else:
            unknown.append(arg)
    return texts, unknown


def parse_config(argv: list[str]) -> ExperimentConfig:
    """Build a validated config from flags plus an optional config file.

    A flag overrides the file's value for the same field. Flag and file
    text are checked alike, and every problem found is reported in one
    ValidationError.
    """
    texts, unknown = _read_argv(argv)
    problems = ([f"unrecognized arguments: {' '.join(unknown)}"]
                if unknown else [])
    problems += [f"{flag} needs a value" for flag, text in texts.items()
                 if text is None]
    given = [(opt, opt.flag, texts[opt.flag]) for opt in _OPTIONS
             if texts.get(opt.flag) is not None]
    if texts.get("--config") is not None:
        try:
            file_values = _read_config_file(texts["--config"])
        except OSError as exc:
            raise ValidationError([f"cannot read config file: {exc}"])
        flagged = {opt.name for opt, _, _ in given}
        for key, text in file_values.items():
            # a field name two options share (snrs) means the first
            opt = next((opt for opt in _OPTIONS if key in (opt.key, opt.name)),
                       None)
            if opt is None:
                problems.append(f"unknown config key {key!r}")
            elif opt.name not in flagged:
                given.append((opt, f"config key {key!r}", text))

    labels: dict[str, str] = {}
    values = {}
    for opt, label, text in given:
        if opt.name in labels:
            problems.append(f"give only one of {labels[opt.name]} and {label}")
            continue
        labels[opt.name] = label
        try:
            values[opt.name] = opt.parse(text, label)
        except ValueError as exc:
            problems.append(str(exc))
    if "mode" not in labels:
        problems.append("--mode is required")
    # the placeholder mode lets the checks below run when mode is missing
    cfg = ExperimentConfig(**{"mode": "analytic", **values})
    if cfg.mode == "figure" and cfg.figure is None:
        problems.append("mode figure requires --figure")
    if cfg.mode == "asymptotic" and cfg.region_kind == "plane":
        problems.append("mode asymptotic has closed forms for the disc only")
    if cfg.mode in ("ratio", "optimize-k") and len(cfg.snrs) > 1:
        problems.append(f"mode {cfg.mode} takes one --snr or --snr-db value")
    if cfg.mode == "diversity" and (len(cfg.snrs) < 2 or any(
            lo >= hi for lo, hi in zip(cfg.snrs, cfg.snrs[1:]))):
        problems.append("mode diversity needs at least two increasing --snr "
                        "points")
    if cfg.mode == "optimize-k" and any(d <= 0 for d in cfg.densities):
        problems.append("mode optimize-k needs every --lambda > 0")
    # the CSV is written after the whole sweep, so its path is checked first
    if (not cfg.output or os.path.isdir(cfg.output)
            or not os.path.isdir(os.path.dirname(cfg.output) or ".")):
        problems.append(f"--output must name a file in an existing "
                        f"directory, got {cfg.output!r}")
    if problems:
        raise ValidationError(problems)
    return cfg


def run_sweep(cfg: ExperimentConfig) -> list[dict]:
    """Execute the configured sweep and write CSV plus .meta sidecar."""
    rows, meta = _MODES[cfg.mode](cfg)
    _write_csv(cfg.output, rows)
    _write_meta(cfg.output, cfg, meta)
    if meta.get("verify_mismatches"):
        raise NumericalFailure(
            f"{meta['verify_mismatches']} grid point(s) failed the "
            f"3-sigma agreement check")
    return rows


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        cfg = parse_config(argv)
        rows = run_sweep(cfg)
    except ValidationError as exc:
        for problem in exc.problems:
            print(f"error: {problem}", file=sys.stderr)
        return 1
    except analytic.DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:  # every numerical failure
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {len(rows)} rows to {cfg.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
